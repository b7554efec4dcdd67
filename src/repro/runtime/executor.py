"""The lockstep plan interpreter.

Executes a :class:`~repro.codegen.plan.DistributedPlan` over all task
contexts simultaneously, in bulk-synchronous steps — one step per
``communicate`` iteration, matching the execution-space model of Section
3.3 (every processor sits at the same relative time). Index task launches
expand contexts across machine grid points (nested launches expand
further, which is how hierarchical node/GPU schedules execute); sequential
loops advance all contexts together; leaves either move real numpy blocks
(functional mode) or just record work (symbolic mode).

Two interpretation strategies share one state machine:

* the **batched** fast path (default for symbolic execution) evaluates
  bounds for every context of a phase at once with the vectorized
  evaluator in :mod:`repro.runtime.batchbounds`, groups contexts by
  identical ``(tensor, rect)`` request, and resolves each group against
  the pre-phase instance state once (:meth:`DataEnvironment.resolve_batch`);
* the **scalar** path (``batched=False``, and always used for leaf
  computation in functional mode) interprets one context at a time, as
  the original executor did.

Both paths mutate the instance state in the same per-context order, so
they produce byte-for-byte identical traces — the same copies, flops,
bytes, and memory high-water marks (asserted by the parity tests in
``tests/runtime/test_batched_executor.py``).
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.codegen.plan import (
    DistributedPlan,
    LaunchNode,
    LeafNode,
    PlanNode,
    SeqNode,
)
from repro.ir.concrete import Assign
from repro.ir.expr import Access, Add, IndexVar, Mul
from repro.ir.tensor import _terms
from repro.machine.cluster import MemoryKind, Processor
from repro.runtime.batchbounds import CtxBlock, batch_rects
from repro.runtime.instances import DataEnvironment
from repro.runtime.trace import Copy, Step, Trace
from repro.util.errors import LoweringError
from repro.util.geometry import Interval, Rect, bounding_rect


@dataclass
class _Ctx:
    """One task context: where it runs and which loop iterations it holds."""

    ctx_id: int
    coords: Tuple[int, ...]
    proc: Processor
    env: Dict[IndexVar, Interval] = field(default_factory=dict)


@dataclass
class _LeafBatch:
    """Vectorized accounting of one leaf assignment over a context batch.

    Pure data: per-context flops/bytes columns computed in one shot by
    :meth:`Executor._leaf_work_batch`; applied to the trace one context
    at a time (in context order) so state mutations match the scalar
    interpreter exactly.
    """

    empty: np.ndarray
    flops: np.ndarray
    nbytes: np.ndarray
    staged: np.ndarray
    lhs_name: str
    lhs_ndim: int
    lhs_los: Optional[np.ndarray]  # (ndim, n) endpoint columns
    lhs_his: Optional[np.ndarray]
    _rect_cache: Dict[Tuple[int, ...], Rect] = field(default_factory=dict)

    def lhs_rect(self, i: int) -> Rect:
        """The output rectangle of context ``i`` (deduplicated)."""
        if self.lhs_ndim == 0:
            return Rect(())
        lo = self.lhs_los[:, i]
        hi = self.lhs_his[:, i]
        key = tuple(lo) + tuple(hi)
        rect = self._rect_cache.get(key)
        if rect is None:
            rect = Rect(
                tuple(
                    Interval(int(lo[d]), int(hi[d]))
                    for d in range(self.lhs_ndim)
                )
            )
            self._rect_cache[key] = rect
        return rect


@dataclass
class ExecutionResult:
    """Outcome of one kernel execution."""

    trace: Trace
    outputs: Dict[str, np.ndarray]
    memory_high_water: Dict[str, int]


class Executor:
    """Interprets a plan functionally and/or symbolically.

    Parameters
    ----------
    materialize:
        When True, tensors are real numpy arrays and leaves compute;
        when False only the trace (copies, work, memory) is produced.
    check_capacity:
        When True, exceeding any memory capacity raises
        :class:`~repro.util.errors.OutOfMemoryError` — enable for
        paper-scale simulations, disable for small functional tests.
    batched:
        When True, fetch resolution (and, in symbolic mode, leaf
        accounting) runs on the vectorized batch path. Defaults to
        symbolic-only; pass False to force the scalar reference
        interpreter (used by the parity tests).
    """

    def __init__(
        self,
        plan: DistributedPlan,
        materialize: bool = True,
        check_capacity: bool = False,
        batched: Optional[bool] = None,
        fault_plan=None,
    ):
        self.plan = plan
        self.machine = plan.machine
        self.graph = plan.graph
        self.materialize = materialize
        self.check_capacity = check_capacity
        self.batched = (not materialize) if batched is None else batched
        self.fault_plan = fault_plan
        self.full_env: Dict[IndexVar, Interval] = {}
        self._collect_extents(plan.root)
        self._fetch_output = self._output_is_read()

    # ------------------------------------------------------------------
    # Setup helpers.
    # ------------------------------------------------------------------

    def _collect_extents(self, node: PlanNode):
        if isinstance(node, LaunchNode):
            for var, extent in zip(node.vars, node.extents):
                self.full_env[var] = Interval.extent(extent)
            self._collect_extents(node.body)
        elif isinstance(node, SeqNode):
            self.full_env[node.var] = Interval.extent(node.extent)
            self._collect_extents(node.body)
        elif isinstance(node, LeafNode):
            for var in node.loop_vars:
                self.full_env[var] = Interval.extent(self.graph.extent(var))

    def _output_is_read(self) -> bool:
        if self.plan.assignment.accumulate:
            return True
        leaf = self._leaf(self.plan.root)
        reads = set()
        for assign in leaf.assigns:
            reads |= {a.tensor.name for a in assign.rhs.accesses()}
        return self.plan.output in reads

    def _leaf(self, node: PlanNode) -> LeafNode:
        while not isinstance(node, LeafNode):
            node = node.body
        return node

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def run(
        self, inputs: Optional[Dict[str, np.ndarray]] = None
    ) -> ExecutionResult:
        """Execute the plan.

        In functional mode ``inputs`` must provide one array per input
        tensor; the output array is zero-initialized (reduction semantics)
        and returned in ``outputs``.
        """
        self.env = DataEnvironment(
            self.plan, check_capacity=self.check_capacity
        )
        self.trace = Trace()
        self._arm_faults()
        self.arrays: Dict[str, np.ndarray] = {}
        if self.materialize:
            if inputs is None:
                raise ValueError("functional execution needs input arrays")
            required = {
                t.name for t in self.plan.assignment.tensors()
            } - {self.plan.output}
            missing = required - set(inputs)
            if missing:
                raise ValueError(
                    f"functional execution is missing input arrays for "
                    f"{sorted(missing)}"
                )
            for name, tensor in self.plan.tensors.items():
                if name == self.plan.output:
                    continue
                if name in inputs:
                    arr = np.asarray(inputs[name], dtype=tensor.dtype)
                    if arr.shape != tensor.shape:
                        raise ValueError(
                            f"input {name} has shape {arr.shape}, tensor "
                            f"declares {tensor.shape}"
                        )
                    self.arrays[name] = arr
            out_tensor = self.plan.tensors[self.plan.output]
            self.arrays[self.plan.output] = np.zeros(
                out_tensor.shape, dtype=out_tensor.dtype
            )
        root_ctx = _Ctx(
            ctx_id=0,
            coords=tuple([0] * self.machine.dim),
            proc=self.machine.proc_at(tuple([0] * self.machine.dim)),
        )
        ctxs = [root_ctx]
        self._exec(self.plan.root, ctxs, self._make_block(ctxs))
        self.trace.memory_high_water = dict(self.env.high_water)
        outputs = {}
        if self.materialize:
            outputs[self.plan.output] = self.arrays[self.plan.output]
        return ExecutionResult(
            trace=self.trace,
            outputs=outputs,
            memory_high_water=dict(self.env.high_water),
        )

    def _arm_faults(self):
        """Install the fault-injection step hook on the fresh trace.

        Armed only when a :class:`~repro.faults.events.FaultPlan` was
        given; the hook raises
        :class:`~repro.util.errors.NodeFailure` at the planned phase
        boundary, so the trace holds exactly the completed steps.
        """
        if self.fault_plan is None:
            return
        from repro.faults.events import install_fault_hook  # local: cycle

        install_fault_hook(self.trace, self.fault_plan, self)

    # ------------------------------------------------------------------
    # Interpreter.
    # ------------------------------------------------------------------

    def _make_block(self, ctxs: List[_Ctx]) -> Optional[CtxBlock]:
        if not self.batched:
            return None
        gpu = np.fromiter(
            (c.proc.memory.kind is MemoryKind.GPU_FB for c in ctxs),
            bool,
            len(ctxs),
        )
        return CtxBlock.from_ctxs(ctxs, gpu)

    def _exec(
        self, node: PlanNode, ctxs: List[_Ctx], block: Optional[CtxBlock]
    ):
        if isinstance(node, LaunchNode):
            self._exec_launch(node, ctxs)
        elif isinstance(node, SeqNode):
            self._exec_seq(node, ctxs, block)
        elif isinstance(node, LeafNode):
            self._exec_leaf(node, ctxs, block)
        else:
            raise LoweringError(f"unknown plan node {type(node).__name__}")

    def _exec_launch(self, node: LaunchNode, ctxs: List[_Ctx]):
        new_ctxs: List[_Ctx] = []
        for ctx in ctxs:
            for point in product(*(range(e) for e in node.extents)):
                coords = list(ctx.coords)
                env = dict(ctx.env)
                for dim, var, value in zip(node.machine_dims, node.vars, point):
                    coords[dim] = value
                    env[var] = Interval.point(value)
                coords_t = tuple(coords)
                new_ctxs.append(
                    _Ctx(
                        ctx_id=len(new_ctxs),
                        coords=coords_t,
                        proc=self.machine.proc_at(coords_t),
                        env=env,
                    )
                )
        block = self._make_block(new_ctxs)
        held: Dict[int, Set] = {}
        if node.comm:
            step = self.trace.new_step("task-start fetch")
            plans = self._phase_plans(node.comm, new_ctxs, block)
            for ctx in new_ctxs:
                held[ctx.ctx_id] = self._fetch_commit(
                    plans[ctx.ctx_id], ctx, step
                )
        self._exec(node.body, new_ctxs, block)
        if node.flush:
            step = self.trace.new_step("task-end reduction")
            for ctx in new_ctxs:
                for name in node.flush:
                    self._flush(name, ctx, step)
        for ctx in new_ctxs:
            for name, rect in held.get(ctx.ctx_id, set()):
                self.env.release(name, ctx.coords, rect)

    def _exec_seq(
        self, node: SeqNode, ctxs: List[_Ctx], block: Optional[CtxBlock]
    ):
        prev_held: Dict[int, Set] = {ctx.ctx_id: set() for ctx in ctxs}
        for iteration in range(node.extent):
            # One shared (frozen) point interval per iteration, not one
            # allocation per context.
            point = Interval.point(iteration)
            for ctx in ctxs:
                ctx.env[node.var] = point
            if block is not None:
                block.bind(node.var, iteration)
            if node.comm:
                step = self.trace.new_step(f"{node.var.name}={iteration}")
                plans = self._phase_plans(node.comm, ctxs, block)
                new_held: Dict[int, Set] = {}
                for ctx in ctxs:
                    new_held[ctx.ctx_id] = self._fetch_commit(
                        plans[ctx.ctx_id], ctx, step
                    )
                for ctx in ctxs:
                    stale = prev_held[ctx.ctx_id] - new_held[ctx.ctx_id]
                    for name, rect in stale:
                        self.env.release(name, ctx.coords, rect)
                prev_held = new_held
            self._exec(node.body, ctxs, block)
            if node.flush:
                step = self.trace.new_step(f"{node.var.name} reduction")
                for ctx in ctxs:
                    for name in node.flush:
                        self._flush(name, ctx, step)
        for ctx in ctxs:
            for name, rect in prev_held[ctx.ctx_id]:
                self.env.release(name, ctx.coords, rect)
            ctx.env.pop(node.var, None)
        if block is not None:
            block.unbind(node.var)

    def _exec_leaf(
        self, node: LeafNode, ctxs: List[_Ctx], block: Optional[CtxBlock]
    ):
        step = self.trace.current
        plans = None
        if node.comm:
            plans = self._phase_plans(node.comm, ctxs, block)
        batch = None
        if block is not None and not self.materialize:
            batch = self._leaf_work_batch(node, block)
        for idx, ctx in enumerate(ctxs):
            held = set()
            if plans is not None:
                held = self._fetch_commit(plans[ctx.ctx_id], ctx, step)
            if batch is None:
                self._run_leaf_body(node, ctx, step)
            else:
                self._apply_leaf_batch(node, batch, idx, ctx, step)
            for name in node.flush:
                self._flush(name, ctx, step)
            for name, rect in held:
                self.env.release(name, ctx.coords, rect)

    # ------------------------------------------------------------------
    # Communication.
    # ------------------------------------------------------------------

    def _rect_of(
        self, ctx: _Ctx, name: str, exact: bool
    ) -> Optional[Rect]:
        """Bounding rectangle of a tensor's data needed below this point."""
        env = ChainMap(ctx.env, self.full_env)
        rects = []
        for access in self.plan.accesses[name]:
            if access.tensor.ndim == 0:
                rects.append(Rect(()))
                continue
            intervals = tuple(
                self.graph.value_of(v, env, exact) for v in access.indices
            )
            rects.append(Rect(intervals))
        return bounding_rect(rects) if rects else None

    def _phase_plans(
        self, names: List[str], ctxs: List[_Ctx], block: Optional[CtxBlock]
    ) -> Dict[int, List[Tuple[str, Rect, List]]]:
        """Plan fetches for every context of a phase at once.

        Resolution and registration are split at *phase* granularity: all
        contexts resolve against the same pre-phase state, so a chunk
        needed by many processors resolves to one source (a broadcast)
        instead of chaining through instances that are still in flight.

        On the batch path, contexts are grouped by identical ``(tensor,
        rect)`` request and each group is resolved once; the returned
        per-context plans are identical to the scalar path's (same
        entries, same order), so :meth:`_fetch_commit` behaves the same
        either way.
        """
        if block is None:
            return {
                ctx.ctx_id: self._fetch_resolve(names, ctx) for ctx in ctxs
            }
        plans: Dict[int, List[Tuple[str, Rect, List]]] = {
            ctx.ctx_id: [] for ctx in ctxs
        }
        for name in names:
            if name == self.plan.output and not self._fetch_output:
                continue
            _rect_of, groups = batch_rects(
                block,
                self.graph,
                self.plan.accesses[name],
                self.full_env,
                exact=False,
            )
            for rect, members in groups:
                if rect.is_empty:
                    continue
                sources = self.env.resolve_batch(
                    name, rect, [ctxs[i].coords for i in members]
                )
                for i, srcs in zip(members, sources):
                    plans[ctxs[i].ctx_id].append((name, rect, srcs))
        return plans

    def _fetch_resolve(
        self, names: List[str], ctx: _Ctx
    ) -> List[Tuple[str, Rect, List]]:
        """Scalar reference: plan one context's fetches at phase start."""
        plans: List[Tuple[str, Rect, List]] = []
        for name in names:
            if name == self.plan.output and not self._fetch_output:
                continue
            rect = self._rect_of(ctx, name, exact=False)
            if rect is None or rect.is_empty:
                continue
            sources = self.env.resolve(name, ctx.coords, rect)
            plans.append((name, rect, sources))
        return plans

    def _fetch_commit(
        self, plans: List[Tuple[str, Rect, List]], ctx: _Ctx, step: Step
    ) -> Set[Tuple[str, Rect]]:
        """Install planned fetches and emit their copies."""
        held: Set[Tuple[str, Rect]] = set()
        for name, rect, sources in plans:
            if self.env.register(name, ctx.coords, rect):
                held.add((name, rect))
            for src_coords, piece in sources:
                self._emit_copy(step, name, piece, src_coords, ctx)
        return held

    def _emit_copy(
        self,
        step: Step,
        name: str,
        rect: Rect,
        src_coords: Tuple[int, ...],
        ctx: _Ctx,
        reduce: bool = False,
    ):
        tensor = self.plan.tensors[name]
        nbytes = rect.volume * tensor.itemsize
        if nbytes == 0:
            return
        src_proc = self.machine.proc_at(src_coords)
        if src_proc.proc_id == ctx.proc.proc_id and not reduce:
            return  # same physical processor (over-decomposition)
        step.copies.append(
            Copy(
                tensor=name,
                rect=rect,
                nbytes=nbytes,
                src_proc=src_proc if not reduce else ctx.proc,
                dst_proc=ctx.proc if not reduce else src_proc,
                src_mem=(
                    self.env.source_memory(name, src_coords, rect)
                    if not reduce
                    else ctx.proc.memory
                ),
                dst_mem=(
                    ctx.proc.memory
                    if not reduce
                    else self.env.source_memory(name, src_coords, rect)
                ),
                src_coords=src_coords if not reduce else ctx.coords,
                dst_coords=ctx.coords if not reduce else src_coords,
                reduce=reduce,
            )
        )

    def _flush(self, name: str, ctx: _Ctx, step: Step):
        """Reduce pending non-owned output partials back to their owners."""
        for rect, owner in self.env.flush_partials(name, ctx.coords):
            if owner == ctx.coords:
                continue
            self.env.stage_reduction(name, owner, rect)
            self._emit_copy(step, name, rect, owner, ctx, reduce=True)

    # ------------------------------------------------------------------
    # Leaf execution.
    # ------------------------------------------------------------------

    def _leaf_work_batch(
        self, node: LeafNode, block: CtxBlock
    ) -> List[_LeafBatch]:
        """Vectorized symbolic leaf accounting for a whole context batch.

        Pure computation (no trace/instance mutation): per-assign columns
        of flops, touched bytes, and PCIe-staged bytes, mirroring
        :meth:`_run_leaf_body` element-wise.
        """
        graph, full_env, n = self.graph, self.full_env, block.n
        out: List[_LeafBatch] = []
        for assign in node.assigns:
            empty = np.zeros(n, dtype=bool)
            var_sizes: Dict[IndexVar, np.ndarray] = {}
            for var in _assign_vars(assign):
                lo, hi = block.values_of(graph, var, full_env, exact=True)
                size = np.broadcast_to(np.asarray(hi - lo), (n,))
                var_sizes[var] = size
                empty = empty | (size == 0)
            volume = np.ones(n, dtype=np.int64)
            for size in var_sizes.values():
                volume = volume * size
            flops = volume * _ops_per_point(assign)
            accesses = [assign.lhs] + list(assign.rhs.accesses())
            nbytes = np.zeros(n, dtype=np.int64)
            staged = np.zeros(n, dtype=np.int64)
            lhs_los = lhs_his = None
            for access in accesses:
                ndim = access.tensor.ndim
                if ndim == 0:
                    vol = np.ones(n, dtype=np.int64)
                    los = his = None
                else:
                    los = np.empty((ndim, n), dtype=np.int64)
                    his = np.empty((ndim, n), dtype=np.int64)
                    for d, v in enumerate(access.indices):
                        lo, hi = block.values_of(
                            graph, v, full_env, exact=True
                        )
                        los[d, :] = lo
                        his[d, :] = hi
                    vol = np.prod(his - los, axis=0)
                abytes = vol * access.tensor.itemsize
                nbytes = nbytes + abytes
                if access.tensor.format.memory is MemoryKind.SYSTEM_MEM:
                    # Host-resident data computed on a GPU streams over
                    # PCIe (out-of-core execution, e.g. COSMA's GEMM).
                    staged = staged + abytes * block.gpu
                if access is assign.lhs:
                    lhs_los, lhs_his = los, his
            out.append(
                _LeafBatch(
                    empty=empty,
                    flops=flops,
                    nbytes=nbytes,
                    staged=staged,
                    lhs_name=assign.lhs.tensor.name,
                    lhs_ndim=assign.lhs.tensor.ndim,
                    lhs_los=lhs_los,
                    lhs_his=lhs_his,
                )
            )
        return out

    def _apply_leaf_batch(
        self,
        node: LeafNode,
        batch: List[_LeafBatch],
        idx: int,
        ctx: _Ctx,
        step: Step,
    ):
        """Apply one context's precomputed leaf accounting to the trace."""
        work = step.work_for(ctx.proc)
        for entry in batch:
            if entry.empty[idx]:
                continue
            work.add(
                int(entry.flops[idx]),
                int(entry.nbytes[idx]),
                node.kernel,
                node.parallel,
                staged_bytes=int(entry.staged[idx]),
            )
            if entry.lhs_name == self.plan.output:
                self.env.note_partial(
                    entry.lhs_name, ctx.coords, entry.lhs_rect(idx)
                )

    def _run_leaf_body(self, node: LeafNode, ctx: _Ctx, step: Step):
        env = ChainMap(ctx.env, self.full_env)
        work = step.work_for(ctx.proc)
        local_arrays: Dict[str, np.ndarray] = {}
        for assign in node.assigns:
            rects: Dict[int, Rect] = {}
            variables = _assign_vars(assign)
            var_sizes = {}
            empty = False
            for var in variables:
                interval = self.graph.value_of(var, env, exact=True)
                var_sizes[var] = interval.size
                if interval.size == 0:
                    empty = True
            if empty:
                continue
            volume = 1
            for size in var_sizes.values():
                volume *= size
            flops = volume * _ops_per_point(assign)
            accesses = [assign.lhs] + list(assign.rhs.accesses())
            nbytes = 0
            staged = 0
            gpu_proc = ctx.proc.memory.kind.value == "gpu_fb"
            for access in accesses:
                intervals = tuple(
                    self.graph.value_of(v, env, exact=True)
                    for v in access.indices
                )
                rect = Rect(intervals)
                rects[id(access)] = rect
                access_bytes = rect.volume * access.tensor.itemsize
                nbytes += access_bytes
                if gpu_proc and access.tensor.format.memory.value == "sysmem":
                    # Host-resident data computed on a GPU streams over
                    # PCIe (out-of-core execution, e.g. COSMA's GEMM).
                    staged += access_bytes
            work.add(
                flops, nbytes, node.kernel, node.parallel, staged_bytes=staged
            )
            out_rect = rects[id(assign.lhs)]
            out_name = assign.lhs.tensor.name
            if out_name == self.plan.output:
                self.env.note_partial(out_name, ctx.coords, out_rect)
            if self.materialize:
                self._compute(assign, rects, local_arrays, var_sizes)

    def _compute(
        self,
        assign: Assign,
        rects: Dict[int, Rect],
        local_arrays: Dict[str, np.ndarray],
        var_sizes: Dict[IndexVar, int],
    ):
        """Evaluate one leaf assignment on real data."""
        letters: Dict[IndexVar, str] = {}

        def letter(var: IndexVar) -> str:
            if var not in letters:
                letters[var] = chr(ord("a") + len(letters))
            return letters[var]

        def view(access: Access) -> np.ndarray:
            name = access.tensor.name
            if name in self.arrays:
                arr = self.arrays[name]
            else:
                if name not in local_arrays:
                    local_arrays[name] = np.zeros(
                        access.tensor.shape, dtype=access.tensor.dtype
                    )
                arr = local_arrays[name]
            if access.tensor.ndim == 0:
                # Indexing a 0-d array with () detaches a scalar; the
                # array itself is the writable view.
                return arr
            return arr[rects[id(access)].as_slices()]

        out_view = view(assign.lhs)
        if not assign.reduce:
            out_view[...] = 0.0
        reduction = [
            v for v in var_sizes if v not in assign.lhs.indices
        ]
        for coeff, accesses in _terms(assign.rhs):
            if not accesses:
                mult = 1
                for var in reduction:
                    mult *= var_sizes[var]
                out_view += coeff * mult
                continue
            subs = ",".join(
                "".join(letter(v) for v in acc.indices) for acc in accesses
            )
            operands = [view(acc) for acc in accesses]
            # Output variables not indexing any term operand broadcast
            # (e.g. the paper's a(i) += b(j) running example); reduction
            # variables not indexing the term multiply it by the local
            # iteration count (the loop nest sums it once per point).
            present = {v for acc in accesses for v in acc.indices}
            for var in reduction:
                if var not in present:
                    coeff = coeff * var_sizes[var]
            out_sub = "".join(
                letter(v) for v in assign.lhs.indices if v in present
            )
            result = np.einsum(
                f"{subs}->{out_sub}", *operands, optimize=True
            )
            shape = tuple(
                out_view.shape[d] if v in present else 1
                for d, v in enumerate(assign.lhs.indices)
            )
            out_view += coeff * np.asarray(result).reshape(shape)


def _assign_vars(assign: Assign) -> List[IndexVar]:
    seen: List[IndexVar] = []
    for access in [assign.lhs] + list(assign.rhs.accesses()):
        for var in access.indices:
            if var not in seen:
                seen.append(var)
    return seen


def _ops_per_point(assign: Assign) -> int:
    def count(expr) -> int:
        if isinstance(expr, (Add, Mul)):
            return 1 + count(expr.lhs) + count(expr.rhs)
        return 0

    ops = count(assign.rhs)
    if assign.reduce:
        ops += 1
    return max(ops, 1)
