"""Orbit-compressed symbolic execution.

The paper's schedules are SPMD: at every communication phase, most grid
points issue a request that is a coordinate *translation* of their
neighbours' — same rectangle shape, same source offset, same payload.
The batched executor (PR 1) still pays O(P) Python per phase resolving
and recording those requests one context at a time; this module makes
the Python cost scale with the number of *distinct per-context
behaviours* (symmetry classes) instead, while per-member bookkeeping
runs as numpy column arithmetic:

1. **Fingerprinting.** Each context's request is fingerprinted from the
   vectorized bounds analysis (:func:`~repro.runtime.batchbounds
   .batch_bounds`): the ``(tensor, rect-shape, source-offset)`` tuple.
   Contexts with equal fingerprints form an *orbit* — a symmetry class
   under machine translation.
2. **Class-level resolution.** Ownership is computed for all requests
   at once with the vectorized distribution arithmetic
   (:meth:`~repro.formats.format.Format.owner_pattern_batch`); cached
   instances live in columnar *mirror* tables joined against requests
   by sort/searchsorted instead of per-context dict probes. Nearest-
   source selection reproduces the scalar rule ``min((torus distance,
   coords))`` exactly.
3. **Compressed traces.** Each orbit contributes one representative
   copy carrying a ``count`` multiplicity, stored as columns
   (:class:`~repro.runtime.trace.CopyReps`) that ``step.copies`` turns
   into :class:`~repro.runtime.trace.Copy` objects on first read;
   per-processor :class:`~repro.runtime.trace.Work` is likewise stored
   once per class of identical timelines. The exact per-member endpoint
   columns are still built (as numpy arrays, never Python objects) and
   pinned on each step, so the cost model's link-contention accounting
   is byte-identical to full execution.
4. **No per-context path.** Launches build their contexts as columns
   (coordinates, loop-variable endpoints, processors); requests
   spanning several home pieces, reduction flushes and leaf-level
   communication are class-batched too, with memory events replayed in
   the scalar interpreter's order; the executor has no per-context
   resolve API. Results stay exact
   against the scalar interpreter (asserted by
   ``tests/runtime/test_orbit_executor.py`` on every Figure 9 schedule
   plus deliberately non-divisible problem sizes, and by
   ``tests/runtime/test_orbit_fallbacks.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.codegen.plan import LaunchNode, LeafNode, PlanNode, SeqNode
from repro.obs.metrics import METRICS, ORBIT_COUNTERS
from repro.obs.spans import span
from repro.runtime.batchbounds import CtxBlock, batch_bounds
from repro.runtime.executor import ExecutionResult, Executor, _assign_vars
from repro.runtime.orbit_state import (
    OrbitState,
    _Chunk,
    _Classes,
    _concat_owners,
    _EmitInfo,
    _EventStream,
    _fan_out,
    _first_rows,
    _fold_keys,
    _hash_rows,
    _linear,
    _pack_key,
    _PhaseMemo,
    _probe_index,
    _rank_within,
    _Region,
    _Registration,
    _same_columns,
    _StepBuilder,
    _torus_dist,
    fold_groups,
    fold_rows,
    gpu_flags,
    machine_tables,
)
from repro.runtime.trace import CopyReps, Step, Trace
from repro.util.errors import LoweringError
from repro.util.geometry import Rect

# ----------------------------------------------------------------------
# The orbit executor.
# ----------------------------------------------------------------------


class OrbitExecutor(Executor):
    """Symbolic interpreter with orbit-compressed phase execution."""

    def __init__(
        self, plan, check_capacity: bool = False, fault_plan=None,
        skeleton=None,
    ):
        super().__init__(
            plan, materialize=False, check_capacity=check_capacity,
            fault_plan=fault_plan,
        )
        #: A :class:`~repro.sim.costmodel.SkeletonAccumulator` that
        #: prices each step as it closes, after which the step's copy
        #: columns are released (``None``: keep the full record).
        self._skeleton = skeleton
        self._mt = machine_tables(self.machine)
        self._extent_cap = max(
            (max(t.shape) for t in plan.tensors.values() if t.shape),
            default=1,
        )
        self._regions: Dict[int, "_Region"] = {}
        #: Leaves a sequential loop repeats within one region (the only
        #: ones whose calls can replay a previous call's Work).
        self._repeated_leaves = _repeated_leaves(plan.root)
        #: The open step's builder (keyed by step id); popped when the
        #: step closes.
        self._builders: Dict[int, _StepBuilder] = {}
        self._tensor_ids = {
            name: i for i, name in enumerate(sorted(plan.tensors))
        }
        #: Per-(region, tensor) phase memos for conjugate replay.
        self._phase_memos: Dict[Tuple[int, str], _PhaseMemo] = {}
        #: The previous phase's held rows, per tensor (set by the fetch
        #: path; lets memos separate held-set churn from static rows).
        self._prev_held: Dict[str, _Registration] = {}
        self._shifts: Dict[Tuple[int, ...], np.ndarray] = {}
        #: Coverage counters for the class-batched multi-piece
        #: redistribution, reduction flushes and leaf-level
        #: communication phases — the parity suite asserts the paths
        #: actually ran.
        self.multi_piece_batches = 0
        self.flush_batches = 0
        self.leaf_comm_phases = 0
        #: Leaf calls that replayed the previous iteration's Work.
        self.leaf_reused = 0
        #: Home lookups the grid's tables held from an earlier run on
        #: this machine or an earlier region.
        self.home_shared = 0
        #: Resolve outcomes per tensor phase (``orbit.phase_*`` in the
        #: metrics registry): full resolves, and conjugate replays of
        #: the previous phase — seamless, or with a seam of members the
        #: map does not explain. ``phase_replays`` is their sum.
        self.phase_full = 0
        self.phase_conjugate = 0
        self.phase_seam = 0
        self.phase_replays = 0
        #: Replays applied as a delta against the previous phase: at
        #: least one member carried through the map, so only the seam
        #: and re-derived members are written.
        self.phase_deltas = 0
        #: Replayed fetching members whose source the conjugate map
        #: proved, and those resolved through the derivation.
        self.members_carried = 0
        self.members_rederived = 0

    # -- plumbing ------------------------------------------------------

    def run(self, inputs=None) -> ExecutionResult:
        home_hits = self._mt.home_hits
        self.env = OrbitState(
            self.plan, check_capacity=self.check_capacity, tables=self._mt
        )
        self.trace = Trace()
        self._arm_faults()
        self.arrays = {}
        # The root context runs at machine point 0.
        root = self._region_block(
            np.zeros((1, self.machine.dim), dtype=np.int64),
            self._mt.proc_of_point[:1], {},
        )
        with span("orbit.run"):
            self._exec(self.plan.root, root)
            self._close_step()
        high_water = self.env.high_water
        self.trace.memory_high_water = high_water
        self.home_shared += self._mt.home_hits - home_hits
        METRICS.inc("orbit.runs")
        METRICS.inc("orbit.steps", len(self.trace.steps))
        for counter in ORBIT_COUNTERS:
            METRICS.inc(counter, getattr(self, counter[len("orbit."):]))
        return ExecutionResult(
            trace=self.trace,
            outputs={},
            memory_high_water=dict(high_water),
        )

    def _region_block(self, coords: np.ndarray, proc: np.ndarray,
                      env: Dict) -> CtxBlock:
        """A context block and its region from context columns:
        machine coordinates, processor ids and loop-variable
        endpoints."""
        mt = self._mt
        block = CtxBlock(
            env, proc.size, mt.mem_gpu[mt.procmem_of_proc[proc]]
        )
        self._regions[id(block)] = _Region(coords, proc, block)
        return block

    def _new_step(self, label: str) -> Step:
        """Open the next phase. The current one closes first — before
        the fault hook in :meth:`Trace.new_step` may interrupt the run,
        so a failure's partial trace holds finalized steps only."""
        self._close_step()
        return self.trace.new_step(label)

    def _close_step(self):
        """Finalize the last step's columns; in a streamed run, price
        the step and release them."""
        if not self.trace.steps:
            return
        step = self.trace.steps[-1]
        builder = self._builders.pop(id(step), None)
        if builder is not None:
            with span("orbit.finalize"):
                builder.finalize(
                    self._mt, self._tensor_ids, self._extent_cap
                )
        if self._skeleton is not None:
            self._skeleton.add(step)
            step.release_columns()

    def _builder(self, step: Step) -> _StepBuilder:
        b = self._builders.get(id(step))
        if b is None:
            b = _StepBuilder(step)
            self._builders[id(step)] = b
        return b

    # -- plan-tree interpretation --------------------------------------

    def _exec(self, node: PlanNode, block: CtxBlock):
        if isinstance(node, LaunchNode):
            self._exec_launch(node, block)
        elif isinstance(node, SeqNode):
            self._exec_seq(node, block)
        elif isinstance(node, LeafNode):
            self._exec_leaf(node, block)
        else:
            raise LoweringError(f"unknown plan node {type(node).__name__}")

    def _exec_launch(self, node: LaunchNode, parent: CtxBlock):
        # Child contexts parent-major, then launch points in
        # lexicographic order; each inherits its parent's coordinates
        # and bindings (sequential ones are scalars) and binds the
        # launch variables to its point.
        mt = self._mt
        n = parent.n
        points = np.indices(node.extents).reshape(len(node.extents), -1)
        fan = points.shape[1]
        coords = np.repeat(self._regions[id(parent)].coords, fan, axis=0)
        env = {
            var: tuple(
                np.repeat(np.broadcast_to(col, (n,)), fan) for col in cols
            )
            for var, cols in parent.env.items()
        }
        for dim, var, point in zip(node.machine_dims, node.vars, points):
            point = np.tile(point, n)
            coords[:, dim] = point
            env[var] = (point, point + 1)
        block = self._region_block(
            coords, mt.proc_of_point[coords @ mt.strides], env
        )
        held = None
        if node.comm:
            step = self._new_step("task-start fetch")
            held = self._orbit_fetch(node.comm, block, step)
        self._exec(node.body, block)
        if node.flush:
            step = self._new_step("task-end reduction")
            events = _EventStream()
            self._orbit_flush(
                node.flush, self._regions[id(block)], step, events
            )
            self.env.apply_events(*events.ordered())
        if held is not None:
            self._release_held(held)

    def _exec_seq(self, node: SeqNode, block: CtxBlock):
        prev = None
        for iteration in range(node.extent):
            block.bind(node.var, iteration)
            if node.comm:
                step = self._new_step(f"{node.var.name}={iteration}")
                prev = self._orbit_fetch(
                    node.comm, block, step, release=prev
                )
            self._exec(node.body, block)
            if node.flush:
                step = self._new_step(f"{node.var.name} reduction")
                events = _EventStream()
                self._orbit_flush(
                    node.flush, self._regions[id(block)], step, events
                )
                self.env.apply_events(*events.ordered())
        if prev is not None:
            self._release_held(prev)
        block.unbind(node.var)

    def _exec_leaf(self, node: LeafNode, block: CtxBlock):
        step = self.trace.current
        region = self._regions[id(block)]
        if not node.comm and not node.flush:
            self._orbit_leaf(node, block, region, step)
            return
        # Leaf-level communication / flushes: resolution and class
        # grouping run batched against the pre-phase state; the memory
        # events interleave per context (register, partial, flush,
        # release — the scalar interpreter's per-context commit order)
        # through one exactly-ordered event stream. Registered leaf
        # instances are released within the same phase, so the mirror
        # tables need no net update.
        events = _EventStream()
        regs = []
        self._prev_held = {}
        self.leaf_comm_phases += 1
        if node.comm:
            effective = [
                name
                for name in node.comm
                if not (name == self.plan.output and not self._fetch_output)
            ]
            for pos, name in enumerate(effective):
                r = self._resolve_tensor(
                    name, pos, len(effective), region, block, step
                )
                if r is not None:
                    regs.append(r)
        for pos, reg in enumerate(regs):
            events.add(
                reg.mem, reg.nbytes, reg.idx, _EventStream.REGISTER, pos
            )
        self._orbit_leaf(node, block, region, step, events=events)
        if node.flush:
            self._orbit_flush(node.flush, region, step, events)
        for pos, reg in enumerate(regs):
            events.add(
                reg.mem, -reg.nbytes, reg.idx, _EventStream.RELEASE, pos
            )
        self.env.apply_events(*events.ordered())

    # -- orbit leaf accounting -----------------------------------------

    def _orbit_leaf(self, node: LeafNode, block: CtxBlock,
                    region: "_Region", step: Step,
                    events: Optional["_EventStream"] = None):
        # Repeating iterations hand the same columns to the same region:
        # replay the previous call's Work writes. The work batch is a
        # function of the leaf key, so equal keys skip computing it.
        # Only calls that staged no output partials are memoized, so the
        # partial-table state the skipped half would consult cannot
        # matter. A leaf no sequential loop repeats in its region runs
        # once there, so it neither reads nor writes the memo.
        repeated = id(node) in self._repeated_leaves
        if repeated:
            key = self._leaf_key(node, block)
            memo = region.leaf_memo.pop(id(node), None)
            if memo is not None and _same_columns(memo[0], key):
                self.leaf_reused += 1
                self._write_leaf_work(node, step, memo[1])
                region.leaf_memo[id(node)] = memo
                return
        batch = self._leaf_work_batch(node, block)
        n = region.n
        flops = np.zeros(n, dtype=np.int64)
        nbytes = np.zeros(n, dtype=np.int64)
        staged = np.zeros(n, dtype=np.int64)
        invocations = np.zeros(n, dtype=np.int64)
        for entry in batch:
            live = ~entry.empty
            flops += np.where(live, entry.flops, 0)
            nbytes += np.where(live, entry.nbytes, 0)
            staged += np.where(live, entry.staged, 0)
            invocations += live
        n_procs = self._mt.node_of_proc.size
        procs = region.proc
        agg_f = np.bincount(procs, weights=flops, minlength=n_procs)
        agg_b = np.bincount(procs, weights=nbytes, minlength=n_procs)
        agg_s = np.bincount(procs, weights=staged, minlength=n_procs)
        agg_i = np.bincount(procs, weights=invocations, minlength=n_procs)
        present = np.bincount(procs, minlength=n_procs) > 0
        pids = np.flatnonzero(present)
        rows = np.column_stack(
            [agg_f[pids], agg_b[pids], agg_s[pids], agg_i[pids]]
        ).astype(np.int64)
        keys = fold_rows(rows)
        _, first, counts = np.unique(keys, return_index=True,
                                     return_counts=True)
        writes = tuple(
            (pid, float(agg_f[pid]), float(agg_b[pid]), float(agg_s[pid]),
             int(agg_i[pid]), int(cnt))
            for pid, cnt in zip(pids[first].tolist(), counts)
        )
        self._write_leaf_work(node, step, writes)
        # Non-owned output writes become pending partials, exactly as
        # the scalar interpreter records them (context-major, assign-
        # minor), but batched: dedup, table insertion and the memory
        # charges are column operations.
        out_name = self.plan.output
        cands = []
        for e_idx, entry in enumerate(batch):
            if entry.lhs_name != out_name:
                continue
            h_lo, h_hi, h_ok = region.home(self, out_name)
            if entry.lhs_ndim == 0:
                not_owned = ~h_ok
            else:
                covered = h_ok.copy()
                for d in range(entry.lhs_ndim):
                    covered &= h_lo[d] <= entry.lhs_los[d]
                    covered &= entry.lhs_his[d] <= h_hi[d]
                not_owned = ~covered
            rows = np.flatnonzero(not_owned & ~entry.empty)
            if rows.size == 0:
                continue
            if entry.lhs_ndim:
                cands.append(
                    (e_idx, rows, entry.lhs_los[:, rows],
                     entry.lhs_his[:, rows])
                )
            else:
                z = np.zeros((0, rows.size), dtype=np.int64)
                cands.append((e_idx, rows, z, z))
        if not cands:
            if repeated:
                region.leaf_memo[id(node)] = (key, writes)
            return
        member = np.concatenate([c[1] for c in cands])
        e_ids = np.concatenate(
            [np.full(c[1].size, c[0], dtype=np.int64) for c in cands]
        )
        p_lo = np.concatenate([c[2] for c in cands], axis=1)
        p_hi = np.concatenate([c[3] for c in cands], axis=1)
        order = np.lexsort((e_ids, member))
        member = member[order]
        p_lo = p_lo[:, order]
        p_hi = p_hi[:, order]
        kept = self.env.note_partials_bulk(
            out_name, region.coords[member], p_lo, p_hi
        )
        krows = np.flatnonzero(kept)
        if krows.size == 0:
            return
        tensor = self.plan.tensors[out_name]
        vol = np.ones(krows.size, dtype=np.int64)
        for d in range(tensor.ndim):
            vol *= p_hi[d, krows] - p_lo[d, krows]
        amounts = vol * tensor.itemsize
        mems = self._mt.tensor_mem_of_proc(tensor)[
            region.proc[member[krows]]
        ]
        if events is None:
            self.env.bulk_add(mems, amounts, krows)
        else:
            events.add(
                mems, amounts, member[krows], _EventStream.PARTIAL, krows
            )

    def _leaf_key(self, node: LeafNode, block: CtxBlock) -> List:
        """What a leaf's work batch is a function of: the size column of
        every variable its assignments index (flops, touched and staged
        bytes, emptiness) and the endpoints of each output access (the
        partials). Evaluated in :meth:`_leaf_work_batch`'s order, so an
        inexact slice raises as it would."""
        graph, full_env = self.graph, self.full_env
        key = []
        for assign in node.assigns:
            for var in _assign_vars(assign):
                lo, hi = block.values_of(graph, var, full_env, exact=True)
                key.append(hi - lo)
            for var in assign.lhs.indices:
                key.extend(block.values_of(graph, var, full_env, exact=True))
        return key

    def _write_leaf_work(self, node: LeafNode, step: Step, writes):
        """Set each class representative's Work: ``writes`` holds one
        ``(proc id, flops, bytes, staged, invocations, count)`` row per
        class of processors with equal aggregates."""
        procs = self.machine.cluster.processors
        for pid, f, b, s, inv, cnt in writes:
            work = step.work_for(procs[pid])
            work.flops = f
            work.bytes_touched = b
            work.staged_bytes = s
            work.invocations = inv
            work.count = cnt
            if inv > 0:
                work.kernel_flops = {node.kernel: f}
                if node.kernel is not None:
                    work.kernel = node.kernel
                work.parallel = node.parallel

    # -- orbit fetch phases --------------------------------------------

    def _orbit_fetch(self, names: List[str], block: CtxBlock,
                     step: Step,
                     release: Optional[Dict[str, _Registration]] = None,
                     ) -> Dict[str, _Registration]:
        """Resolve and commit one communication phase for all contexts.

        Returns the per-tensor registrations (the phase's *held* set,
        released when its communicate scope ends). ``release`` is the
        previous phase's held set: releasing it here (after the commit,
        the scalar order) lets phase memos snapshot the mirror version
        with no other mutations in between.
        """
        region = self._regions[id(block)]
        self._prev_held = release or {}
        effective = [
            name
            for name in names
            if not (name == self.plan.output and not self._fetch_output)
        ]
        n_names = len(effective)
        resolved = []
        with span("orbit.classify"):
            for pos, name in enumerate(effective):
                resolved.append(
                    self._resolve_tensor(
                        name, pos, n_names, region, block, step
                    )
                )
        # Commit: register instances (pre-phase resolution is complete),
        # then charge the memory (the per-memory sums; scalar event
        # order only to replay an overflow).
        held: Dict[str, _Registration] = {
            name: reg for name, reg in zip(effective, resolved)
            if reg is not None
        }
        if held:
            regs = list(held.values())
            for name, reg in held.items():
                self.env.mirror(name).add_block(reg)
            n_mem = self.env.n_mem
            adds = regs[0].charges(n_mem)
            for reg in regs[1:]:
                adds = adds + reg.charges(n_mem)
            self.env.charge(adds, lambda: (
                np.concatenate([r.mem for r in regs]),
                np.concatenate([r.nbytes for r in regs]),
                np.concatenate([r.order() for r in regs]),
            ))
        if release:
            self._release_held(release)
        # Pin each memo to the post-commit, post-release mirror version:
        # the next phase replays only if nothing else touched the mirror.
        for name in effective:
            memo = self._phase_memos.get((id(block), name))
            if memo is None or not memo.ready:
                continue
            mirror = self.env._mirrors.get(name)
            memo.version = mirror.version if mirror is not None else -1
        return held

    def _resolve_tensor(self, name: str, name_pos: int, n_names: int,
                        region: "_Region", block: CtxBlock, step: Step):
        """Resolve one tensor's requests for a phase (no state mutation).

        Emits copies (columnar for orbit classes, batched per rect class
        for multi-piece requests) and returns the registration batch
        ``(ctx rows, lo, hi, mem, bytes, order)`` to commit. Steady
        systolic phases replay the previous one through
        :meth:`_replay_conjugate`.
        """
        plan = self.plan
        tensor = plan.tensors[name]
        ndim = tensor.ndim
        n = region.n
        lo, hi, live = batch_bounds(
            block, self.graph, plan.accesses[name], self.full_env,
            exact=False,
        )
        if ndim == 0:
            lo = np.zeros((0, n), dtype=np.int64)
            hi = np.zeros((0, n), dtype=np.int64)
        if not live.any():
            self._phase_memos.pop((id(block), name), None)
            return None
        memo_key = (id(block), name)
        memo = self._phase_memos.get(memo_key)
        if memo is None:
            memo = _PhaseMemo()
            self._phase_memos[memo_key] = memo
        live_all = bool(live.all())
        prev_lo, prev_hi, prev_live_all = memo.lo, memo.hi, memo.live_all
        # batch_bounds allocates fresh endpoint matrices per phase, so
        # holding references (no copy) is safe.
        memo.lo, memo.hi, memo.live_all = lo, hi, live_all
        h_lo, h_hi, h_ok = region.home(self, name)
        local = h_ok & live
        for d in range(ndim):
            local &= h_lo[d] <= lo[d]
            local &= hi[d] <= h_hi[d]
        remaining = live & ~local
        rem_idx = np.flatnonzero(remaining)
        if rem_idx.size == 0:
            memo.ready = False
            return None
        mirror = self.env._mirrors.get(name)
        if (
            memo.ready
            and live_all
            and prev_live_all
            and mirror is not None
            and mirror.version == memo.version
            and prev_lo.shape == lo.shape
        ):
            out = self._replay_conjugate(
                memo, name, name_pos, n_names, region, step, lo, hi,
                prev_lo, prev_hi, tensor, rem_idx, local,
            )
            if out is not None:
                return out
        self.phase_full += 1
        memo.ready = False
        # Holder-locality and holder candidates: hash-join requests
        # against a snapshot of the live instance mirror on exact rect
        # equality. Join keys are fast row hashes; every candidate pair
        # is verified on the original endpoint columns, so collisions
        # only cost a filtered candidate — results stay exact.
        holder_local = np.zeros(rem_idx.size, dtype=bool)
        pair_req = np.zeros(0, dtype=np.int64)
        pair_coords_all = np.zeros((0, self.machine.dim), dtype=np.int64)
        req_k = None
        req_keys_cols = None
        if ndim:
            req_keys_cols = np.empty(
                (rem_idx.size, 2 * ndim), dtype=np.int64
            )
            req_keys_cols[:, :ndim] = lo[:, rem_idx].T
            req_keys_cols[:, ndim:] = hi[:, rem_idx].T
            req_k = _hash_rows(req_keys_cols)
        inst_rows = (
            mirror.snapshot() if mirror is not None
            else np.zeros(0, dtype=np.int64)
        )
        if inst_rows.size and ndim:
            inst_cols = np.empty((inst_rows.size, 2 * ndim), dtype=np.int64)
            inst_cols[:, :ndim] = mirror.lo[inst_rows]
            inst_cols[:, ndim:] = mirror.hi[inst_rows]
            inst_k = _hash_rows(inst_cols)
            order = np.argsort(inst_k, kind="stable")
            pair_req, p_pos = _probe_index(
                inst_k[order], req_k, inst_cols[order], req_keys_cols
            )
            pair_coords_all = mirror.coords[inst_rows[order[p_pos]]]
        if pair_req.size:
            same = np.all(
                pair_coords_all == region.coords[rem_idx[pair_req]],
                axis=1,
            )
            holder_local[pair_req[same]] = True
        fetch_idx = rem_idx
        if holder_local.any():
            fetch_mask = ~holder_local
            fetch_idx = rem_idx[fetch_mask]
            if fetch_idx.size == 0:
                return None
            # Renumber candidate pairs onto the fetching subset.
            new_pos = np.full(rem_idx.size, -1, dtype=np.int64)
            new_pos[fetch_mask] = np.arange(fetch_idx.size, dtype=np.int64)
            if pair_req.size:
                keep = fetch_mask[pair_req]
                pair_req = new_pos[pair_req[keep]]
                pair_coords_all = pair_coords_all[keep]
            if ndim:
                req_k = req_k[fetch_mask]
                req_keys_cols = req_keys_cols[fetch_mask]
        k = fetch_idx.size
        req_coords = region.coords[fetch_idx]
        pair_coords = pair_coords_all if pair_req.size else None
        pair_key, holder_best = self._holder_keys(
            pair_req, pair_coords, req_coords, k
        )
        lo_f = lo[:, fetch_idx]
        hi_f = hi[:, fetch_idx]
        classes = self._request_classes(req_k, req_keys_cols)
        owner, valid = self._member_owners(
            *self._owners(tensor, lo_f, hi_f), None, req_coords
        )
        have, src_coords = self._select_winners(
            req_coords, owner, valid, holder_best, pair_req, pair_key,
            pair_coords,
        )
        no_src = np.flatnonzero(~have)
        if no_src.size:
            # Members with no single source: the multi-piece path,
            # batched per request-rect class.
            self._emit_multi_piece(
                step, name, region,
                fetch_idx[no_src],
                lo[:, fetch_idx[no_src]],
                hi[:, fetch_idx[no_src]],
                tensor,
            )
        # The static-row index the next phase's replay probes.
        if ndim:
            prev_held = self._prev_held.get(name)
            self._rebuild_fixed(
                memo, mirror, inst_rows,
                None if prev_held is None else prev_held.rows, ndim,
            )
        reg = self._registration(
            region, lo_f, hi_f, fetch_idx, tensor, (name_pos, n_names)
        )
        # Columnar emission for the single-source winners.
        distinct = classes is not None and classes.distinct
        sources = None
        emitted = None
        if no_src.size == 0:
            sources = src_coords
            emitted = self._emit_bulk(
                step, name, region, fetch_idx, lo_f, hi_f, src_coords,
                tensor, distinct=distinct, reg=reg,
            )
        elif no_src.size < k:
            win_pos = np.flatnonzero(have)
            self._emit_bulk(
                step, name, region,
                fetch_idx[win_pos],
                lo_f[:, win_pos],
                hi_f[:, win_pos],
                src_coords[win_pos],
                tensor,
                distinct=distinct,
            )
        self._commit_memo(
            memo, reg, classes, sources, emitted,
            shift=None, seam=0, probed=False,
        )
        return reg

    def _owners(self, tensor, req_lo, req_hi):
        """Owner pattern and validity per request column, via the
        vectorized distribution arithmetic (replica dims are ``-1``)."""
        ndim = tensor.ndim
        return tensor.format.owner_pattern_batch(
            self.machine,
            req_lo if ndim else None,
            req_hi if ndim else None,
            tensor.shape,
            count=req_lo.shape[1],
        )

    def _member_owners(self, pat, valid, labels, req_coords):
        """Per-member owner coordinate columns and validity, from one
        owner pattern per class (``labels``; ``None``: per member).
        Replica dims concretize to the requester's coordinates."""
        shape_vec = self._mt.shape
        replicas = bool((pat < 0).any())
        if labels is not None:
            pat = np.take(pat, labels, axis=1)
            valid = np.take(valid, labels)
        owner = list(pat)
        if replicas:
            for d in range(shape_vec.size):
                owner[d] = np.where(
                    owner[d] >= 0, owner[d], req_coords[:, d] % shape_vec[d]
                )
        return owner, valid

    def _select_winners(self, req_coords, owner, valid, holder_best,
                        pair_req, pair_key, pair_coords):
        """Winner selection between the holders and the owner (shared by
        the full and replay paths): the scalar rule ``min((torus
        distance, holder-before-owner, coords))``. Returns ``(have,
        src_coords)``."""
        mt = self._mt
        shape_vec = mt.shape
        k = req_coords.shape[0]
        if pair_req is None or not pair_req.size:
            # No holder anywhere: the owner wins wherever there is one.
            return valid, np.stack(
                [np.where(valid, col, 0) for col in owner], axis=1
            )
        big = np.iinfo(np.int64).max
        odist = np.zeros(k, dtype=np.int64)
        olin = np.zeros(k, dtype=np.int64)
        for d in range(shape_vec.size):
            delta = np.abs(owner[d] - req_coords[:, d])
            odist += np.minimum(delta, shape_vec[d] - delta)
            olin += owner[d] * mt.strides[d]
        okey = np.where(valid, (odist * 2 + 1) * mt.size + olin, big)
        best = np.minimum(holder_best, okey)
        owner_win = valid & (okey == best)
        win = np.flatnonzero(pair_key == np.take(best, pair_req))
        win_req = np.take(pair_req, win)
        src = []
        for d in range(shape_vec.size):
            col = np.where(owner_win, owner[d], 0)
            col[win_req] = np.take(pair_coords[:, d], win)
            src.append(col)
        return best < big, np.stack(src, axis=1)

    def _holder_keys(self, pair_req, pair_coords, req_coords, k,
                     single=False):
        """Holder selection keys and the per-request best key.

        Key: (distance, holder-before-owner, coords) — exactly the
        scalar `_sources_from` ordering. ``pair_req`` is non-decreasing
        by construction, so the per-request minimum is a segment
        reduction (much faster than ``np.minimum.at``), or a plain
        scatter when each request has one pair (``single``).
        """
        mt = self._mt
        holder_best = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
        if not pair_req.size:
            return None, holder_best
        dist = _torus_dist(
            pair_coords, np.take(req_coords, pair_req, axis=0), mt.shape
        )
        pair_key = dist * 2 * mt.size + _linear(pair_coords, mt.strides)
        if single:
            holder_best[pair_req] = pair_key
        else:
            seg = np.flatnonzero(np.r_[True, pair_req[1:] != pair_req[:-1]])
            holder_best[pair_req[seg]] = np.minimum.reduceat(pair_key, seg)
        return pair_key, holder_best

    def _rebuild_fixed(self, memo, mirror, inst_rows, prev_held, ndim):
        """(Re)build the static-instance index: live rows outside the
        previous phase's held set — probed by every replay."""
        if prev_held is not None and prev_held.size:
            fixed = inst_rows[~np.isin(inst_rows, prev_held)]
        else:
            fixed = inst_rows
        if fixed.size:
            cols = np.empty((fixed.size, 2 * ndim), dtype=np.int64)
            cols[:, :ndim] = mirror.lo[fixed]
            cols[:, ndim:] = mirror.hi[fixed]
            h = _hash_rows(cols)
            horder = np.argsort(h, kind="stable")
            memo.fixed_hash = h[horder]
            memo.fixed_cols = cols[horder]
        else:
            memo.fixed_hash = np.zeros(0, dtype=np.int64)
            memo.fixed_cols = np.zeros((0, 2 * ndim), dtype=np.int64)

    @staticmethod
    def _request_classes(req_k, req_cols) -> Optional["_Classes"]:
        """The fetching members' request classes (distinct rectangles),
        from their row hashes and endpoint columns; ``None`` for 0-dim
        tensors, or when two distinct rectangles share a hash."""
        if req_k is None:
            return None
        order = np.argsort(req_k, kind="stable")
        sh = req_k[order]
        cols = req_cols[order]
        new = np.r_[True, sh[1:] != sh[:-1]]
        dup = ~new[1:]
        if dup.any() and not np.array_equal(cols[1:][dup], cols[:-1][dup]):
            return None
        starts = np.flatnonzero(new)
        labels = np.empty(sh.size, dtype=np.int64)
        labels[order] = np.cumsum(new) - 1
        # Classes come in hash order: the sorted index is the identity.
        cls_hash = sh[starts]
        return _Classes(
            labels, cols[starts], np.diff(np.r_[starts, sh.size]),
            cls_hash, (cls_hash, np.arange(starts.size, dtype=np.int64)),
        )

    def _registration(self, region, lo_f, hi_f, fetch_idx, tensor, site,
                      prev: Optional[_Registration] = None, seam=None):
        """A phase's registration batch (every fetching member, pieces
        included).

        A replay passes the previous phase's registration ``prev`` and
        its ``seam`` (members the map does not carry). Equal members at
        the same fetch site keep ``prev``'s processors and memories. A
        carried member's rectangle is its preimage's translated, so it
        keeps the preimage's payload: with a uniform ``prev``, only
        seam members' payloads are computed, and with equal members
        too the per-memory charges are ``prev``'s.
        """
        k = fetch_idx.size
        same = (
            prev is not None and prev.site == site and prev.idx.size == k
            and bool((prev.idx == fetch_idx).all())
        )
        uniform = None
        if prev is not None and prev.uniform is not None:
            uniform = prev.uniform
            if seam is not None and seam.size:
                vol = np.full(seam.size, tensor.itemsize, dtype=np.int64)
                for d in range(tensor.ndim):
                    vol *= np.take(hi_f[d], seam) - np.take(lo_f[d], seam)
                if not bool((vol == uniform).all()):
                    uniform = None
        if uniform is None:
            nbytes = np.full(k, tensor.itemsize, dtype=np.int64)
            for d in range(tensor.ndim):
                nbytes *= hi_f[d] - lo_f[d]
            # Carried members keep their preimages' unequal payloads, so
            # a replay of unequal ones does not look for one payload.
            if k and (prev is None or prev.uniform is not None) and bool(
                (nbytes == nbytes[0]).all()
            ):
                uniform = int(nbytes[0])
        else:
            nbytes = np.full(k, uniform, dtype=np.int64)
        if same:
            proc, mem = prev.proc, prev.mem
        else:
            mt = self._mt
            proc = fetch_idx if mt.points_are_procs and region.is_grid(
                mt
            ) else np.take(region.proc, fetch_idx)
            mem = np.take(mt.tensor_mem_of_proc(tensor), proc)
        charges = None
        if same and uniform is not None and uniform == prev.uniform:
            charges = prev.charges(self.env.n_mem)
        return _Registration(
            fetch_idx, lo_f, hi_f, proc, mem, nbytes, uniform, site,
            region.coords, charges,
        )

    @staticmethod
    def _commit_memo(memo, reg, classes, sources, emitted, shift, seam,
                     probed, same_fetch=False):
        """Remember what the next phase's conjugate replay carries: the
        fetchers (their position table while they stay the same,
        ``same_fetch``), request classes, sources (when every fetcher
        has one: coordinates, or linear index and torus distance), the
        emission, the map (and whether it was the older of the last
        two) and whether the classes were probed against the static
        rows. The caller pins ``memo.version`` after the commit."""
        memo.ready = classes is not None and memo.fixed_hash is not None
        memo.version = -1
        memo.reg = reg
        memo.fetch_idx = reg.idx
        if not same_fetch:
            memo.prev_row = None
        memo.classes = classes
        memo.sources = sources
        memo.emit = emitted
        recent = memo.shifts
        memo.alternating = shift is not None and len(recent) > 1 and (
            np.array_equal(recent[1], shift)
        )
        memo.shifts = [] if shift is None else [shift] + [
            s for s in recent[:1] if not np.array_equal(s, shift)
        ]
        memo.seam = seam
        memo.probed = probed

    def _prev_row(self, memo, region):
        """Each member's position among the previous phase's fetchers
        (-1: it did not fetch); the extra last slot answers -1 for grid
        points outside the region. Carried in the memo: a phase whose
        fetchers are its predecessor's has the same table."""
        table = memo.prev_row
        if table is None:
            table = np.full(region.n + 1, -1, dtype=np.int64)
            table[memo.fetch_idx] = np.arange(
                memo.fetch_idx.size, dtype=np.int64
            )
            memo.prev_row = table
        return table

    def _conjugate_map(self, memo, region, lo_f, hi_f, prev_lo, prev_hi,
                       rem_idx):
        """The map under which this phase is the previous one's image.

        A fetching member ``m`` is *carried* by a torus shift ``s`` and a
        translation ``d`` when the member at ``coords(m) + s`` fetched
        last phase and requested exactly ``request(m) - d``; the rest
        form the seam. The last two maps are tried first — the older one
        first when the last replay took it (SUMMA's roots move every
        other phase, so its maps alternate) — and one is kept while its
        seam does not grow; otherwise zero and the unit shifts are
        screened by how many members' preimages did not fetch, and the
        smallest seam wins, preferring ``d = 0`` (whose request classes
        carry their holders). Returns ``(s, d, preimage rows, carried,
        preimages)`` — ``preimage rows`` is each member's preimage's
        previous fetch position, ``preimages`` the preimage members — or
        ``None`` when every map leaves over half of the members
        unexplained.
        """
        mt = self._mt
        k = rem_idx.size
        prev_row = self._prev_row(memo, region)
        whole = k == region.n

        def preimage(s):
            perm = region.perm_for_shift(s, mt)
            if perm is None:
                return None
            src = perm if whole else np.take(perm, rem_idx)
            return src, np.take(prev_row, src)

        best = None
        tried = []
        recent = memo.shifts[::-1] if memo.alternating else memo.shifts
        for i, s in enumerate(recent):
            # The second map is skipped when its preimages lose more
            # members than the last seam.
            got = preimage(s)
            if got is None or (
                i and np.count_nonzero(got[1] < 0) > memo.seam
            ):
                continue
            tried.append(s)
            got = self._map_carry(s, *got, lo_f, hi_f, prev_lo, prev_hi)
            if got[0][1] <= memo.seam:
                return got[1]
            if best is None or got[0] < best[0]:
                best = got
        eye = np.eye(mt.shape.size, dtype=np.int64)
        screened = []
        for s in np.vstack([0 * eye[:1], eye, (-eye) % mt.shape]):
            if any(np.array_equal(s, t) for t in tried):
                continue
            got = preimage(s)
            if got is not None:
                lost = int(np.count_nonzero(got[1] < 0))
                screened.append((lost, len(screened), s, got))
        screened.sort(key=lambda c: c[:2])
        for lost, _, s, got in screened:
            if lost * 2 > k or (best is not None and (False, lost) >= best[0]):
                break
            got = self._map_carry(s, *got, lo_f, hi_f, prev_lo, prev_hi)
            if best is None or got[0] < best[0]:
                best = got
            if best[0][1] == 0:
                break
        if best is None or best[0][1] * 2 > k:
            return None
        return best[1]

    @staticmethod
    def _map_carry(s, src, pr, lo_f, hi_f, prev_lo, prev_hi):
        """Verify the map ``s`` (preimage members ``src``, their previous
        fetch positions ``pr``): the members it carries, the translation
        ``d`` read off the first preimage that fetched, and the map's
        rank ``(d != 0, seam size)``."""
        k = pr.size
        ok = pr >= 0
        ref = int(np.argmax(ok))
        delta = lo_f[:, ref] - prev_lo[:, src[ref]]
        for d in range(lo_f.shape[0]):
            for cur, old in ((lo_f[d], prev_lo[d]), (hi_f[d], prev_hi[d])):
                moved = np.take(old, src)
                if delta[d]:
                    moved += delta[d]
                ok &= cur == moved
        rank = (bool(delta.any()), k - int(np.count_nonzero(ok)))
        return rank, (s, delta, pr, ok, src)

    def _replay_conjugate(self, memo, name, name_pos, n_names, region,
                          step, lo, hi, prev_lo, prev_hi, tensor, rem_idx,
                          local):
        """Resolve a phase as the conjugate image of the previous one.

        Systolic loops repeat one phase up to a torus shift ``s`` of the
        members (and their sources) and a uniform translation ``d`` of
        the request rectangles: Cannon's rotations (``d = 0``), SUMMA's
        moving broadcast roots (``s, d != 0``), plain translations
        (``s = 0``). :meth:`_conjugate_map` finds the map ``m -> m + s``;
        members it does not explain form a small seam (Cannon's wrap
        column on grids narrower than its tile count). ``local`` marks
        the members that fetch nothing.

        What the map proves is carried, not re-derived:

        * the previous fetch positions (``prev_row``), kept while the
          fetching members stay the same (:meth:`_prev_row`);
        * the request classes (distinct rectangles) with their row
          hashes, sorted hash index and member counts, the counts moved
          by the seam's delta (:meth:`_carry_classes`); when ``d = 0``,
          each class's owner (linear index and validity) and its
          holders: the mirror provably holds exactly the previous
          phase's registrations plus static rows (version chain), so a
          class's holders are the previous fetchers of its rectangle;
        * each carried member's source, guessed as ``src(m + s) - s``
          and kept when the guess is provably the winner
          (:meth:`_carried_sources`);
        * the emission's orbit-class keys (shape and source offset are
          shift invariant) and, when every member carries, the chunk's
          rows as a permutation of the previous chunk's, which lets the
          emission carry its row filter and inter-node flags and the
          step finalize its collective groups;
        * the registration's payloads, processors, memories and memory
          charges, where the map proves them equal (:meth:`_registration`).

        The replay is thus a delta against the previous phase: the map
        (``pr``, ``s``, ``d``) and the rows it does not prove, counted
        in ``phase_deltas``.

        Every other member — the seam, classes with several holders,
        guesses that fail a check — goes through the derivation
        (:meth:`_derive_sources`), the same rules as the full path.
        Anything unproven there — a static-row match, a holder at the
        requester, a multi-piece request, a hash collision — returns
        ``None`` and the caller resolves in full.
        """
        k = rem_idx.size
        whole = k == region.n
        if whole:
            lo_f, hi_f = lo, hi
        else:
            lo_f = np.take(lo, rem_idx, axis=1)
            hi_f = np.take(hi, rem_idx, axis=1)
        found = self._conjugate_map(
            memo, region, lo_f, hi_f, prev_lo, prev_hi, rem_idx
        )
        if found is None:
            return None
        shift, delta, pr, carried, src = found
        seam = np.flatnonzero(~carried)
        prev = memo.classes
        moved = bool(delta.any())
        same_fetch = k == memo.fetch_idx.size and (
            whole or np.array_equal(rem_idx, memo.fetch_idx)
        )
        lost = self._lost_rows(memo, region, shift, pr, seam, local)
        got = self._carry_classes(
            memo, tensor, lo_f, hi_f, pr, seam, delta, lost
        )
        if got is None:
            return None
        classes, held = got
        held = self._holder_map(prev, classes, moved, held)
        sources = self._prev_sources(memo, region)
        redo = None  # every member
        if sources is not None:
            src_lin, sdist, redo = self._carried_sources(
                memo, sources, region, shift, pr, carried, src, classes,
                held, moved, rem_idx,
            )
            if redo.size == k:
                redo = None
        emit = memo.emit
        key_hi = None
        key_uniform = False
        src_coords = None
        if redo is None:
            src_coords, _ = self._derive_sources(
                memo, region, classes, held, None, rem_idx
            )
            if src_coords is None:
                return None
            n_redo = k
            src_lin = _linear(src_coords, self._mt.strides)
        else:
            n_redo = redo.size
            if n_redo:
                src_re, req_re = self._derive_sources(
                    memo, region, classes, held, redo, rem_idx
                )
                if src_re is None:
                    return None
                src_lin[redo] = _linear(src_re, self._mt.strides)
                sdist[redo] = _torus_dist(src_re, req_re, self._mt.shape)
            if emit is not None and emit.key_hi is not None:
                # Shape and source offset are shift invariant: carried
                # members keep their preimage's class key (one key for
                # all when the preimages had one).
                if n_redo == 0 and emit.key_uniform:
                    # ``pr`` is injective, so the preimages are at least
                    # ``k``.
                    key_hi = emit.key_hi[:k]
                    key_uniform = True
                else:
                    key_hi = np.take(emit.key_hi, pr)
                if n_redo:
                    key_hi[redo] = _pack_key(*self._class_cols(
                        tensor, lo_f[:, redo], hi_f[:, redo], src_re,
                        req_re,
                    ))
        carry = None
        if n_redo == 0 and emit is not None and (
            k == memo.fetch_idx.size
        ):
            same = same_fetch and not shift.any()
            # Rows move rigidly only when every grid point has its own
            # processor (the row filter and group roots then move too).
            if same or self._mt.bijective:
                carry = (emit, pr, same, shift)
        reg = self._registration(
            region, lo_f, hi_f, rem_idx, tensor, (name_pos, n_names),
            prev=memo.reg, seam=seam,
        )
        emitted = self._emit_bulk(
            step, name, region, rem_idx, lo_f, hi_f, src_coords, tensor,
            distinct=classes.distinct, other_lin=src_lin, reg=reg,
            key_hi=key_hi, key_uniform=key_uniform, carry=carry,
        )
        self.phase_replays += 1
        self.members_carried += k - n_redo
        self.members_rederived += n_redo
        if n_redo < k:
            self.phase_deltas += 1
        if seam.size:
            self.phase_seam += 1
        else:
            self.phase_conjugate += 1
        self._commit_memo(
            memo, reg, classes,
            src_coords if redo is None else (src_lin, sdist),
            emitted, shift, seam.size, probed=True, same_fetch=same_fetch,
        )
        return reg

    def _lost_rows(self, memo, region, shift, pr, seam, local):
        """The previous fetch positions no carried member maps to: the
        seam's preimages, and the preimages of the members that fetch
        nothing now (``local``). The map composes a bijection of the
        region with :meth:`_prev_row`, so each other previous fetcher is
        exactly one carried member's preimage."""
        n_lost = memo.fetch_idx.size - (pr.size - seam.size)
        if n_lost == 0:
            return np.zeros(0, dtype=np.int64)
        at = np.take(pr, seam)
        at = at[at >= 0]
        if at.size < n_lost:
            perm = region.perm_for_shift(shift, self._mt)
            out = np.take(
                self._prev_row(memo, region),
                np.take(perm, np.flatnonzero(local)),
            )
            at = np.concatenate([at, out[out >= 0]])
        return at

    def _class_counts(self, prev, labels, n_classes, seam, lost):
        """Fetching members per class, by the seam's delta: the previous
        counts, less one per previous fetcher no carried member maps to
        (``lost``), plus one per seam member. Exact: a carried member's
        class is its preimage's."""
        if not seam.size and not lost.size:
            return prev.counts
        counts = np.zeros(n_classes, dtype=np.int64)
        counts[:prev.counts.size] = prev.counts
        np.subtract.at(counts, np.take(prev.labels, lost), 1)
        np.add.at(counts, np.take(labels, seam), 1)
        return counts

    def _class_owners(self, tensor, cols):
        """Owner pattern, validity and owner linear index (``None`` when
        the pattern has replica dimensions, whose owner coordinate is
        the requester's) of class rectangles."""
        ndim = tensor.ndim
        pat, valid = self._owners(tensor, cols[:, :ndim].T, cols[:, ndim:].T)
        own_lin = None
        if not bool((pat < 0).any()):
            own_lin = _linear(pat.T, self._mt.strides)
        return pat, valid, own_lin

    @staticmethod
    def _carried_owners(prev):
        """The previous classes' owners, which ``d = 0`` carries: the
        class rectangles do not move."""
        if prev.pat is None:
            return None
        return prev.pat, prev.valid, prev.own_lin

    def _carry_classes(self, memo, tensor, lo_f, hi_f, pr, seam, delta,
                       lost):
        """This phase's request classes, carried from the previous
        phase's: members the map carries inherit their preimage's class,
        seam members join a class by rectangle or found new ones. Row
        hashes move with one add (``_hash_rows`` is linear mod 2**64);
        member counts move by the seam's delta (:meth:`_class_counts`);
        when ``d = 0`` the sorted hash index, the owners and the static-
        row verdict carry too. Returns ``(classes, held)`` — ``held``
        maps each class to the previous class with its rectangle (-1 for
        new ones; ``None``: the identity on the previous classes;
        meaningful when ``d = 0``) — or ``None`` on a hash collision or
        a static-row match."""
        prev = memo.classes
        moved = bool(delta.any())
        labels = np.take(prev.labels, pr)
        cols, cls_hash, index = prev.cols, prev.hash, prev.index
        owners = None
        if moved:
            dd = np.concatenate([delta, delta])
            cols = cols + dd
            cls_hash = cls_hash + _hash_rows(dd[None, :])
            index = None
        else:
            owners = self._carried_owners(prev)
        n_prev = cols.shape[0]
        n_fresh = 0
        if seam.size:
            seam_cols = np.concatenate(
                [lo_f[:, seam].T, hi_f[:, seam].T], axis=1
            )
            seam_hash = _hash_rows(seam_cols)
            if index is None:
                order = np.argsort(cls_hash, kind="stable")
                index = (cls_hash[order], order)
            sorted_hash, order = index
            at, pos = _probe_index(
                sorted_hash, seam_hash, cols, seam_cols, order
            )
            hit = np.full(seam.size, -1, dtype=np.int64)
            hit[at] = np.take(order, pos)
            labels[seam] = hit
            fresh = hit < 0
            if fresh.any():
                fcols = seam_cols[fresh]
                fhash, first, inv = np.unique(
                    seam_hash[fresh], return_index=True, return_inverse=True
                )
                if not np.array_equal(fcols[first][inv], fcols):
                    return None
                n_fresh = first.size
                labels[seam[fresh]] = n_prev + inv
                cols = np.concatenate([cols, fcols[first]])
                cls_hash = np.concatenate([cls_hash, fhash])
                slot = np.searchsorted(sorted_hash, fhash)
                index = (
                    np.insert(sorted_hash, slot, fhash),
                    np.insert(order, slot, np.arange(
                        n_prev, n_prev + n_fresh, dtype=np.int64
                    )),
                )
                if owners is not None:
                    owners = _concat_owners(
                        owners, self._class_owners(tensor, fcols[first])
                    )
        counts = self._class_counts(prev, labels, cols.shape[0], seam, lost)
        held = None
        if counts is not prev.counts and (
            8 * (counts.size - np.count_nonzero(counts)) > counts.size
        ):
            # Classes nobody requests stay (a later seam member may
            # request their rectangle again) while they are few: the
            # compaction below renumbers every class.
            used = counts > 0
            remap = np.cumsum(used) - 1
            labels = np.take(remap, labels)
            cols = cols[used]
            cls_hash = cls_hash[used]
            counts = counts[used]
            ids = np.flatnonzero(used)
            held = np.where(ids < n_prev, ids, -1)
            if index is not None:
                live = np.take(used, index[1])
                index = (index[0][live], np.take(remap, index[1][live]))
            if owners is not None:
                owners = tuple(
                    None if a is None else np.compress(used, a, axis=-1)
                    for a in owners
                )
        if memo.fixed_hash.size and (moved or not memo.probed or n_fresh):
            # Static rows: a class matching one is not carried. Classes
            # whose rectangles were probed last phase need no probe.
            if moved or not memo.probed:
                probe = slice(None)
            elif held is None:
                probe = slice(n_prev, None)
            else:
                probe = np.flatnonzero(held < 0)
            fix_req, _ = _probe_index(
                memo.fixed_hash, cls_hash[probe], memo.fixed_cols,
                cols[probe],
            )
            if fix_req.size:
                return None
        if owners is None:
            # Owners per class: a moved class has a new rectangle, and a
            # full resolve derived them per member.
            owners = (
                self._translated_owners(memo, tensor, cols, delta) if moved
                else self._class_owners(tensor, cols)
            )
        return _Classes(
            labels, cols, counts, cls_hash, index, *owners
        ), held

    #: Phases of translated class owners derived at once.
    OWNERS_AHEAD = 8

    def _translated_owners(self, memo, tensor, cols, delta):
        """The owners of classes translated by ``d``. A steady
        translation (SUMMA's panels move one step per phase) moves the
        table by ``d`` again next phase, so the owners of the next
        :attr:`OWNERS_AHEAD` phases' tables are derived in one call and
        served while the class table equals its prediction exactly (an
        owner is a function of its rectangle alone)."""
        c = cols.shape[0]
        ahead = memo.owners_ahead
        if ahead is not None:
            table, owners, at = ahead
            if at < table.shape[0] and table.shape[1] == c and (
                np.array_equal(table[at], cols)
            ):
                memo.owners_ahead = (table, owners, at + 1)
                part = slice(at * c, (at + 1) * c)
                return (
                    owners[0][:, part], owners[1][part],
                    None if owners[2] is None else owners[2][part],
                )
        steps = np.arange(self.OWNERS_AHEAD, dtype=np.int64)
        table = cols[None] + steps[:, None, None] * np.concatenate(
            [delta, delta]
        )
        owners = self._class_owners(tensor, table.reshape(-1, cols.shape[1]))
        memo.owners_ahead = (table, owners, 1)
        return owners[0][:, :c], owners[1][:c], (
            None if owners[2] is None else owners[2][:c]
        )

    @staticmethod
    def _holder_map(prev, classes, moved, held):
        """Each class's previous class with its rectangle: the carry's
        map when ``d = 0`` (the class rectangles did not move), else
        matched by rectangle, probing the previous classes' row hashes
        (both tables carry theirs)."""
        if not moved:
            return held
        if prev.index is None:
            order = np.argsort(prev.hash, kind="stable")
            prev.index = (prev.hash[order], order)
        sorted_hash, order = prev.index
        at, pos = _probe_index(
            sorted_hash, classes.hash, prev.cols, classes.cols, order
        )
        out = np.full(classes.cols.shape[0], -1, dtype=np.int64)
        out[at] = np.take(order, pos)
        return out

    @staticmethod
    def _holders(prev, held, cls):
        """For classes ``cls``: the previous class with their rectangle
        when it had fetchers (else -1) and its fetcher count — the
        class's holders. ``held`` maps classes to previous ones
        (``None``: the identity on the previous classes)."""
        if held is None:
            hc = np.where(cls < prev.counts.size, cls, -1)
        else:
            hc = np.take(held, cls)
        n_held = np.where(hc >= 0, np.take(prev.counts, hc), 0)
        return np.where(n_held > 0, hc, -1), n_held

    def _point_shift(self, shift: np.ndarray) -> np.ndarray:
        """Linear index of ``coords - shift`` (torus) per grid point,
        cached for the run (the tables outlive it, with their machine).
        """
        key = tuple(int(s) for s in shift)
        out = self._shifts.get(key)
        if out is None:
            mt = self._mt
            out = ((mt.point_coords - shift) % mt.shape) @ mt.strides
            self._shifts[key] = out
        return out

    def _prev_sources(self, memo, region):
        """Each previous fetcher's source as ``(linear index, torus
        distance)``, or ``None`` when a fetcher had none; a full resolve
        leaves source coordinates, converted on first use."""
        sources = memo.sources
        if isinstance(sources, np.ndarray):
            mt = self._mt
            sources = memo.sources = (
                _linear(sources, mt.strides),
                _torus_dist(
                    sources, region.coords[memo.fetch_idx], mt.shape
                ),
            )
        return sources

    def _member_owner_lin(self, classes, region, req_idx):
        """Each member's owner as a linear index, and its validity: the
        class's, gathered, or with replica dimensions concretized at the
        requester."""
        labels = classes.labels
        valid = np.take(classes.valid, labels)
        if classes.own_lin is not None:
            return np.take(classes.own_lin, labels), valid
        owner, _ = self._member_owners(
            classes.pat, classes.valid, labels,
            np.take(region.coords, req_idx, axis=0),
        )
        return _linear(np.stack(owner, axis=1), self._mt.strides), valid

    def _carried_sources(self, memo, sources, region, shift, pr, carried,
                         src, classes, held, moved, req_idx):
        """The map's guess for each member's source, ``src(m + s) - s``,
        and which guesses are proven winners.

        A carried member's class has holders: the previous fetchers of
        its rectangle. With none, the owner wins, so the guess stands
        when it is the (valid) owner. With one, the guess stands when
        that holder is the guess — the member at the guess fetched this
        class's rectangle last phase — at a nonzero distance the owner
        does not undercut (a holder wins distance ties). When ``d = 0``
        and the previous classes had one fetcher each, a carried
        member's one holder is its own preimage (``src``), so the check
        is that the guess is the preimage's grid point. Torus distance
        is shift invariant, so the guess's distance is its preimage's.
        An owner away from the requester is at least one step off, so
        only guesses farther than one step are measured against it.
        Returns ``(src_lin, sdist, redo)`` with ``redo`` the members
        whose guess is unproven.
        """
        mt = self._mt
        prev = memo.classes
        labels = classes.labels
        guess = np.take(self._point_shift(shift), np.take(sources[0], pr))
        sdist = np.take(sources[1], pr)
        own_lin, valid = self._member_owner_lin(classes, region, req_idx)
        # Members as grid points (the identity when the region is the
        # grid in row-major order).
        grid = region.is_grid(mt)
        linear = region.linear(mt)

        def points(members):
            return members if grid else np.take(linear, members)

        def at_req():
            # The owner is the requester itself.
            return valid & (own_lin == points(req_idx))

        if not moved and prev.distinct:
            held_ok = carried & (guess == points(src))
            held_ok &= sdist > 0
            held_ok &= ~at_req()
            proven = held_ok
        else:
            hc, n_held = self._holders(
                prev, held, np.arange(classes.counts.size)
            )
            proven = carried & valid & (own_lin == guess)
            held_ok = None
            if n_held.any():
                holders = np.take(n_held, labels)
                at = np.take(
                    self._prev_row(memo, region),
                    guess if grid else np.take(region.member_of(mt), guess),
                )
                held_ok = (
                    carried
                    & (holders == 1)
                    & (at >= 0)
                    & (np.take(prev.labels, at) == np.take(hc, labels))
                    & (sdist > 0)
                    & ~at_req()
                )
                proven &= holders == 0
        if held_ok is not None:
            if int(sdist.max()) > 1:
                far = np.flatnonzero(held_ok & valid & (sdist > 1))
                owner, _ = self._member_owners(
                    classes.pat, classes.valid, np.take(labels, far),
                    np.take(region.coords, np.take(req_idx, far), axis=0),
                )
                odist = _torus_dist(
                    np.stack(owner, axis=1),
                    np.take(region.coords, np.take(req_idx, far), axis=0),
                    mt.shape,
                )
                held_ok[far[np.take(sdist, far) > odist]] = False
            if held_ok is not proven:
                proven |= held_ok
        return guess, sdist, np.flatnonzero(~proven)

    def _derive_sources(self, memo, region, classes, held, redo, req_idx):
        """Resolve the sources of members ``redo`` (``None``: all) by
        the full rules: holder pairs from the previous fetchers of each
        class's rectangle, then winner selection against the owner. Returns
        ``(src_coords, req_coords)`` of those members, or ``(None,
        None)`` when one has no single source or holds its own request.
        """
        prev = memo.classes
        labels = classes.labels
        if redo is not None:
            labels = np.take(labels, redo)
            req_idx = np.take(req_idx, redo)
        req_re = np.take(region.coords, req_idx, axis=0)
        owner, valid = self._member_owners(
            classes.pat, classes.valid, labels, req_re
        )
        hc, _ = self._holders(prev, held, labels)
        rows = np.flatnonzero(hc >= 0)
        pair_req = np.zeros(0, dtype=np.int64)
        pair_coords = None
        if rows.size:
            hc = np.take(hc, rows)
            if prev.distinct:
                row_of = np.empty(prev.counts.size, dtype=np.int64)
                row_of[prev.labels] = np.arange(
                    prev.labels.size, dtype=np.int64
                )
                pair_req, pair_prev = rows, np.take(row_of, hc)
            else:
                cnt = prev.counts[hc]
                order = np.argsort(prev.labels, kind="stable")
                starts = np.cumsum(prev.counts) - prev.counts
                pair_req = np.repeat(rows, cnt)
                rank = np.arange(pair_req.size, dtype=np.int64) - np.repeat(
                    np.cumsum(cnt) - cnt, cnt
                )
                pair_prev = order[np.repeat(starts[hc], cnt) + rank]
            pair_coords = np.take(
                region.coords, np.take(memo.fetch_idx, pair_prev), axis=0
            )
        pair_key, holder_best = self._holder_keys(
            pair_req, pair_coords, req_re, labels.size, single=prev.distinct
        )
        # A holder at distance zero is the requester itself.
        if pair_req.size and bool((pair_key < self._mt.size).any()):
            return None, None
        have, src = self._select_winners(
            req_re, owner, valid, holder_best, pair_req, pair_key,
            pair_coords,
        )
        if not have.all():
            return None, None
        return src, req_re

    def _class_cols(self, tensor, lo, hi, src_coords, dst_coords):
        """The orbit-class key columns without the inter-node bit —
        rectangle shape and source offset — and their spans."""
        mt = self._mt
        cols = [hi[d] - lo[d] for d in range(lo.shape[0])]
        for d in range(mt.shape.size):
            off = src_coords[:, d] - dst_coords[:, d]
            cols.append(np.where(off < 0, off + mt.shape[d], off))
        spans = [e + 1 for e in tensor.shape] + [int(e) for e in mt.shape]
        return cols, spans

    def _emit_bulk(self, step: Step, name: str, region: "_Region",
                   member_idx: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   other_coords: Optional[np.ndarray], tensor,
                   reduce: bool = False, distinct: bool = False,
                   other_lin: Optional[np.ndarray] = None,
                   reg: Optional[_Registration] = None,
                   key_hi: Optional[np.ndarray] = None,
                   key_uniform: bool = False, carry=None):
        """Emit one phase-tensor batch: columns plus class representatives
        (``step.copies`` builds those on first read).

        ``member_idx`` names the region contexts on one side of the
        transfer and ``other_coords`` (or their linear indices
        ``other_lin``) the machine points on the other: for fetches
        (``reduce=False``) the members *receive* from the resolved
        sources; for reduction write-backs (``reduce=True``) the members
        *send* their partials to the owners. A fetch passes its
        registration ``reg`` (payloads and member processors); a replay
        also what it already holds: carried class keys ``key_hi`` (all
        equal when ``key_uniform``) and the ``carry`` ``(previous
        emission, member map, same, shift)`` of a chunk whose every row
        is carried.
        """
        mt = self._mt
        if other_lin is None:
            other_lin = _linear(other_coords, mt.strides)
        other_proc = other_lin if mt.points_are_procs else np.take(
            mt.proc_of_point, other_lin
        )
        if reg is None:
            member_proc = np.take(region.proc, member_idx)
            vol = np.ones(member_idx.size, dtype=np.int64)
            for d in range(lo.shape[0]):
                vol *= hi[d] - lo[d]
            nbytes = vol * tensor.itemsize
        else:
            member_proc = reg.proc
            nbytes = reg.nbytes
        # Orbit classes: (shape, source offset, inter/intra) — one
        # representative copy per class, weighted by multiplicity. The
        # payload is a function of the shape, so it needs no column.
        # The key without the inter bit is kept per member for replays.
        cols = member_coords = None
        if key_hi is None:
            if other_coords is None:
                other_coords = np.take(mt.point_coords, other_lin, axis=0)
            member_coords = np.take(region.coords, member_idx, axis=0)
            cols, spans = self._class_cols(
                tensor, lo, hi,
                member_coords if reduce else other_coords,
                other_coords if reduce else member_coords,
            )
            total = 2
            for span in spans:
                total *= int(span)
            if member_idx.size and total < 2 ** 62:
                key_hi = _pack_key(cols, spans)
        member_key = key_hi
        if key_hi is not None and not key_uniform:
            key_uniform = bool((key_hi == key_hi[0]).all())
        member_uniform = key_uniform
        prior = None if carry is None else carry[0]
        if prior is not None and prior.keep is None:
            # Every row is its preimage's moved rigidly: the same
            # payload and, with one processor per grid point (or the
            # same rows), endpoints on one processor exactly when the
            # preimage's were. Every preimage row was kept.
            keep = None
        else:
            # The scalar `_emit_copy` rule: zero-byte copies vanish;
            # same-processor transfers vanish for fetches (over-
            # decomposition) but reduction write-backs are recorded
            # even on one processor.
            if reg is not None and reg.uniform is not None:
                keep = np.full(nbytes.size, reg.uniform > 0)
            else:
                keep = nbytes > 0
            if not reduce:
                keep &= other_proc != member_proc
        keep_mask = None
        if keep is not None and not keep.all():
            if not keep.any():
                return None
            keep_mask = keep
            member_idx = np.compress(keep, member_idx)
            other_lin = np.compress(keep, other_lin)
            other_proc = np.compress(keep, other_proc)
            member_proc = np.compress(keep, member_proc)
            nbytes = np.compress(keep, nbytes)
            lo = np.compress(keep, lo, axis=1)
            hi = np.compress(keep, hi, axis=1)
            if key_hi is not None:
                key_hi = np.compress(keep, key_hi)
            if cols is not None:
                cols = [np.compress(keep, col) for col in cols]
                other_coords = np.compress(keep, other_coords, axis=0)
                member_coords = np.compress(keep, member_coords, axis=0)
        # Endpoint memories as the scalar `_emit_copy` prices them: the
        # instance side (fetch source / reduction destination) is the
        # tensor-preference-aware memory (`source_memory`), the context
        # side is its processor memory (host-resident data fetched by a
        # GPU context lands in its framebuffer's accounting domain).
        tensor_mem = mt.tensor_mem_of_proc(tensor)
        if reduce:
            src_proc, dst_proc = member_proc, other_proc
            src_gpu = gpu_flags(mt.residency(), src_proc)
            dst_gpu = gpu_flags(mt.residency(tensor), dst_proc)
        else:
            src_proc, dst_proc = other_proc, member_proc
            src_gpu = gpu_flags(mt.residency(tensor), src_proc)
            dst_gpu = gpu_flags(mt.residency(), dst_proc)
        builder = self._builder(step)
        k = nbytes.size
        chunk = _Chunk(
            tensor_id=self._tensor_ids[name],
            lo=lo,
            hi=hi,
            nbytes=nbytes,
            src_proc=src_proc,
            dst_proc=dst_proc,
            src_gpu=src_gpu,
            dst_gpu=dst_gpu,
            reduce=reduce,
            distinct=distinct,
        )
        chunk.carry = self._chunk_carry(carry, keep_mask, k)
        chunk_pos = len(builder.chunks)
        builder.chunks.append(chunk)
        rigid = chunk.carry is not None and (
            carry[2] or mt.node_rigid(carry[3])
        )
        if rigid:
            # The rows are the previous chunk's moved by a shift that
            # maps nodes onto nodes: each keeps its inter-node flag.
            row_map = chunk.carry[2]
            inter = prior.inter if row_map is None else np.take(
                prior.inter, row_map
            )
        else:
            inter = np.take(mt.node_of_proc, src_proc) != np.take(
                mt.node_of_proc, dst_proc
            )
        if keep_mask is not None and key_hi is not None and not key_uniform:
            key_uniform = bool((key_hi == key_hi[0]).all())
        fold = None
        if key_uniform:
            # Uniform-shift fast path: one shape, one offset, one
            # payload — a systolic phase — splits only by inter/intra
            # character, so the class fold collapses to a count.
            n_inter = int(np.count_nonzero(inter))
            if n_inter == 0 or n_inter == k:
                first = np.zeros(1, dtype=np.int64)
                counts = np.array([k], dtype=np.int64)
            else:
                # Intra (inter=0) ranks before inter=1, as the fold
                # orders them.
                first = np.array(
                    [int(np.argmax(~inter)), int(np.argmax(inter))],
                    dtype=np.int64,
                )
                counts = np.array([k - n_inter, n_inter], dtype=np.int64)
        elif rigid and prior.fold is not None:
            # Each row keeps its preimage row's key and inter-node flag,
            # so the groups and their counts are the previous fold's,
            # permuted; only each group's first row is found again.
            dense, rank, counts = prior.fold
            if row_map is not None:
                dense = np.take(dense, row_map)
            first = _first_rows(dense, rank, counts.size)
            fold = (dense, rank, counts)
        elif key_hi is not None:
            first, counts, fold = _fold_keys(key_hi * 2 + inter)
            if fold is not None:
                fold += (counts,)
        else:
            spans = [e + 1 for e in tensor.shape] + [int(e) for e in mt.shape]
            first, counts = fold_groups(
                np.column_stack(cols + [inter]),
                [(0, span) for span in spans + [2]],
            )
        if member_coords is None:
            first_other = mt.point_coords[other_lin[first]]
            first_member = region.coords[member_idx[first]]
        else:
            first_other = other_coords[first]
            first_member = member_coords[first]
        if reduce:
            src_coords, dst_coords = first_member, first_other
            src_mem = np.take(mt.procmem_of_proc, src_proc[first])
            dst_mem = np.take(tensor_mem, dst_proc[first])
        else:
            src_coords, dst_coords = first_other, first_member
            src_mem = np.take(tensor_mem, src_proc[first])
            dst_mem = np.take(mt.procmem_of_proc, dst_proc[first])
        step.defer_copies(CopyReps(
            tensor=name,
            lo=lo[:, first].T,
            hi=hi[:, first].T,
            nbytes=nbytes[first],
            count=counts,
            src_proc=src_proc[first],
            dst_proc=dst_proc[first],
            src_mem=src_mem,
            dst_mem=dst_mem,
            src_coords=src_coords,
            dst_coords=dst_coords,
            reduce=reduce,
            processors=self.machine.cluster.processors,
            memories=mt.memories,
        ))
        return _EmitInfo(
            chunk=chunk, pos=chunk_pos, builder=builder, keep=keep_mask,
            key_hi=member_key, key_uniform=member_uniform, inter=inter,
            fold=fold,
        )

    @staticmethod
    def _chunk_carry(carry, keep, rows):
        """A chunk's :attr:`_Chunk.carry` from a replay's ``(previous
        emission, member map, same, shift)``, given the chunk's row
        filter over the members and its row count; ``None`` without
        one."""
        if carry is None:
            return None
        emit, pr, same, _ = carry
        if rows != emit.chunk.nbytes.size:
            return None
        row_map = None
        if not same:
            row_map = pr if emit.keep is None else np.take(
                np.cumsum(emit.keep) - 1, pr
            )
            if keep is not None:
                row_map = np.compress(keep, row_map)
        return emit.builder, emit.pos, row_map, same

    def _emit_multi_piece(self, step: Step, name: str, region: "_Region",
                          members: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray, tensor):
        """Fetches spanning several home pieces, in one emission.

        The scalar interpreter decomposed these per context through
        ``DataEnvironment.resolve``; here every request class splits by
        owner piece at once (:meth:`_owner_rows`) and the phase-tensor
        emits as one batch.
        """
        self.multi_piece_batches += 1
        _, row, pos, owner, p_lo, p_hi = self._owner_rows(
            name, tensor, region.coords[members], lo, hi
        )
        self._emit_bulk(
            step, name, region, members[pos], p_lo[:, row], p_hi[:, row],
            owner, tensor,
        )

    def _owner_rows(self, name: str, tensor, coords: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray):
        """Split requests by owner piece, batched by request class.

        ``coords`` holds the requesting members' machine coordinates and
        ``lo``/``hi`` their ``(ndim, k)`` request endpoints. The distinct
        rectangles (classes) decompose in one ``owner_pieces_batch``
        call; a rectangle one home piece covers comes back whole.
        Returns ``(cls, row, pos, owner, piece_lo, piece_hi)``: per
        (class, piece) column its class and piece endpoints, and per
        (piece, member) pair its column ``row``, member position ``pos``
        and owner coordinates — replica dimensions concretize to the
        member's own coordinates, exactly like ``_concretize``. Pairs
        run by class, then piece, then ascending member. A class with
        no piece raises, as ``DataEnvironment._owner_pieces`` does.
        """
        if lo.shape[0]:
            keys = fold_rows(np.column_stack([lo.T, hi.T]))
        else:
            keys = np.zeros(lo.shape[1], dtype=np.int64)
        _, first, inv = np.unique(
            keys, return_index=True, return_inverse=True
        )
        c_lo, c_hi = lo[:, first], hi[:, first]
        cls, pat, p_lo, p_hi = tensor.format.owner_pieces_batch(
            self.machine, c_lo, c_hi, tensor.shape
        )
        covered = np.zeros(first.size, dtype=bool)
        covered[cls] = True
        if not covered.all():
            c = int(np.argmin(covered))
            rect = Rect.from_bounds(c_lo[:, c].tolist(), c_hi[:, c].tolist())
            raise LoweringError(
                f"no valid instance found for {name} rect {rect}"
            )
        row, pos = _fan_out(cls, inv, first.size)
        pat_r = pat[:, row].T
        owner = np.where(pat_r >= 0, pat_r, coords[pos] % self._mt.shape)
        return cls, row, pos, owner, p_lo, p_hi

    def _orbit_flush(self, names: List[str], region: "_Region", step: Step,
                     events: "_EventStream"):
        """Vectorized reduction flush for every context of a region.

        Replays the scalar ``_flush`` loop nest (contexts outer, flush
        names inner) exactly: each pending partial's bytes are released
        at its context, a transient reduction instance is staged at its
        owner (``stage_reduction``'s add-then-release, which can raise
        the high-water mark and OOM), and one reduce copy per (partial,
        owner piece) is recorded — columnar, compressed to one
        representative per symmetry class. Owner pieces are derived
        once per distinct rectangle; per-member owners are column
        arithmetic. Memory events land on ``events`` keyed in the
        scalar commit order; the caller applies them (the leaf path
        weaves register/partial/release events into the same stream).
        """
        mt = self._mt
        with span("orbit.flush"):
            for f_pos, name in enumerate(names):
                self._flush_tensor(f_pos, name, region, step, events, mt)

    def _flush_tensor(self, f_pos, name, region, step, events, mt):
        member, lo, hi = self.env.take_partials(name, region.coords)
        if member.size == 0:
            return
        self.flush_batches += 1
        tensor = self.plan.tensors[name]
        nbytes = np.prod(hi - lo, axis=0) * tensor.itemsize
        mem_of_proc = mt.tensor_mem_of_proc(tensor)
        seq = _rank_within(member)
        # flush_partials: release the pending bytes, rect order.
        events.add(
            mem_of_proc[region.proc[member]], -nbytes, member,
            _EventStream.FLUSH, f_pos * 2, seq,
        )
        coords = region.coords[member]
        cls, row, pos, owner, p_lo, p_hi = self._owner_rows(
            name, tensor, coords, lo, hi
        )
        # Each piece's rank within its class (``cls`` is sorted).
        p_seq = np.arange(cls.size) - np.searchsorted(cls, cls)
        act = np.flatnonzero(np.any(owner != coords[pos], axis=1))
        if act.size == 0:
            return
        row, pos, owner = row[act], pos[act], owner[act]
        sender = member[pos]
        pbytes = (np.prod(p_hi - p_lo, axis=0) * tensor.itemsize)[row]
        owner_mem = mem_of_proc[mt.proc_of_point[owner @ mt.strides]]
        # stage_reduction: transient add + release at owner.
        for delta, phase in ((pbytes, 0), (-pbytes, 1)):
            events.add(
                owner_mem, delta, sender, _EventStream.FLUSH,
                f_pos * 2 + 1, seq[pos], p_seq[row] * 2 + phase,
            )
        self._emit_bulk(
            step, name, region, sender, p_lo[:, row], p_hi[:, row],
            owner, tensor, reduce=True,
        )

    def _release_held(self, held: Dict[str, _Registration]):
        n_mem = self.env.n_mem
        for name, reg in held.items():
            self.env.discharge(reg.charges(n_mem))
            self.env.mirror(name).release_block(reg)


def _repeated_leaves(node: PlanNode, repeated: bool = False) -> Set[int]:
    """Ids of the leaves below a ``SeqNode`` of extent > 1 that is
    itself below the leaf's innermost ``LaunchNode`` (every launch
    opens a fresh region, and with it a fresh leaf memo)."""
    if isinstance(node, LaunchNode):
        return _repeated_leaves(node.body)
    if isinstance(node, SeqNode):
        return _repeated_leaves(node.body, repeated or node.extent > 1)
    return {id(node)} if repeated else set()
