"""The fluent scheduling API and its rewrite rules.

Every command both rewrites the concrete-index-notation loop tree and
records a relation in the provenance graph, exactly the split the paper
describes in Section 5.2: the tree fixes loop structure and tags, the
``s.t.`` relations let later passes reconstruct bounds.

A deliberate property carried over from the paper: schedules affect only
*performance*, never correctness. The runtime inserts whatever
communication the schedule did not aggregate; ``communicate`` and
``rotate`` only reshape the traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.ir.concrete import Assign, Forall, Sequence as SeqStmt, Stmt
from repro.ir.expr import Access, Expr, IndexVar
from repro.ir.lower_tin import lower_to_concrete
from repro.ir.provenance import VarGraph
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.grid import Grid
from repro.util.errors import ScheduleError

TensorsLike = Union[TensorVar, str, Sequence[Union[TensorVar, str]]]


class Schedule:
    """A schedule under construction for one assignment.

    Obtained from :meth:`repro.core.kernel.schedule` or directly; every
    command returns ``self`` so schedules chain like Figure 2's.
    """

    def __init__(self, assignment: Assignment):
        self.assignment = assignment
        stmt, graph = lower_to_concrete(assignment)
        self.stmt: Stmt = stmt
        self.graph: VarGraph = graph
        self.log: List[str] = []
        self._communicated: Dict[str, IndexVar] = {}

    # ------------------------------------------------------------------
    # Loop-structure helpers.
    # ------------------------------------------------------------------

    def loop_vars(self) -> List[IndexVar]:
        """Current loop order, outermost first."""
        return [f.var for f in self.stmt.foralls()]

    def _forall(self, var: IndexVar) -> Forall:
        for forall in self.stmt.foralls():
            if forall.var == var:
                return forall
        raise ScheduleError(f"no loop over {var} in the current schedule")

    def _chain(self) -> List[Forall]:
        return self.stmt.foralls()

    def _rebuild(self, foralls: List[Forall], innermost_body: Stmt) -> Stmt:
        body = innermost_body
        for forall in reversed(foralls):
            forall.body = body
            body = forall
        return body

    # ------------------------------------------------------------------
    # Classic transformations (split / divide / collapse / reorder ...).
    # ------------------------------------------------------------------

    def split(
        self,
        var: IndexVar,
        outer: IndexVar,
        inner: IndexVar,
        chunk: int,
    ) -> "Schedule":
        """Break ``var`` into chunks of size ``chunk`` (SUMMA's k loop)."""
        rel = self.graph.add_split(var, outer, inner, chunk)
        self._replace_with_pair(var, rel.outer, rel.inner, f"split({var},{chunk})")
        self.log.append(f"split({var}, {outer}, {inner}, {chunk})")
        return self

    def divide(
        self,
        var: IndexVar,
        outer: IndexVar,
        inner: IndexVar,
        parts: int,
    ) -> "Schedule":
        """Break ``var`` into ``parts`` equal pieces (outer extent fixed)."""
        rel = self.graph.add_divide(var, outer, inner, parts)
        self._replace_with_pair(var, rel.outer, rel.inner, f"divide({var},{parts})")
        self.log.append(f"divide({var}, {outer}, {inner}, {parts})")
        return self

    def _replace_with_pair(
        self, var: IndexVar, outer: IndexVar, inner: IndexVar, clause: str
    ):
        target = self._forall(var)
        inner_forall = Forall(var=inner, body=target.body)
        target.var = outer
        target.body = inner_forall
        target.relations.append(clause)

    def collapse(
        self, first: IndexVar, second: IndexVar, fused: IndexVar
    ) -> "Schedule":
        """Fuse two *directly nested* loops into one."""
        outer = self._forall(first)
        if not isinstance(outer.body, Forall) or outer.body.var != second:
            raise ScheduleError(
                f"collapse needs {second} directly nested inside {first}"
            )
        inner = outer.body
        self.graph.add_fuse(first, second, fused)
        outer.var = fused
        outer.body = inner.body
        outer.relations.append(f"collapse({first},{second})")
        outer.communicated.extend(inner.communicated)
        self.log.append(f"collapse({first}, {second}, {fused})")
        return self

    def reorder(self, order: Sequence[IndexVar]) -> "Schedule":
        """Permute a contiguous segment of the loop nest into ``order``.

        The named variables must currently occupy consecutive nesting
        levels (all dense loops commute, so any permutation is legal).
        """
        order = list(order)
        chain = self._chain()
        positions = []
        by_var = {f.var: (i, f) for i, f in enumerate(chain)}
        for var in order:
            if var not in by_var:
                raise ScheduleError(f"reorder names unknown loop {var}")
            positions.append(by_var[var][0])
        lo, hi = min(positions), max(positions)
        if sorted(positions) != list(range(lo, hi + 1)):
            raise ScheduleError(
                f"reorder of {order} does not name a contiguous loop segment "
                f"(current order: {self.loop_vars()})"
            )
        segment_tail_body = chain[hi].body
        new_segment = [by_var[var][1] for var in order]
        rebuilt = self._rebuild(new_segment, segment_tail_body)
        if lo == 0:
            self.stmt = rebuilt
        else:
            chain[lo - 1].body = rebuilt
        self.log.append(f"reorder({', '.join(v.name for v in order)})")
        return self

    def parallelize(self, var: IndexVar) -> "Schedule":
        """Mark a loop's iterations as locally parallel (threads / CUDA).

        A single-processor optimization: it tags the loop for the leaf
        cost model but does not change distribution.
        """
        forall = self._forall(var)
        forall.parallelized = True
        forall.relations.append(f"parallelize({var})")
        self.log.append(f"parallelize({var})")
        return self

    def precompute(
        self,
        sub_expr: Expr,
        workspace: TensorVar,
        ws_indices: Sequence[IndexVar],
    ) -> "Schedule":
        """Hoist ``sub_expr`` into a workspace at the leaf.

        The assignment's right-hand side is rewritten to read the
        workspace; the leaf evaluates the workspace first (workspace
        variant of Kjolstad et al. 2019, applied at leaf granularity).
        """
        chain = self._chain()
        leaf = chain[-1].body if chain else self.stmt
        if not isinstance(leaf, Assign):
            raise ScheduleError("precompute applies before other leaf rewrites")
        ws_access = Access(workspace, tuple(ws_indices))
        producer = Assign(lhs=ws_access, rhs=sub_expr, reduce=False)
        consumer = Assign(
            lhs=leaf.lhs,
            rhs=_replace_subexpr(leaf.rhs, sub_expr, ws_access),
            reduce=leaf.reduce,
        )
        new_leaf = SeqStmt([producer, consumer])
        if chain:
            chain[-1].body = new_leaf
        else:
            self.stmt = new_leaf
        self.log.append(f"precompute(-> {workspace.name})")
        return self

    # ------------------------------------------------------------------
    # The paper's distributed primitives.
    # ------------------------------------------------------------------

    def distribute(
        self,
        targets: Union[IndexVar, Sequence[IndexVar]],
        dist: Optional[Sequence[IndexVar]] = None,
        local: Optional[Sequence[IndexVar]] = None,
        onto: Optional[Grid] = None,
        level: int = 0,
    ) -> "Schedule":
        """Distribute loops over a machine grid.

        Two forms, as in the paper:

        * ``distribute(io)`` / ``distribute([io, jo])`` — mark existing
          loops as distributed (Section 5.2's relation tag).
        * ``distribute([i, j], [io, jo], [ii, ji], Grid(gx, gy))`` — the
          compound command of Section 3.3: divide each target by the
          corresponding grid dimension, reorder the divided pairs outward,
          and distribute the outer variables.

        ``level`` selects the machine grid level for hierarchical machines
        (e.g. level 0 = nodes, level 1 = GPUs within a node).
        """
        if isinstance(targets, IndexVar):
            targets = [targets]
        targets = list(targets)
        if dist is None:
            for var in targets:
                forall = self._forall(var)
                forall.distributed = True
                forall.machine_level = level
            self.log.append(
                f"distribute({', '.join(v.name for v in targets)}, level={level})"
            )
            return self
        if local is None or onto is None:
            raise ScheduleError(
                "compound distribute needs dist, local and an onto Grid"
            )
        if not (len(targets) == len(dist) == len(local) == onto.dim):
            raise ScheduleError(
                "compound distribute needs one dist/local variable per "
                "target and a grid of matching dimension"
            )
        for target, d, l, extent in zip(targets, dist, local, onto.shape):
            self.divide(target, d, l, extent)
        self.reorder(list(dist) + list(local))
        return self.distribute(list(dist), level=level)

    def communicate(
        self, tensors: TensorsLike, var: IndexVar
    ) -> "Schedule":
        """Aggregate a tensor's communication at loop ``var``.

        ``communicate(T, i)`` materializes, at each iteration of ``i``, the
        data of ``T`` needed by all iteration-space points nested below
        (Section 3.3). Purely a performance directive.
        """
        forall = self._forall(var)
        for tensor in _tensor_names(tensors):
            if tensor in self._communicated:
                prev = self._communicated[tensor]
                raise ScheduleError(
                    f"tensor {tensor} already communicated at {prev}"
                )
            known = {t.name for t in self.assignment.tensors()}
            if tensor not in known:
                raise ScheduleError(
                    f"communicate names unknown tensor {tensor!r}"
                )
            self._communicated[tensor] = var
            forall.communicated.append(tensor)
        self.log.append(f"communicate({tensors}, {var})")
        return self

    def rotate(
        self,
        target: IndexVar,
        sources: Sequence[IndexVar],
        result: IndexVar,
    ) -> "Schedule":
        """Rotate ``target``'s iterations by the sum of ``sources``.

        The symmetry-breaking command behind systolic algorithms: the loop
        over ``target`` is replaced by ``result``, and the original value
        is reconstructed as ``(result + sum(sources)) mod extent(target)``
        (Section 5.2). With ``sources`` the distributed grid coordinates,
        every processor touches a different chunk at every time step
        (Figure 12).
        """
        forall = self._forall(target)
        self.graph.add_rotate(target, sources, result)
        forall.var = result
        forall.relations.append(
            f"rotate({target}, {{{', '.join(s.name for s in sources)}}})"
        )
        self.log.append(
            f"rotate({target}, {[s.name for s in sources]}, {result})"
        )
        return self

    def substitute(
        self, vars: Sequence[IndexVar], kernel: str
    ) -> "Schedule":
        """Replace the innermost loops with an optimized leaf kernel.

        The named variables must be exactly the innermost loop nest; the
        cost model then charges the leaf at that kernel's efficiency
        (e.g. ``"cublas_gemm"``) instead of naive loops.
        """
        chain = self._chain()
        tail = chain[-len(vars):] if vars else []
        tail_vars = {f.var for f in tail}
        if tail_vars != set(vars) or len(tail) != len(vars):
            raise ScheduleError(
                f"substitute needs the innermost loops; current order is "
                f"{self.loop_vars()}, asked for {list(vars)}"
            )
        tail[0].substituted = kernel
        self.log.append(
            f"substitute({[v.name for v in vars]}, {kernel})"
        )
        return self

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def communicated_at(self) -> Dict[str, IndexVar]:
        """Tensor name -> loop variable of its communicate command."""
        return dict(self._communicated)

    def pretty(self) -> str:
        """The scheduled concrete index notation, for humans and tests."""
        return self.stmt.pretty()

    def __repr__(self) -> str:
        return f"Schedule({self.assignment!r}; {len(self.log)} commands)"


def _tensor_names(tensors: TensorsLike) -> List[str]:
    if isinstance(tensors, (TensorVar, str)):
        tensors = [tensors]
    names = []
    for t in tensors:
        names.append(t.name if isinstance(t, TensorVar) else str(t))
    return names


def _replace_subexpr(expr: Expr, old: Expr, new: Expr) -> Expr:
    """Structurally replace one occurrence of ``old`` inside ``expr``."""
    from repro.ir.expr import Add, Mul

    if expr is old:
        return new
    if isinstance(expr, (Add, Mul)):
        lhs = _replace_subexpr(expr.lhs, old, new)
        if lhs is not expr.lhs:
            return type(expr)(lhs, expr.rhs)
        rhs = _replace_subexpr(expr.rhs, old, new)
        if rhs is not expr.rhs:
            return type(expr)(expr.lhs, rhs)
    return expr
