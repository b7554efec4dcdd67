"""Vectorized bounds analysis: ``VarGraph.value_of`` over context batches.

The lockstep executor evaluates the same access expressions for every
task context in a phase; only the *values* of the bound loop variables
differ. Instead of walking the derivation graph once per context (the
seed's hot loop), this module walks it once per phase with numpy arrays
of per-context interval endpoints, mirroring every normalization rule of
:class:`~repro.util.geometry.Interval` element-wise:

* ``Interval.__post_init__`` clamps ``hi`` up to ``lo`` (empty intervals
  normalize to ``hi == lo``);
* ``scale`` maps ``[lo, hi)`` to ``[lo*f, (hi-1)*f + 1)``;
* Minkowski ``+`` of anything empty is ``[0, 0)``;
* ``clip``/``intersect`` is ``[max(lo), min(hi))`` re-normalized.

The mirror is exact: for every context the batch evaluator produces the
same interval the scalar :meth:`VarGraph.value_of` would, including the
``LoweringError`` raises in ``exact`` mode (verified by the parity tests
in ``tests/runtime/test_batched_executor.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.ir.expr import IndexVar
from repro.ir.provenance import VarGraph
from repro.obs.spans import span
from repro.util.errors import LoweringError, ScheduleError
from repro.util.geometry import Interval, Rect

# A batched interval: per-context lo/hi endpoint arrays (or scalars when
# the value is uniform across the batch — numpy broadcasting keeps the
# arithmetic identical either way).
BatchInterval = Tuple[np.ndarray, np.ndarray]


class CtxBlock:
    """Columnar view of ``n`` task contexts (one plan region).

    ``env`` maps each bound loop variable to per-context ``(lo, hi)``
    endpoint columns. Launch variables hold one point per context;
    sequential variables are re-bound per iteration with :meth:`bind`
    (a scalar — the same point for every context — so re-binding costs
    O(1), not O(contexts)). Evaluation results are memoized; a bind or
    unbind drops only the entries whose derivation visited the rebound
    variable, so values that do not depend on it survive the phase.
    """

    def __init__(self, env: Dict[IndexVar, BatchInterval], n: int,
                 gpu_flags: Optional[np.ndarray] = None):
        self.n = n
        self.env = env
        self.gpu = gpu_flags
        self._memo: Dict[Tuple[IndexVar, bool], BatchInterval] = {}
        # Per memo entry, every variable its derivation visited; the
        # stack collects them for the evaluations in progress.
        self._deps: Dict[Tuple[IndexVar, bool], FrozenSet[IndexVar]] = {}
        self._visiting: List[Set[IndexVar]] = []

    @classmethod
    def from_ctxs(cls, ctxs, gpu_flags: Optional[np.ndarray] = None):
        """The columnar view of a list of per-context records."""
        n = len(ctxs)
        env: Dict[IndexVar, BatchInterval] = {}
        if ctxs:
            for var in ctxs[0].env:
                lo = np.fromiter((c.env[var].lo for c in ctxs), np.int64, n)
                hi = np.fromiter((c.env[var].hi for c in ctxs), np.int64, n)
                env[var] = (lo, hi)
        return cls(env, n, gpu_flags)

    def bind(self, var: IndexVar, value: int):
        """Bind a sequential variable to one iteration for all contexts."""
        self.env[var] = (np.int64(value), np.int64(value + 1))
        self._forget(var)

    def unbind(self, var: IndexVar):
        self.env.pop(var, None)
        self._forget(var)

    def _forget(self, var: IndexVar):
        stale = [key for key, deps in self._deps.items() if var in deps]
        for key in stale:
            del self._memo[key]
            del self._deps[key]

    # ------------------------------------------------------------------
    # Batched value_of.
    # ------------------------------------------------------------------

    def values_of(
        self,
        graph: VarGraph,
        var: IndexVar,
        full_env: Dict[IndexVar, Interval],
        exact: bool = False,
    ) -> BatchInterval:
        """Per-context interval of ``var``, exactly as ``value_of``."""
        key = (var, exact)
        visiting = self._visiting
        out = self._memo.get(key)
        if out is not None:
            if visiting:
                visiting[-1].update(self._deps[key])
            return out
        visiting.append({var})
        try:
            out = self._eval(graph, var, full_env, exact)
        finally:
            deps = visiting.pop()
        if visiting:
            visiting[-1].update(deps)
        self._memo[key] = out
        self._deps[key] = frozenset(deps)
        return out

    def _eval(self, graph, var, full_env, exact) -> BatchInterval:
        if var in self.env:
            lo, hi = self.env[var]
            return _clip_extent(lo, hi, graph.extent(var))
        if var in full_env:
            iv = full_env[var]
            return _clip_extent(
                np.int64(iv.lo), np.int64(iv.hi), graph.extent(var)
            )
        rel = graph.split_rel(var)
        if rel is not None:
            o_lo, o_hi = self.values_of(graph, rel.outer, full_env, exact)
            i_lo, i_hi = self.values_of(graph, rel.inner, full_env, exact)
            # outer.scale(tile): [lo*t, (hi-1)*t + 1), re-normalized.
            s_lo = o_lo * rel.tile
            s_hi = np.maximum((o_hi - 1) * rel.tile + 1, s_lo)
            # Minkowski sum with the inner interval.
            empty = (s_hi <= s_lo) | (i_hi <= i_lo)
            lo = np.where(empty, 0, s_lo + i_lo)
            hi = np.where(empty, 0, s_hi + i_hi - 1)
            hi = np.maximum(hi, lo)
            return _clip_extent(lo, hi, graph.extent(var))
        rel = graph.rotate_rel(var)
        if rel is not None:
            extent = graph.extent(var)
            parts = [self.values_of(graph, rel.result, full_env, exact)]
            parts += [
                self.values_of(graph, s, full_env, exact)
                for s in rel.sources
            ]
            points = (parts[0][1] - parts[0][0]) == 1
            for lo, hi in parts[1:]:
                points = points & ((hi - lo) == 1)
            total = parts[0][0]
            for lo, _hi in parts[1:]:
                total = total + lo
            if np.all(points):
                v = total % extent
                return (v, v + 1)
            if exact:
                raise LoweringError(
                    f"rotated variable {var} needs concrete rotation inputs "
                    f"for an exact leaf slice"
                )
            lo = np.where(points, total % extent, 0)
            hi = np.where(points, total % extent + 1, extent)
            return (lo, hi)
        rel = graph.fuse_rel(var)
        if rel is not None:
            f_lo, f_hi = self.values_of(graph, rel.fused, full_env, exact)
            extent = graph.extent(var)
            fused_extent = graph.extent(rel.fused)
            points = (f_hi - f_lo) == 1
            if var == rel.first:
                val = f_lo // rel.second_extent
            else:
                val = f_lo % rel.second_extent
            if np.all(points):
                return (val, val + 1)
            full = (f_lo == 0) & (f_hi == fused_extent)
            if exact and np.any(~points & ~full):
                raise LoweringError(
                    f"fused variable {rel.fused} spans a partial range; the "
                    f"resulting iteration block is not rectangular in {var}"
                )
            lo = np.where(points, val, 0)
            hi = np.where(points, val + 1, extent)
            return (lo, hi)
        raise ScheduleError(
            f"cannot reconstruct {var}: not a loop variable and not derived"
        )


def _clip_extent(lo, hi, extent: int) -> BatchInterval:
    """``Interval.clip(Interval.extent(extent))``, element-wise.

    Endpoints already inside the extent come back as the same arrays,
    so memoized values share memory with the context columns. Scalar
    endpoints (sequential loop variables) compare in Python; arrays in
    one pass.
    """
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        if ((lo >= 0) & (hi >= lo) & (hi <= extent)).all():
            return (lo, hi)
    elif 0 <= lo <= hi <= extent:
        return (lo, hi)
    lo2 = np.maximum(lo, 0)
    hi2 = np.maximum(np.minimum(hi, extent), lo2)
    return (lo2, hi2)


def batch_bounds(
    block: CtxBlock,
    graph: VarGraph,
    accesses,
    full_env: Dict[IndexVar, Interval],
    exact: bool = False,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
    """Raw per-context bounding-rectangle endpoint columns.

    Returns ``(lo, hi, live)`` where ``lo``/``hi`` are ``(ndim, n)``
    endpoint matrices of each context's bounding rectangle across the
    tensor's accesses and ``live[i]`` marks contexts with at least one
    non-empty access (``bounding_rect`` semantics). For 0-dim tensors
    the matrices are ``None`` and every context is live. Endpoints of
    non-live contexts are meaningless.

    This is the orbit executor's fingerprint input: the ``(lo, hi)``
    columns are consumed directly as numpy data, without materializing
    :class:`~repro.util.geometry.Rect` objects.
    """
    n = block.n
    ndim = accesses[0].tensor.ndim
    if ndim == 0:
        return None, None, np.ones(n, dtype=bool)
    with span("bounds.batch"):
        # Stack per-access endpoint columns: (n_access, ndim, n).
        big = np.iinfo(np.int64).max
        lo_min = None
        hi_max = None
        live = None
        for access in accesses:
            los = np.empty((ndim, n), dtype=np.int64)
            his = np.empty((ndim, n), dtype=np.int64)
            for d, v in enumerate(access.indices):
                lo, hi = block.values_of(graph, v, full_env, exact)
                los[d, :] = lo
                his[d, :] = hi
            empty = (his <= los).any(axis=0)
            if empty.any():
                los = np.where(empty, big, los)
                his = np.where(empty, -big, his)
            if lo_min is None:
                lo_min, hi_max, live = los, his, ~empty
            else:
                lo_min = np.minimum(lo_min, los)
                hi_max = np.maximum(hi_max, his)
                live = live | ~empty
        return lo_min, hi_max, live


def batch_rects(
    block: CtxBlock,
    graph: VarGraph,
    accesses,
    full_env: Dict[IndexVar, Interval],
    exact: bool = False,
) -> Tuple[List[Optional[Rect]], List[Tuple[Rect, List[int]]]]:
    """Per-context bounding rectangles of one tensor's accesses, grouped.

    The batched analogue of ``Executor._rect_of``: evaluates every access
    index over the whole context batch, takes the per-context bounding
    rectangle across accesses (empty accesses excluded, as in
    ``bounding_rect``), and groups contexts by identical resulting
    rectangle — the unit of batched fetch resolution.

    Returns ``(rect_of, groups)`` where ``rect_of[i]`` is context ``i``'s
    rectangle (``None`` when every access is empty, matching the scalar
    path) and ``groups`` lists ``(rect, ctx_indices)`` in first-seen
    context order.
    """
    n = block.n
    ndim = accesses[0].tensor.ndim
    if ndim == 0:
        rect = Rect(())
        return [rect] * n, [(rect, list(range(n)))]
    lo_min, hi_max, live = batch_bounds(
        block, graph, accesses, full_env, exact
    )
    rect_of: List[Optional[Rect]] = [None] * n
    groups: List[Tuple[Rect, List[int]]] = []
    seen: Dict[Tuple[int, ...], int] = {}
    lo_cols = lo_min.T
    hi_cols = hi_max.T
    for i in range(n):
        if not live[i]:
            continue
        key = tuple(lo_cols[i]) + tuple(hi_cols[i])
        slot = seen.get(key)
        if slot is None:
            rect = Rect(
                tuple(
                    Interval(int(lo_cols[i][d]), int(hi_cols[i][d]))
                    for d in range(ndim)
                )
            )
            seen[key] = len(groups)
            groups.append((rect, [i]))
            rect_of[i] = rect
        else:
            rect, members = groups[slot]
            members.append(i)
            rect_of[i] = rect
    return rect_of, groups
