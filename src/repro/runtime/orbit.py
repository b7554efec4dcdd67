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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.plan import LaunchNode, LeafNode, PlanNode, SeqNode
from repro.machine.cluster import MemoryKind
from repro.machine.machine import Machine
from repro.obs.metrics import METRICS, ORBIT_COUNTERS
from repro.obs.spans import span
from repro.runtime.batchbounds import CtxBlock, batch_bounds
from repro.runtime.executor import ExecutionResult, Executor
from repro.runtime.trace import CopyColumns, CopyReps, Step, Trace
from repro.util.errors import LoweringError, OutOfMemoryError
from repro.util.geometry import Rect

# ----------------------------------------------------------------------
# Key folding: collision-free int64 row keys for vectorized joins.
# ----------------------------------------------------------------------


def fold_rows(mat: np.ndarray, ranges=None) -> np.ndarray:
    """A collision-free int64 key per row of an integer matrix.

    One lexicographic sort of the whole matrix followed by an
    adjacent-row comparison assigns dense ranks (0..n_distinct-1) in
    row-lexicographic order. Equal rows — across the whole matrix — get
    equal keys; distinct rows get distinct keys. A single ``lexsort``
    replaces the seed's per-column ``np.unique`` cascade (one argsort
    per column per fold), which dominated large-grid class grouping.
    """
    n = mat.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if mat.shape[1] == 0:
        return np.zeros(n, dtype=np.int64)
    order, diff = _sorted_groups(mat, ranges)
    new_key = np.empty(n, dtype=np.int64)
    new_key[0] = 0
    if n > 1:
        new_key[1:] = np.cumsum(diff)
    keys = np.empty(n, dtype=np.int64)
    keys[order] = new_key
    return keys


def _sorted_groups(mat: np.ndarray, ranges=None):
    """Row sort order and adjacent-row difference flags of a matrix.

    Columns are losslessly packed while their combined value range fits
    an int64 (each argsort pass of the lexsort costs the same, so
    halving the column count roughly halves the sort); the packing is
    exact (mixed-radix over per-column ranges), so equal rows stay
    equal and distinct rows distinct.
    """
    packed = _pack_columns(mat, ranges)
    if len(packed) == 1:
        order = np.argsort(packed[0], kind="stable")
        sm0 = packed[0][order]
        diff = sm0[1:] != sm0[:-1]
    else:
        order = np.lexsort(packed[::-1])
        sm = [col[order] for col in packed]
        diff = sm[0][1:] != sm[0][:-1]
        for col in sm[1:]:
            diff = diff | (col[1:] != col[:-1])
    return order, diff


def _pack_columns(mat: np.ndarray, ranges=None) -> List[np.ndarray]:
    """Mixed-radix-pack a matrix's columns into as few int64 keys as
    ranges allow (exact: distinct rows stay distinct, equal stay equal).

    ``ranges``, when given, supplies each column's value range as
    ``(min, max_exclusive)`` so the per-column scans are skipped —
    callers that know static bounds (grid shapes, tensor extents) save
    two ufunc reductions per column.
    """
    if ranges is None:
        mins = mat.min(axis=0)
        highs = mat.max(axis=0) + 1
    else:
        mins = [r[0] for r in ranges]
        highs = [r[1] for r in ranges]
    cols: List[np.ndarray] = []
    acc = None
    acc_range = 1
    limit = 2 ** 62
    for c in range(mat.shape[1]):
        r = int(highs[c]) - int(mins[c])
        shifted = mat[:, c] - mins[c]
        if acc is None:
            acc, acc_range = shifted.astype(np.int64), r
        elif acc_range * r < limit:
            acc = acc * np.int64(r) + shifted
            acc_range *= r
        else:
            cols.append(acc)
            acc, acc_range = shifted.astype(np.int64), r
    cols.append(acc)
    return cols


def fold_groups(mat: np.ndarray, ranges=None) -> Tuple[np.ndarray, np.ndarray]:
    """Equal-row groups of a matrix: ``(first, counts)``.

    ``first[g]`` is the lowest row index of group ``g`` (the class
    representative) and ``counts[g]`` its multiplicity; groups come in
    row-lexicographic order — exactly what ``np.unique`` on
    :func:`fold_rows` keys returns, minus the second sort.
    """
    n = mat.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order, diff = _sorted_groups(mat, ranges)
    starts = np.flatnonzero(np.r_[True, diff])
    counts = np.diff(np.r_[starts, n])
    first = np.minimum.reduceat(order, starts)
    return first, counts


def fold_two(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fold two row sets into one comparable key space."""
    keys = fold_rows(np.vstack([a, b]))
    return keys[: a.shape[0]], keys[a.shape[0]:]


def _fold_keys(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Equal-key groups of an int64 key column: ``(first, counts)`` in
    key order, as :func:`fold_groups` orders them. A dense key range
    folds by counting, with no sort."""
    base = int(key.min())
    span = int(key.max()) - base + 1
    if span <= 4 * key.size + 1024:
        dense = key - base
        full = np.bincount(dense, minlength=span)
        present = full > 0
        inv = np.take(np.cumsum(present) - 1, dense)
        counts = full[present]
    else:
        _, inv, counts = np.unique(
            key, return_inverse=True, return_counts=True
        )
    first = np.full(counts.size, key.size, dtype=np.int64)
    np.minimum.at(first, inv, np.arange(key.size, dtype=np.int64))
    return first, counts


def _pack_key(cols, spans) -> Optional[np.ndarray]:
    """Mixed-radix int64 key of non-negative columns (``cols[i] <
    spans[i]``), order-preserving like :func:`_pack_columns`; ``None``
    when the radix would overflow."""
    total = 1
    for span in spans:
        total *= int(span)
    if total >= 2 ** 62:
        return None
    key = np.zeros(cols[0].size, dtype=np.int64)
    for col, span in zip(cols, spans):
        key *= int(span)
        key += col
    return key


def _linear(coords: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """Row-major linear index of each ``(k, mdim)`` coordinate row."""
    out = coords[:, 0] * strides[0]
    for d in range(1, coords.shape[1]):
        out = out + coords[:, d] * strides[d]
    return out


#: Deterministic odd multipliers for the executor's hash joins (exact
#: matches are verified afterwards, so collisions cost nothing but a
#: filtered candidate).
_HASH_MULTS = (
    np.random.default_rng(0xD15A1).integers(
        1, 2 ** 63 - 1, size=64, dtype=np.int64
    )
    | 1
)


def _hash_rows(mat: np.ndarray) -> np.ndarray:
    """A fast (collision-possible) int64 key per row; callers must
    verify candidate matches on the original columns."""
    with np.errstate(over="ignore"):
        return mat @ _HASH_MULTS[: mat.shape[1]]


# ----------------------------------------------------------------------
# Machine tables (cached per Machine instance).
# ----------------------------------------------------------------------


class _MachineTables:
    """Numpy lookup tables for grid points, processors and memories."""

    def __init__(self, machine: Machine):
        cluster = machine.cluster
        shape = machine.shape
        self.shape = np.asarray(shape, dtype=np.int64)
        self.size = machine.size
        strides = np.ones(len(shape), dtype=np.int64)
        for d in range(len(shape) - 2, -1, -1):
            strides[d] = strides[d + 1] * shape[d + 1]
        self.strides = strides
        n_procs = cluster.num_processors
        self.node_of_proc = cluster.node_of_proc()
        self.memories = cluster.memories()
        self.memory_name = cluster.memory_name
        self.mem_capacity = cluster.mem_capacity()
        self.mem_gpu = cluster.mem_gpu()
        self.procmem_of_proc = cluster.procmem_of_proc()
        self.sysmem_of_node = cluster.sysmem_of_node()
        # All machine coordinates, row-major (matches machine.points()).
        coords = np.stack(
            np.unravel_index(np.arange(self.size), tuple(shape)), axis=1
        ).astype(np.int64)
        self.point_coords = coords
        # Vectorized Machine.proc_at over every grid point: flat
        # machines place points row-major over all processors; multi-
        # level machines place the outer level over nodes and the inner
        # levels row-major within a node (over-decomposition wraps).
        if len(machine.levels) == 1:
            table = (coords @ strides) % n_procs
        else:
            outer_dim = machine.levels[0].dim
            node_lin = coords[:, :outer_dim] @ strides[:outer_dim] \
                // strides[outer_dim - 1]
            node_lin = node_lin % cluster.num_nodes
            inner = coords[:, outer_dim:]
            inner_shape = shape[outer_dim:]
            istr = np.ones(len(inner_shape), dtype=np.int64)
            for d in range(len(inner_shape) - 2, -1, -1):
                istr[d] = istr[d + 1] * inner_shape[d + 1]
            ppn = cluster.procs_per_node
            table = node_lin * ppn + (inner @ istr) % ppn
        self.proc_of_point = table
        self._tensor_mem: Dict[Tuple[str, str], np.ndarray] = {}

    def tensor_mem_of_proc(self, tensor) -> np.ndarray:
        """Memory id a tensor instance occupies, per processor.

        Mirrors ``DataEnvironment._memory_for_uncached``: framebuffer-
        pinned formats use the processor memory (which *is* the
        framebuffer on GPUs), host-resident formats use the node system
        memory when one exists.
        """
        wants = tensor.format.memory
        key = (tensor.name, wants.value)
        cached = self._tensor_mem.get(key)
        if cached is not None:
            return cached
        if wants is MemoryKind.SYSTEM_MEM:
            out = self.sysmem_of_node[self.node_of_proc]
        else:
            out = self.procmem_of_proc.copy()
        self._tensor_mem[key] = out
        return out


def machine_tables(machine: Machine) -> _MachineTables:
    tables = getattr(machine, "_orbit_tables", None)
    if tables is None:
        tables = _MachineTables(machine)
        machine._orbit_tables = tables
    return tables


# ----------------------------------------------------------------------
# Columnar instance mirror (the orbit-mode holder tables).
# ----------------------------------------------------------------------


class _Mirror:
    """Columnar cached-instance store for one tensor.

    Rows are ``(rect lo, rect hi, holder coords, memory, bytes)``.
    Freed rows are recycled, so the arrays stay bounded by the peak
    number of live instances. Row ids are stable for the lifetime of
    the instance, which is what phase-held bookkeeping releases by.
    """

    def __init__(self, ndim: int, mdim: int):
        self.ndim = ndim
        self.mdim = mdim
        #: Mutation counter (bumped by add/free): the conjugate replay
        #: uses it to prove the mirror is unchanged modulo a phase's own
        #: held-set churn.
        self.version = 0
        cap = 64
        self.lo = np.zeros((cap, ndim), dtype=np.int64)
        self.hi = np.zeros((cap, ndim), dtype=np.int64)
        self.coords = np.zeros((cap, mdim), dtype=np.int64)
        self.mem = np.zeros(cap, dtype=np.int64)
        self.nbytes = np.zeros(cap, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.tail = 0
        self._free = np.zeros(0, dtype=np.int64)

    def _grow(self, need: int):
        cap = self.alive.size
        new_cap = max(cap * 2, cap + need)
        for name in ("lo", "hi", "coords"):
            arr = getattr(self, name)
            grown = np.zeros((new_cap, arr.shape[1]), dtype=np.int64)
            grown[:cap] = arr
            setattr(self, name, grown)
        for name, dtype in (("mem", np.int64), ("nbytes", np.int64)):
            arr = getattr(self, name)
            grown = np.zeros(new_cap, dtype=dtype)
            grown[:cap] = arr
            setattr(self, name, grown)
        alive = np.zeros(new_cap, dtype=bool)
        alive[:cap] = self.alive
        self.alive = alive

    def alloc(self, k: int) -> np.ndarray:
        take = min(k, self._free.size)
        rows = self._free[:take]
        self._free = self._free[take:]
        rest = k - take
        if rest:
            if self.tail + rest > self.alive.size:
                self._grow(self.tail + rest - self.alive.size)
            rows = np.concatenate(
                [rows, np.arange(self.tail, self.tail + rest, dtype=np.int64)]
            )
            self.tail += rest
        return rows

    def add_rows(self, lo, hi, coords, mem, nbytes) -> np.ndarray:
        rows = self.alloc(lo.shape[0])
        at = rows
        if rows.size and rows[-1] - rows[0] + 1 == rows.size and bool(
            (np.diff(rows) == 1).all()
        ):
            # Recycled rows usually come back as one run: slices write
            # far faster than row gathers.
            at = slice(int(rows[0]), int(rows[-1]) + 1)
        self.lo[at] = lo
        self.hi[at] = hi
        self.coords[at] = coords
        self.mem[at] = mem
        self.nbytes[at] = nbytes
        self.alive[at] = True
        self.version += 1
        return rows

    def free_rows(self, rows: np.ndarray):
        self.alive[rows] = False
        self._free = np.concatenate([self._free, rows])
        self.version += 1

    def snapshot(self) -> np.ndarray:
        """Row ids of all live instances."""
        return np.flatnonzero(self.alive[: self.tail])


class _PartialTable:
    """Columnar pending-partials store for one tensor.

    Rows are ``(context coords, rect lo, rect hi)`` in insertion order —
    the order the scalar interpreter's per-context rect lists replay
    during a flush. Rows are appended in bulk by the leaf accounting
    and removed in bulk when a flush pops them.
    """

    def __init__(self, ndim: int, mdim: int):
        self.ndim = ndim
        self.mdim = mdim
        self.coords = np.zeros((0, mdim), dtype=np.int64)
        self.lo = np.zeros((0, ndim), dtype=np.int64)
        self.hi = np.zeros((0, ndim), dtype=np.int64)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def append(self, coords: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.coords = np.concatenate([self.coords, coords])
        self.lo = np.concatenate([self.lo, lo])
        self.hi = np.concatenate([self.hi, hi])

    def remove(self, rows: np.ndarray):
        keep = np.ones(self.n, dtype=bool)
        keep[rows] = False
        self.coords = self.coords[keep]
        self.lo = self.lo[keep]
        self.hi = self.hi[keep]


# ----------------------------------------------------------------------
# Orbit data environment.
# ----------------------------------------------------------------------


class OrbitState:
    """Instance tables and memory accounting on columnar storage.

    Holder state lives in per-tensor :class:`_Mirror` tables, pending
    output partials in :class:`_PartialTable` s and memory accounting in
    flat numpy arrays, so every phase applies as bincounts rather than
    per-context dict updates. Home instances are charged on
    construction, like the scalar
    :class:`~repro.runtime.instances.DataEnvironment`.
    """

    def __init__(self, plan, check_capacity: bool, tables: _MachineTables):
        self.plan = plan
        self.machine: Machine = plan.machine
        self.check_capacity = check_capacity
        self._mt = tables
        n_mem = len(tables.memories)
        self._usage_arr = np.zeros(n_mem, dtype=np.int64)
        self._high_arr = np.zeros(n_mem, dtype=np.int64)
        self._touched = np.zeros(n_mem, dtype=bool)
        self._mirrors: Dict[str, _Mirror] = {}
        self._partial_tabs: Dict[str, _PartialTable] = {}
        self._account_home()

    # -- memory accounting on arrays -----------------------------------

    @property
    def high_water(self) -> Dict[str, int]:
        name = self._mt.memory_name
        return {
            name(i): int(self._high_arr[i])
            for i in np.flatnonzero(self._touched)
        }

    def bulk_add(self, mem_ids, amounts, order):
        """Apply a phase's registration charges at once.

        Equivalent to the scalar ``DataEnvironment._add_bytes`` per
        event in ``order``: the peak is reached after the last add
        either way, and on a capacity overflow the events are replayed
        in order so the raised error carries exactly the usage at the
        first crossing.
        """
        if mem_ids.size == 0:
            return
        n_mem = self._usage_arr.size
        adds = np.bincount(
            mem_ids, weights=amounts.astype(np.float64), minlength=n_mem
        ).astype(np.int64)
        new_usage = self._usage_arr + adds
        if self.check_capacity and bool(
            np.any(new_usage > self._mt.mem_capacity)
        ):
            run = self._usage_arr.copy()
            caps = self._mt.mem_capacity
            seq = np.argsort(order, kind="stable")
            for j in seq:
                mid = int(mem_ids[j])
                run[mid] += int(amounts[j])
                if run[mid] > caps[mid]:
                    raise OutOfMemoryError(
                        self._mt.memory_name(mid),
                        int(run[mid]),
                        int(caps[mid]),
                    )
        self._usage_arr = new_usage
        self._touched |= adds > 0
        np.maximum(self._high_arr, new_usage, out=self._high_arr)

    def bulk_sub(self, mem_ids, amounts):
        if mem_ids.size == 0:
            return
        subs = np.bincount(
            mem_ids,
            weights=amounts.astype(np.float64),
            minlength=self._usage_arr.size,
        ).astype(np.int64)
        self._usage_arr -= subs

    def apply_events(self, mem_ids, deltas):
        """Apply an interleaved add/sub event stream exactly.

        ``mem_ids``/``deltas`` are already in scalar event order.
        Equivalent to the scalar ``_add_bytes``/``_sub_bytes`` per
        event: the per-memory running usage determines the high-water
        marks, and on a capacity overflow the events are replayed in
        order so the raised error carries exactly the usage at the
        first crossing.
        Used for phases whose adds and releases interleave per context
        (reduction flushes, leaf-level communication).
        """
        if mem_ids.size == 0:
            return
        n_mem = self._usage_arr.size
        # Segment cumsum: stable-sort by memory, running totals within
        # each memory's segment stay in event order.
        by_mem = np.argsort(mem_ids, kind="stable")
        gm = mem_ids[by_mem]
        gd = deltas[by_mem]
        cs = np.cumsum(gd)
        starts = np.flatnonzero(np.r_[True, gm[1:] != gm[:-1]])
        seg_len = np.diff(np.r_[starts, gm.size])
        base = np.where(starts > 0, cs[starts - 1], 0)
        run = cs - np.repeat(base, seg_len) + self._usage_arr[gm]
        adds = gd > 0
        if self.check_capacity and bool(
            np.any(run[adds] > self._mt.mem_capacity[gm[adds]])
        ):
            usage = self._usage_arr.copy()
            caps = self._mt.mem_capacity
            for j in range(mem_ids.size):
                mid = int(mem_ids[j])
                usage[mid] += int(deltas[j])
                if deltas[j] > 0 and usage[mid] > caps[mid]:
                    raise OutOfMemoryError(
                        self._mt.memory_name(mid),
                        int(usage[mid]),
                        int(caps[mid]),
                    )
        # Peaks are always attained after an add, so the max over all
        # running values equals the scalar per-add high-water update.
        peaks = self._high_arr.copy()
        np.maximum.at(peaks, gm, run)
        self._high_arr = peaks
        self._usage_arr = self._usage_arr + np.bincount(
            gm, weights=gd.astype(np.float64), minlength=n_mem
        ).astype(np.int64)
        self._touched |= (
            np.bincount(gm[adds], minlength=n_mem) > 0
        )

    # -- home-instance accounting (vectorized) --------------------------

    def _account_home(self):
        """Charge every distinct home instance to its memory.

        Vectorized replacement of the scalar per-point loop: home
        rectangles come from :meth:`Format.owned_rect_batch` over every
        machine point at once, replicas collapse to one charge per
        distinct ``(memory, rectangle)`` via row folding, and the
        charges commit through :meth:`bulk_add` in the scalar event
        order (tensor-major, machine-point-minor), so OOM outcomes are
        byte-identical to the reference interpreter.
        """
        mt = self._mt
        coords = mt.point_coords
        size = coords.shape[0]
        mem_chunks = []
        amount_chunks = []
        order_chunks = []
        for t_pos, (name, tensor) in enumerate(self.plan.tensors.items()):
            if not tensor.format.is_distributed:
                if tensor.ndim == 0:
                    continue
                # Undistributed tensors live at machine point 0.
                mem_chunks.append(
                    mt.tensor_mem_of_proc(tensor)[mt.proc_of_point[:1]]
                )
                amount_chunks.append(
                    np.array([tensor.nbytes], dtype=np.int64)
                )
                order_chunks.append(
                    np.array([t_pos * size], dtype=np.int64)
                )
                continue
            lo, hi, ok = tensor.format.owned_rect_batch(
                self.machine, coords, tensor.shape
            )
            live = ok
            vol = np.ones(size, dtype=np.int64)
            for d in range(tensor.ndim):
                vol *= hi[d] - lo[d]
                live = live & (hi[d] > lo[d])
            sel = np.flatnonzero(live)
            if sel.size == 0:
                continue
            mem_ids = mt.tensor_mem_of_proc(tensor)[mt.proc_of_point[sel]]
            rows = np.column_stack(
                [mem_ids, lo[:, sel].T, hi[:, sel].T]
            )
            _, first = np.unique(fold_rows(rows), return_index=True)
            first.sort()
            take = sel[first]
            mem_chunks.append(mem_ids[first])
            amount_chunks.append(vol[take] * tensor.itemsize)
            order_chunks.append(t_pos * size + take)
        if mem_chunks:
            self.bulk_add(
                np.concatenate(mem_chunks),
                np.concatenate(amount_chunks),
                np.concatenate(order_chunks),
            )

    # -- pending output partials (columnar) -----------------------------

    def partial_table(self, name: str) -> "_PartialTable":
        tab = self._partial_tabs.get(name)
        if tab is None:
            tab = _PartialTable(
                self.plan.tensors[name].ndim, self.machine.dim
            )
            self._partial_tabs[name] = tab
        return tab

    def note_partials_bulk(
        self, name: str, coords: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Record non-owned output writes for a batch of contexts.

        ``coords`` is ``(k, machine.dim)``; ``lo``/``hi`` are
        ``(ndim, k)`` endpoint columns. Duplicate ``(coords, rect)``
        rows — against the pending table and within the batch, exactly
        the scalar ``note_partial`` dedup — are dropped. Returns the
        kept-row mask; the *caller* charges the memory for kept rows so
        it can weave the adds into its own event order.
        """
        tab = self.partial_table(name)
        new_rows = np.column_stack([coords, lo.T, hi.T])
        old_rows = np.column_stack([tab.coords, tab.lo, tab.hi])
        old_k, new_k = fold_two(old_rows, new_rows)
        keep = np.ones(new_k.size, dtype=bool)
        if old_k.size:
            keep &= ~np.isin(new_k, old_k)
        # First occurrence within the batch.
        _, first = np.unique(new_k, return_index=True)
        dup = np.ones(new_k.size, dtype=bool)
        dup[first] = False
        keep &= ~dup
        if np.any(keep):
            tab.append(coords[keep], lo[:, keep].T, hi[:, keep].T)
        return keep

    def take_partials(self, name: str, region_coords: np.ndarray):
        """Pop pending partials belonging to the given context coords.

        Returns ``(member, lo, hi)`` — the member index of each popped
        row within ``region_coords`` plus ``(ndim, k)`` rect endpoint
        columns, in insertion order (the scalar flush order). Rows of
        other regions stay queued.
        """
        tab = self._partial_tabs.get(name)
        ndim = self.plan.tensors[name].ndim
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros((ndim, 0), dtype=np.int64),
            np.zeros((ndim, 0), dtype=np.int64),
        )
        if tab is None or tab.n == 0:
            return empty
        tab_k, reg_k = fold_two(tab.coords, region_coords)
        order = np.argsort(reg_k, kind="stable")
        sk = reg_k[order]
        pos = np.minimum(np.searchsorted(sk, tab_k), sk.size - 1)
        hit = sk[pos] == tab_k
        rows = np.flatnonzero(hit)
        if rows.size == 0:
            return empty
        member = order[pos[rows]]
        lo = tab.lo[rows].T.copy()
        hi = tab.hi[rows].T.copy()
        tab.remove(rows)
        return member, lo, hi

    # -- holder state on mirrors ---------------------------------------

    def mirror(self, name: str) -> _Mirror:
        m = self._mirrors.get(name)
        if m is None:
            m = _Mirror(
                self.plan.tensors[name].ndim, self.machine.dim
            )
            self._mirrors[name] = m
        return m


# ----------------------------------------------------------------------
# Step builder: exact expanded columns + compressed representatives.
# ----------------------------------------------------------------------


@dataclass
class _EmitInfo:
    """One emitted phase-tensor batch, with what a replay needs."""

    chunk: "_Chunk"
    pos: int
    builder: "_StepBuilder"
    keep: Optional[np.ndarray]  # row filter over the member set, or None
    first: np.ndarray           # class representatives (kept-row index)
    reps: CopyReps


@dataclass
class _Classes:
    """One phase's request classes: the distinct rectangles its
    fetching members request."""

    labels: np.ndarray  # class per fetching member
    cols: np.ndarray    # (classes, 2 * ndim) endpoints, lo then hi
    counts: np.ndarray  # fetching members per class

    @property
    def distinct(self) -> bool:
        return self.counts.size == self.labels.size


@dataclass
class _Chunk:
    """One bulk emission batch (one tensor, one phase)."""

    tensor_id: int
    lo: np.ndarray  # (k, ndim)
    hi: np.ndarray
    nbytes: np.ndarray
    src_proc: np.ndarray
    dst_proc: np.ndarray
    src_gpu: np.ndarray
    dst_gpu: np.ndarray
    reduce: bool = False
    #: True when the rows' rectangles are pairwise distinct (hash-
    #: verified): every copy is then its own collective group, letting
    #: the step finalize skip the group fold.
    distinct: bool = False


@dataclass
class _StepBuilder:
    """Accumulates a step's exact per-member copy columns.

    Every emission path — single-source fetches, multi-piece
    redistribution, reduction flushes, leaf-level communication — lands
    here as a columnar :class:`_Chunk`; there is no per-``Copy`` scalar
    side channel.
    """

    step: Step
    chunks: List[_Chunk] = field(default_factory=list)
    #: ``(source builder, source chunk index)`` per translation-replayed
    #: chunk; lets the fetch path prove the whole step is a clone.
    replay_votes: List[Tuple] = field(default_factory=list)
    clone_src: Optional["_StepBuilder"] = None
    #: The finalized columns (``None`` for a step without copies). Kept
    #: here rather than read back from the step, whose columns a
    #: streamed run releases once priced; a later clone copies them.
    columns: Optional[CopyColumns] = None

    def finalize(self, tables: _MachineTables, tensor_ids: Dict[str, int],
                 extent_cap: int = None):
        src = self.clone_src
        # Drop the links to earlier builders: only the fetch that built
        # this step reads them, and each builder would otherwise keep
        # its whole replay chain alive.
        self.replay_votes = []
        self.clone_src = None
        if src is not None:
            # Translation-replayed step: the columns are byte-identical
            # to the source step's (finalized first — builders finalize
            # in step order).
            self.columns = src.columns
        else:
            self.columns = self._build(tables, tensor_ids, extent_cap)
        if self.columns is not None:
            self.step.pin_columns(self.columns)

    def _build(self, tables: _MachineTables, tensor_ids: Dict[str, int],
               extent_cap: Optional[int]) -> Optional[CopyColumns]:
        rows = sum(c.lo.shape[0] for c in self.chunks)
        if rows == 0:
            return None
        max_nd = 0
        for c in self.chunks:
            max_nd = max(max_nd, c.lo.shape[1])
        tid = np.empty(rows, dtype=np.int64)
        lo = np.full((rows, max_nd), -1, dtype=np.int64)
        hi = np.full((rows, max_nd), -1, dtype=np.int64)
        nbytes = np.empty(rows, dtype=np.int64)
        src_proc = np.empty(rows, dtype=np.int64)
        dst_proc = np.empty(rows, dtype=np.int64)
        src_gpu = np.empty(rows, dtype=bool)
        dst_gpu = np.empty(rows, dtype=bool)
        reduce = np.zeros(rows, dtype=bool)
        at = 0
        for c in self.chunks:
            k, nd = c.lo.shape
            sl = slice(at, at + k)
            tid[sl] = c.tensor_id
            lo[sl, :nd] = c.lo
            hi[sl, :nd] = c.hi
            nbytes[sl] = c.nbytes
            src_proc[sl] = c.src_proc
            dst_proc[sl] = c.dst_proc
            src_gpu[sl] = c.src_gpu
            dst_gpu[sl] = c.dst_gpu
            reduce[sl] = c.reduce
            at += k
        # Collective groups: (reduce, tensor, rect, root endpoint).
        if all(c.distinct for c in self.chunks):
            # Pairwise-distinct rectangles per chunk and per-tensor
            # chunks: every copy is a singleton group.
            group = np.arange(rows, dtype=np.int64)
        else:
            root = np.where(reduce, dst_proc, src_proc)
            ranges = None
            if extent_cap is not None:
                n_procs = tables.node_of_proc.size
                ranges = (
                    [(0, 2), (0, len(tensor_ids) + 1)]
                    + [(-1, extent_cap + 1)] * (2 * max_nd)
                    + [(0, n_procs)]
                )
            gcols = np.empty((rows, 2 * max_nd + 3), dtype=np.int64)
            gcols[:, 0] = reduce
            gcols[:, 1] = tid
            gcols[:, 2:2 + max_nd] = lo
            gcols[:, 2 + max_nd:2 + 2 * max_nd] = hi
            gcols[:, 2 + 2 * max_nd] = root
            group = fold_rows(gcols, ranges)
        src_node = tables.node_of_proc[src_proc]
        dst_node = tables.node_of_proc[dst_proc]
        return CopyColumns(
            n=rows,
            nbytes=nbytes,
            src_proc=src_proc,
            dst_proc=dst_proc,
            src_node=src_node,
            dst_node=dst_node,
            inter=src_node != dst_node,
            reduce=reduce,
            gpu_resident=src_gpu | dst_gpu,
            src_gpu=src_gpu,
            dst_gpu=dst_gpu,
            group=group,
            num_groups=int(group.max()) + 1 if rows else 0,
            count=np.ones(rows, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# The orbit executor.
# ----------------------------------------------------------------------


class OrbitExecutor(Executor):
    """Symbolic interpreter with orbit-compressed phase execution."""

    def __init__(
        self, plan, check_capacity: bool = False, sanitize: bool = False,
        fault_plan=None, skeleton=None,
    ):
        super().__init__(
            plan, materialize=False, check_capacity=check_capacity,
            batched=True, sanitize=sanitize, fault_plan=fault_plan,
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
        self._prev_held: Dict[str, np.ndarray] = {}
        #: Coverage counters for the class-batched multi-piece
        #: redistribution, reduction flushes and leaf-level
        #: communication phases — the parity suite asserts the paths
        #: actually ran.
        self.multi_piece_batches = 0
        self.flush_batches = 0
        self.leaf_comm_phases = 0
        #: Leaf calls that replayed the previous iteration's Work.
        self.leaf_reused = 0
        #: Resolve outcomes per tensor phase (``orbit.phase_*`` in the
        #: metrics registry): full resolves, and conjugate replays of
        #: the previous phase — seamless, or with a seam of members the
        #: map does not explain. ``phase_replays`` is their sum.
        self.phase_full = 0
        self.phase_conjugate = 0
        self.phase_seam = 0
        self.phase_replays = 0

    # -- plumbing ------------------------------------------------------

    def run(self, inputs=None) -> ExecutionResult:
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
        METRICS.inc("orbit.runs")
        METRICS.inc("orbit.steps", len(self.trace.steps))
        for counter in ORBIT_COUNTERS:
            METRICS.inc(counter, getattr(self, counter[len("orbit."):]))
        if self.sanitize:
            # Orbit traces are class-compressed (one representative copy
            # per orbit); the sanitizer's hold tracking needs the full
            # per-context trace, so the debug mode replays the plan
            # through the exact batched interpreter and checks that.
            full = Executor(
                self.plan, materialize=False,
                check_capacity=self.check_capacity,
            ).run(None)
            self._sanity_check(full.trace)
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
        batch = self._leaf_work_batch(node, block)
        if not node.comm and not node.flush:
            self._orbit_leaf(node, batch, region, step)
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
        for pos, (idx, _lo, _hi, mem_rows, byte_rows, _order) in enumerate(
            regs
        ):
            events.add(mem_rows, byte_rows, idx, _EventStream.REGISTER, pos)
        self._orbit_leaf(node, batch, region, step, events=events)
        if node.flush:
            self._orbit_flush(node.flush, region, step, events)
        for pos, (idx, _lo, _hi, mem_rows, byte_rows, _order) in enumerate(
            regs
        ):
            events.add(mem_rows, -byte_rows, idx, _EventStream.RELEASE, pos)
        self.env.apply_events(*events.ordered())

    # -- orbit leaf accounting -----------------------------------------

    def _orbit_leaf(self, node: LeafNode, batch, region: "_Region",
                    step: Step, events: Optional["_EventStream"] = None):
        # Repeating iterations hand the same columns to the same region:
        # replay the previous call's Work writes. Only calls that staged
        # no output partials are memoized, so the partial-table state
        # the skipped half would consult cannot matter.
        memo = region.leaf_memo.pop(id(node), None)
        if memo is not None and _same_leaf_batch(memo[0], batch):
            self.leaf_reused += 1
            self._write_leaf_work(node, step, memo[1])
            region.leaf_memo[id(node)] = memo
            return
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
        writes = [
            (pid, float(agg_f[pid]), float(agg_b[pid]), float(agg_s[pid]),
             int(agg_i[pid]), int(cnt))
            for pid, cnt in zip(pids[first].tolist(), counts)
        ]
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
            region.leaf_memo[id(node)] = (batch, writes)
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
                     release: Optional[Dict[str, np.ndarray]] = None,
                     ) -> Dict[str, np.ndarray]:
        """Resolve and commit one communication phase for all contexts.

        Returns per-tensor mirror row ids of the newly registered
        instances (the phase's *held* set, released when its
        communicate scope ends). ``release`` is the previous phase's
        held set: releasing it here (after the commit, the scalar
        order) lets phase memos snapshot the mirror version with no
        other mutations in between.
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
        builder_before = self._builders.get(id(step))
        chunks_before = len(builder_before.chunks) if builder_before else 0
        with span("orbit.classify"):
            for pos, name in enumerate(effective):
                resolved.append(
                    self._resolve_tensor(
                        name, pos, n_names, region, block, step
                    )
                )
        # Whole-step translation replay: when every chunk of this step
        # is a translation replay of one source step's chunks, in order
        # and covering all of them, the pinned copy columns are byte-
        # identical to that step's (payloads, endpoints, flags, and the
        # group partition are all translation invariant), so finalize
        # clones them instead of re-folding.
        builder = self._builders.get(id(step))
        if builder is not None and chunks_before == 0:
            votes = builder.replay_votes
            if (
                votes
                and len(votes) == len(builder.chunks)
                and all(v[0] is votes[0][0] for v in votes)
                and [v[1] for v in votes] == list(range(len(votes)))
                and len(votes[0][0].chunks) == len(votes)
            ):
                builder.clone_src = votes[0][0]
        # Commit: register instances (pre-phase resolution is complete),
        # then charge the memory in scalar event order.
        held: Dict[str, np.ndarray] = {}
        mem_ids = []
        amounts = []
        orders = []
        for name, reg in zip(effective, resolved):
            if reg is None:
                continue
            idx, lo_rows, hi_rows, mem_rows, byte_rows, order = reg
            mirror = self.env.mirror(name)
            rows = mirror.add_rows(
                lo_rows, hi_rows, region.coords[idx], mem_rows, byte_rows
            )
            held[name] = rows
            mem_ids.append(mem_rows)
            amounts.append(byte_rows)
            orders.append(order)
        if mem_ids:
            self.env.bulk_add(
                np.concatenate(mem_ids),
                np.concatenate(amounts),
                np.concatenate(orders),
            )
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
                prev_lo, prev_hi, tensor, rem_idx,
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
        have, src_coords = self._select_winners(
            tensor, lo_f, hi_f, req_coords, holder_best, pair_req,
            pair_key, pair_coords,
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
        # Request classes and the static-row index the next phase's
        # replay carries.
        classes = self._request_classes(req_k, req_keys_cols)
        if ndim:
            self._rebuild_fixed(
                memo, mirror, inst_rows, self._prev_held.get(name), ndim
            )
        # Columnar emission for the single-source winners.
        win_pos = np.flatnonzero(have)
        emitted = None
        if win_pos.size:
            emitted = self._emit_bulk(
                step, name, region,
                fetch_idx[win_pos],
                lo_f[:, win_pos],
                hi_f[:, win_pos],
                src_coords[win_pos],
                tensor,
                distinct=classes is not None and classes.distinct,
            )
        return self._commit_memo(
            memo, region, lo_f, hi_f, fetch_idx, tensor, name_pos, n_names,
            classes, src_coords if no_src.size == 0 else None, emitted,
            shift=None, seam=0,
        )

    def _select_winners(self, tensor, req_lo, req_hi, req_coords,
                        holder_best, pair_req, pair_key, pair_coords,
                        cls=None):
        """Owner candidates plus winner selection (shared by the full
        and replay paths; owner blocks are not translation covariant).

        ``req_lo``/``req_hi`` hold one request column per fetching
        member, or one per request class when ``cls`` maps members to
        classes — the owner arithmetic then runs once per distinct
        request. Returns ``(have, src_coords)``.
        """
        mt = self._mt
        shape_vec = mt.shape
        k = req_coords.shape[0]
        ndim = tensor.ndim
        # The single-owner candidate, via the vectorized distribution
        # arithmetic; replica dims concretize to the requester's coords.
        pat, valid = tensor.format.owner_pattern_batch(
            self.machine,
            req_lo if ndim else None,
            req_hi if ndim else None,
            tensor.shape,
            count=req_lo.shape[1],
        )
        replicas = bool((pat < 0).any())
        if cls is not None:
            pat = np.take(pat, cls, axis=1)
            valid = np.take(valid, cls)
        owner = list(pat)
        if replicas:
            for d in range(shape_vec.size):
                owner[d] = np.where(
                    owner[d] >= 0, owner[d], req_coords[:, d] % shape_vec[d]
                )
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
        previous phase's held set, with their coords — probed by every
        replay."""
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
            memo.fixed_coords = mirror.coords[fixed[horder]]
        else:
            memo.fixed_hash = np.zeros(0, dtype=np.int64)
            memo.fixed_cols = np.zeros((0, 2 * ndim), dtype=np.int64)
            memo.fixed_coords = np.zeros(
                (0, self.machine.dim), dtype=np.int64
            )

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
        return _Classes(
            labels, cols[starts], np.diff(np.r_[starts, sh.size])
        )

    def _commit_memo(self, memo, region, lo_f, hi_f, fetch_idx, tensor,
                     name_pos, n_names, classes, src_coords, emitted,
                     shift, seam):
        """Build a phase's registration batch (every fetching member,
        pieces included) and remember what the next phase's conjugate
        replay carries: fetchers, request classes, winners, emission.
        The caller pins ``memo.version`` after the commit."""
        vol = np.ones(fetch_idx.size, dtype=np.int64)
        for d in range(tensor.ndim):
            vol *= hi_f[d] - lo_f[d]
        byte_rows = vol * tensor.itemsize
        mem_rows = np.take(
            self._mt.tensor_mem_of_proc(tensor),
            np.take(region.proc, fetch_idx),
        )
        order = fetch_idx.astype(np.int64) * np.int64(n_names) + name_pos
        memo.ready = classes is not None and memo.fixed_hash is not None
        memo.version = -1
        memo.fetch_idx = fetch_idx
        memo.classes = classes
        memo.src_coords = src_coords
        memo.emit = emitted
        memo.shift = shift
        memo.seam = seam
        return (fetch_idx, lo_f.T.copy(), hi_f.T.copy(), mem_rows,
                byte_rows, order)

    def _conjugate_map(self, memo, region, lo_f, hi_f, prev_lo, prev_hi,
                       rem_idx):
        """The map under which this phase is the previous one's image.

        A fetching member ``m`` is *carried* by a torus shift ``s`` and a
        translation ``d`` when the member at ``coords(m) + s`` fetched
        last phase and requested exactly ``request(m) - d``; the rest
        form the seam. The previous phase's map is tried first and kept
        while its seam does not grow; otherwise zero and the unit shifts
        are screened by how many members' preimages did not fetch, and
        the smallest seam wins, preferring ``d = 0`` (whose request
        classes carry their holders). Returns ``(s, d, prev rows,
        carried)``, or ``None`` when every map leaves over half of
        the members unexplained.
        """
        mt = self._mt
        k = rem_idx.size
        prev_row = np.full(region.n, -1, dtype=np.int64)
        prev_row[memo.fetch_idx] = np.arange(
            memo.fetch_idx.size, dtype=np.int64
        )

        def carry(s, src, pr):
            ok = pr >= 0
            ref = int(np.argmax(ok))
            delta = lo_f[:, ref] - prev_lo[:, src[ref]]
            for d in range(lo_f.shape[0]):
                ok &= lo_f[d] == np.take(prev_lo[d], src) + delta[d]
                ok &= hi_f[d] == np.take(prev_hi[d], src) + delta[d]
            rank = (bool(delta.any()), k - int(np.count_nonzero(ok)))
            return rank, (s, delta, pr, ok)

        def preimage(s):
            perm = region.perm_for_shift(s, mt)
            if perm is None:
                return None
            src = np.take(perm, rem_idx)
            return src, np.take(prev_row, src)

        best = None
        if memo.shift is not None:
            got = preimage(memo.shift)
            if got is not None:
                best = carry(memo.shift, *got)
                if best[0][1] <= memo.seam:
                    return best[1]
        eye = np.eye(mt.shape.size, dtype=np.int64)
        screened = []
        for s in np.vstack([0 * eye[:1], eye, (-eye) % mt.shape]):
            if memo.shift is not None and np.array_equal(s, memo.shift):
                continue
            got = preimage(s)
            if got is not None:
                lost = int(np.count_nonzero(got[1] < 0))
                screened.append((lost, len(screened), s, got))
        screened.sort(key=lambda c: c[:2])
        for lost, _, s, got in screened:
            if lost * 2 > k or (best is not None and (False, lost) >= best[0]):
                break
            got = carry(s, *got)
            if best is None or got[0] < best[0]:
                best = got
            if best[0][1] == 0:
                break
        if best is None or best[0][1] * 2 > k:
            return None
        return best[1]

    def _replay_conjugate(self, memo, name, name_pos, n_names, region,
                          step, lo, hi, prev_lo, prev_hi, tensor, rem_idx):
        """Resolve a phase as the conjugate image of the previous one.

        Systolic loops repeat one phase up to a torus shift ``s`` of the
        members (and their sources) and a uniform translation ``d`` of
        the request rectangles: Cannon's rotations (``d = 0``), SUMMA's
        moving broadcast roots (``s, d != 0``), plain translations
        (``s = 0``). :meth:`_conjugate_map` finds the map; members it
        does not explain form a small seam (Cannon's wrap column on
        grids narrower than its tile count).

        What the map carries is permuted, not re-derived: the request
        classes (distinct rectangles), and through them the holder
        pairs — the mirror provably holds exactly the previous phase's
        registrations plus static rows (version chain), so a class's
        holders are the previous fetchers of the class with the same
        rectangle. Seam members join classes by rectangle. Owner
        arithmetic and winner selection re-run once per class, and a
        phase whose winners and payload shapes repeat member for member
        reuses the previous emission columns outright. Anything
        unproven — a static-row match, a holder at the requester, a
        multi-piece request, a hash collision — returns ``None`` and the
        caller resolves in full.
        """
        ndim = tensor.ndim
        k = rem_idx.size
        lo_f = np.take(lo, rem_idx, axis=1)
        hi_f = np.take(hi, rem_idx, axis=1)
        found = self._conjugate_map(
            memo, region, lo_f, hi_f, prev_lo, prev_hi, rem_idx
        )
        if found is None:
            return None
        shift, delta, pr, carried = found
        prev = memo.classes
        # Request classes: carried members inherit their preimage's;
        # seam members join a class by rectangle or found new ones.
        cls_cols = prev.cols + np.concatenate([delta, delta])
        labels = np.take(prev.labels, pr)
        seam = np.flatnonzero(~carried)
        if seam.size:
            seam_cols = np.concatenate([lo_f[:, seam].T, hi_f[:, seam].T],
                                       axis=1)
            hit = _match_rows(seam_cols, cls_cols)
            labels[seam] = hit
            fresh = hit < 0
            if fresh.any():
                fcols = seam_cols[fresh]
                _, first, inv = np.unique(
                    _hash_rows(fcols), return_index=True, return_inverse=True
                )
                if not np.array_equal(fcols[first][inv], fcols):
                    return None
                labels[seam[fresh]] = cls_cols.shape[0] + inv
                cls_cols = np.concatenate([cls_cols, fcols[first]])
        counts = np.bincount(labels, minlength=cls_cols.shape[0])
        used = counts > 0
        if not used.all():
            labels = np.take(np.cumsum(used) - 1, labels)
            cls_cols = cls_cols[used]
            counts = counts[used]
        if memo.fixed_hash.size:
            fix_req, _ = _probe_index(
                memo.fixed_hash, _hash_rows(cls_cols), memo.fixed_cols,
                cls_cols,
            )
            if fix_req.size:
                return None
        # Holders: the previous fetchers of the class with this class's
        # rectangle (the same class when ``d = 0``).
        if delta.any():
            held = _match_rows(cls_cols, prev.cols)
        else:
            held = np.flatnonzero(used)
            held[held >= prev.counts.size] = -1
        hc = np.take(held, labels)
        rows = np.flatnonzero(hc >= 0)
        pair_req = np.zeros(0, dtype=np.int64)
        pair_coords = None
        req_coords = np.take(region.coords, rem_idx, axis=0)
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
            pair_req, pair_coords, req_coords, k, single=prev.distinct
        )
        # A holder at distance zero is the requester itself.
        if pair_req.size and bool((pair_key < self._mt.size).any()):
            return None
        have, src_coords = self._select_winners(
            tensor, cls_cols[:, :ndim].T, cls_cols[:, ndim:].T, req_coords,
            holder_best, pair_req, pair_key, pair_coords, cls=labels,
        )
        if not have.all():
            return None
        classes = _Classes(labels, cls_cols, counts)
        emit = memo.emit
        if (
            emit is not None
            and memo.src_coords is not None
            and np.array_equal(rem_idx, memo.fetch_idx)
            and np.array_equal(src_coords, memo.src_coords)
            and np.array_equal(
                hi_f - lo_f,
                np.take(prev_hi, rem_idx, axis=1)
                - np.take(prev_lo, rem_idx, axis=1),
            )
        ):
            # Winners and payload shapes repeat member for member: the
            # emission columns and class partition carry, only the
            # rectangles move. A pure translation also clones the step.
            emitted = self._emit_carried(
                step, emit, lo_f, hi_f, classes.distinct,
                vote=not shift.any() and seam.size == 0,
            )
        else:
            emitted = self._emit_bulk(
                step, name, region, rem_idx, lo_f, hi_f, src_coords,
                tensor, distinct=classes.distinct,
            )
        self.phase_replays += 1
        if seam.size:
            self.phase_seam += 1
        else:
            self.phase_conjugate += 1
        return self._commit_memo(
            memo, region, lo_f, hi_f, rem_idx, tensor, name_pos, n_names,
            classes, src_coords, emitted, shift, int(seam.size),
        )

    def _emit_carried(self, step, emit, lo_f, hi_f, distinct, vote):
        """Re-emit the previous phase's chunk with this phase's
        rectangles (endpoints, payloads and classes unchanged)."""
        chunk = emit.chunk
        keep = emit.keep
        kept_lo = (lo_f if keep is None else lo_f[:, keep]).T.copy()
        kept_hi = (hi_f if keep is None else hi_f[:, keep]).T.copy()
        new_chunk = _Chunk(
            tensor_id=chunk.tensor_id,
            lo=kept_lo,
            hi=kept_hi,
            nbytes=chunk.nbytes,
            src_proc=chunk.src_proc,
            dst_proc=chunk.dst_proc,
            src_gpu=chunk.src_gpu,
            dst_gpu=chunk.dst_gpu,
            reduce=False,
            distinct=distinct,
        )
        builder = self._builder(step)
        new_pos = len(builder.chunks)
        builder.chunks.append(new_chunk)
        if vote:
            # Every column but the (uniformly translated) rectangles is
            # the source chunk's, and group ids are translation
            # invariant: finalize may clone the source step's columns.
            builder.replay_votes.append((emit.builder, emit.pos))
        reps = replace(
            emit.reps, lo=kept_lo[emit.first], hi=kept_hi[emit.first]
        )
        step.defer_copies(reps)
        return _EmitInfo(
            chunk=new_chunk, pos=new_pos, builder=builder,
            keep=keep, first=emit.first, reps=reps,
        )

    def _emit_bulk(self, step: Step, name: str, region: "_Region",
                   member_idx: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   other_coords: np.ndarray, tensor, reduce: bool = False,
                   distinct: bool = False):
        """Emit one phase-tensor batch: columns plus class representatives
        (``step.copies`` builds those on first read).

        ``member_idx`` names the region contexts on one side of the
        transfer and ``other_coords`` the machine points on the other:
        for fetches (``reduce=False``) the members *receive* from the
        resolved sources; for reduction write-backs (``reduce=True``)
        the members *send* their partials to the owners.
        """
        mt = self._mt
        other_proc = np.take(
            mt.proc_of_point, _linear(other_coords, mt.strides)
        )
        member_proc = np.take(region.proc, member_idx)
        ndim = lo.shape[0]
        vol = np.ones(member_idx.size, dtype=np.int64)
        for d in range(ndim):
            vol *= hi[d] - lo[d]
        nbytes = vol * tensor.itemsize
        # The scalar `_emit_copy` rule: zero-byte copies vanish; same-
        # processor transfers vanish for fetches (over-decomposition)
        # but reduction write-backs are recorded even on one processor.
        keep = nbytes > 0
        if not reduce:
            keep &= other_proc != member_proc
        keep_mask = None
        if not keep.all():
            if not keep.any():
                return None
            keep_mask = keep
            member_idx = np.compress(keep, member_idx)
            lo = np.compress(keep, lo, axis=1)
            hi = np.compress(keep, hi, axis=1)
            other_coords = np.compress(keep, other_coords, axis=0)
            other_proc = np.compress(keep, other_proc)
            member_proc = np.compress(keep, member_proc)
            nbytes = np.compress(keep, nbytes)
        member_coords = np.take(region.coords, member_idx, axis=0)
        # Endpoint memories as the scalar `_emit_copy` prices them: the
        # instance side (fetch source / reduction destination) is the
        # tensor-preference-aware memory (`source_memory`), the context
        # side is its processor memory (host-resident data fetched by a
        # GPU context lands in its framebuffer's accounting domain).
        if reduce:
            src_proc, dst_proc = member_proc, other_proc
            src_coords, dst_coords = member_coords, other_coords
            src_mem = np.take(mt.procmem_of_proc, src_proc)
            dst_mem = np.take(mt.tensor_mem_of_proc(tensor), dst_proc)
        else:
            src_proc, dst_proc = other_proc, member_proc
            src_coords, dst_coords = other_coords, member_coords
            src_mem = np.take(mt.tensor_mem_of_proc(tensor), src_proc)
            dst_mem = np.take(mt.procmem_of_proc, dst_proc)
        src_gpu = np.take(mt.mem_gpu, src_mem)
        dst_gpu = np.take(mt.mem_gpu, dst_mem)
        builder = self._builder(step)
        chunk = _Chunk(
            tensor_id=self._tensor_ids[name],
            lo=lo.T.copy(),
            hi=hi.T.copy(),
            nbytes=nbytes,
            src_proc=src_proc,
            dst_proc=dst_proc,
            src_gpu=src_gpu,
            dst_gpu=dst_gpu,
            reduce=reduce,
            distinct=distinct,
        )
        chunk_pos = len(builder.chunks)
        builder.chunks.append(chunk)
        # Orbit classes: (shape, source offset, inter/intra) — one
        # representative copy per class, weighted by multiplicity. The
        # payload is a function of the shape, so it needs no column.
        k = nbytes.size
        mdim = mt.shape.size
        cols = [hi[d] - lo[d] for d in range(ndim)]
        for d in range(mdim):
            off = src_coords[:, d] - dst_coords[:, d]
            cols.append(np.where(off < 0, off + mt.shape[d], off))
        inter = np.take(mt.node_of_proc, src_proc) != np.take(
            mt.node_of_proc, dst_proc
        )
        cols.append(inter)
        spans = [e + 1 for e in tensor.shape] + [int(e) for e in mt.shape]
        spans.append(2)
        key = _pack_key(cols, spans) if k else None
        if key is not None and bool(((key >> 1) == (key[0] >> 1)).all()):
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
        elif key is not None:
            first, counts = _fold_keys(key)
        else:
            first, counts = fold_groups(
                np.column_stack(cols), [(0, span) for span in spans]
            )
        reps = CopyReps(
            tensor=name,
            lo=lo[:, first].T,
            hi=hi[:, first].T,
            nbytes=nbytes[first],
            count=counts,
            src_proc=src_proc[first],
            dst_proc=dst_proc[first],
            src_mem=src_mem[first],
            dst_mem=dst_mem[first],
            src_coords=src_coords[first],
            dst_coords=dst_coords[first],
            reduce=reduce,
            processors=self.machine.cluster.processors,
            memories=mt.memories,
        )
        step.defer_copies(reps)
        return _EmitInfo(
            chunk=chunk, pos=chunk_pos, builder=builder,
            keep=keep_mask, first=first, reps=reps,
        )

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

    def _release_held(self, held: Dict[str, np.ndarray]):
        for name, rows in held.items():
            mirror = self.env.mirror(name)
            self.env.bulk_sub(mirror.mem[rows], mirror.nbytes[rows])
            mirror.free_rows(rows)


class _PhaseMemo:
    """One tensor's previous communication phase, for conjugate replay.

    Holds what :meth:`OrbitExecutor._replay_conjugate` carries into the
    next phase: the request endpoints, the fetching members and their
    request classes, winners, the emission, the map that produced the
    phase and the static-instance index. ``ready`` marks a phase
    whose state a replay may build on; ``version`` pins the mirror
    after the phase's commit.
    """

    __slots__ = (
        "lo", "hi", "live_all", "ready", "version",
        "fetch_idx", "classes", "src_coords", "emit",
        "shift", "seam",
        "fixed_hash", "fixed_cols", "fixed_coords",
    )

    def __init__(self):
        self.lo = None
        self.hi = None
        self.live_all = False
        self.ready = False
        self.version = -1
        self.fetch_idx = None
        self.classes = None
        self.src_coords = None
        self.emit = None
        self.shift = None
        self.seam = 0
        self.fixed_hash = None
        self.fixed_cols = None
        self.fixed_coords = None


class _EventStream:
    """Memory add/sub events accumulated out of order, replayed exactly.

    Phases whose state mutations interleave per context (reduction
    flushes, leaf-level communication) are built as column batches in
    whatever order is convenient; each event carries a sort key
    ``(context member, phase, k2, k3, k4)`` that reproduces the scalar
    interpreter's commit order, and :meth:`ordered` emits the stream
    sorted for :meth:`OrbitState.apply_events`.
    """

    REGISTER = 0
    PARTIAL = 1
    FLUSH = 2
    RELEASE = 3

    def __init__(self):
        self._mem: List[np.ndarray] = []
        self._delta: List[np.ndarray] = []
        self._keys: List[np.ndarray] = []

    def add(self, mem, delta, k0, k1, k2=0, k3=0, k4=0):
        mem = np.asarray(mem, dtype=np.int64).reshape(-1)
        n = mem.size
        if n == 0:
            return
        self._mem.append(mem)
        self._delta.append(
            np.broadcast_to(np.asarray(delta, dtype=np.int64), (n,))
        )
        cols = [
            np.broadcast_to(np.asarray(k, dtype=np.int64), (n,))
            for k in (k0, k1, k2, k3, k4)
        ]
        self._keys.append(np.column_stack(cols))

    def ordered(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(mem_ids, deltas)`` stream in scalar event order."""
        if not self._mem:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        mem = np.concatenate(self._mem)
        delta = np.concatenate(self._delta)
        keys = np.vstack(self._keys)
        order = np.lexsort(keys.T[::-1])
        return mem[order], delta[order]


def _probe_index(sorted_hash: np.ndarray, req_k: np.ndarray,
                 sorted_cols: np.ndarray, req_cols: np.ndarray):
    """Match request rows against a pre-sorted row-hash index.

    Returns ``(pair_req, pair_pos)``: request positions (non-
    decreasing) and matching index positions, every candidate verified
    exactly on the original columns.
    """
    empty = np.zeros(0, dtype=np.int64)
    if sorted_hash.size == 0 or req_k.size == 0:
        return empty, empty
    left = np.searchsorted(sorted_hash, req_k, side="left")
    right = np.searchsorted(sorted_hash, req_k, side="right")
    cnt = right - left
    total = int(cnt.sum())
    if total == 0:
        return empty, empty
    pair_req = np.repeat(np.arange(req_k.size, dtype=np.int64), cnt)
    starts = np.cumsum(cnt) - cnt
    rank = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt)
    pair_pos = np.repeat(left, cnt) + rank
    genuine = np.all(sorted_cols[pair_pos] == req_cols[pair_req], axis=1)
    if not genuine.all():
        pair_req = pair_req[genuine]
        pair_pos = pair_pos[genuine]
    return pair_req, pair_pos


def _match_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of ``a``, the index of the equal row of ``b`` (rows
    of ``b`` pairwise distinct), or -1. The larger side is sorted and
    the smaller probes it (a binary search per probe costs more than a
    sort per element)."""
    out = np.full(a.shape[0], -1, dtype=np.int64)
    if not a.shape[0] or not b.shape[0]:
        return out
    ha = _hash_rows(a)
    hb = _hash_rows(b)
    if a.shape[0] > b.shape[0]:
        order = np.argsort(ha)
        b_pos, a_pos = _probe_index(ha[order], hb, a[order], b)
        out[order[a_pos]] = b_pos
    else:
        order = np.argsort(hb)
        a_pos, b_pos = _probe_index(hb[order], ha, b[order], a)
        out[a_pos] = order[b_pos]
    return out


def _torus_dist(a: np.ndarray, b: np.ndarray, shape: np.ndarray):
    """Per-row torus (wraparound Manhattan) distance between two
    ``(k, mdim)`` coordinate matrices."""
    dist = np.zeros(a.shape[0], dtype=np.int64)
    for d in range(a.shape[1]):
        delta = np.abs(a[:, d] - b[:, d])
        dist += np.minimum(delta, shape[d] - delta)
    return dist


def _rank_within(group: np.ndarray) -> np.ndarray:
    """Each element's rank among equal values (stable, in input order)."""
    order = np.argsort(group, kind="stable")
    sg = group[order]
    starts = np.flatnonzero(np.r_[True, sg[1:] != sg[:-1]])
    seg_len = np.diff(np.r_[starts, sg.size])
    rank_sorted = np.arange(sg.size, dtype=np.int64) - np.repeat(
        starts, seg_len
    )
    out = np.empty(group.size, dtype=np.int64)
    out[order] = rank_sorted
    return out


def _same_leaf_batch(a, b) -> bool:
    """Whether two leaf work batches carry equal columns."""
    cols = ("empty", "flops", "nbytes", "staged", "lhs_los", "lhs_his")
    return all(
        np.array_equal(getattr(x, c), getattr(y, c))
        for x, y in zip(a, b) for c in cols
    )


def _fan_out(row_class: np.ndarray, inv: np.ndarray, n_classes: int):
    """Pair each table row with every member of its class.

    ``row_class`` is each table row's class (non-decreasing) and
    ``inv`` each member's class. Returns ``(row, pos)`` per pair,
    ordered by row and then by ascending member position.
    """
    order = np.argsort(inv, kind="stable")
    size = np.bincount(inv, minlength=n_classes)
    start = np.cumsum(size) - size
    reps = size[row_class]
    row = np.repeat(np.arange(row_class.size), reps)
    within = np.arange(row.size) - np.repeat(np.cumsum(reps) - reps, reps)
    return row, order[start[row_class][row] + within]


class _Region:
    """Per-context-batch lookup tables (one plan launch region):
    each context's machine coordinates ``(n, mdim)`` and processor id."""

    def __init__(self, coords: np.ndarray, proc: np.ndarray,
                 block: CtxBlock):
        # Holding the block keeps its id — the region and phase-memo
        # key — from being reused.
        self.block = block
        self.n = proc.size
        self.coords = coords
        self.proc = proc
        self._home: Dict[str, Tuple] = {}
        self._member_of_linear: Optional[np.ndarray] = None
        self._perms: Dict[Tuple[int, ...], Optional[np.ndarray]] = {}
        #: Per leaf node: the last batch it ran and its Work writes.
        self.leaf_memo: Dict[int, Tuple] = {}

    def perm_for_shift(self, shift: np.ndarray,
                       mt: _MachineTables) -> Optional[np.ndarray]:
        """Member permutation mapping each context to the one at
        ``coords + shift`` (torus), or ``None`` if any target is not a
        member of this region."""
        key = tuple(int(s) for s in shift)
        if key in self._perms:
            return self._perms[key]
        if self._member_of_linear is None:
            table = np.full(mt.size, -1, dtype=np.int64)
            table[self.coords @ mt.strides] = np.arange(
                self.n, dtype=np.int64
            )
            self._member_of_linear = table
        target = (self.coords + shift) % mt.shape
        perm = self._member_of_linear[target @ mt.strides]
        out = None if bool(np.any(perm < 0)) else perm
        self._perms[key] = out
        return out

    def home(self, executor: OrbitExecutor, name: str):
        """Home-rectangle endpoint columns per context (lazy, cached).

        Derived for the whole region at once via
        :meth:`~repro.formats.format.Format.owned_rect_batch` — the
        per-context ``owned_rect`` walk was the dominant scalar cost of
        large-grid executions.
        """
        cached = self._home.get(name)
        if cached is not None:
            return cached
        tensor = executor.plan.tensors[name]
        ndim = tensor.ndim
        h_lo, h_hi, h_ok = tensor.format.owned_rect_batch(
            executor.machine, self.coords, tensor.shape
        )
        if ndim:
            h_ok = h_ok & np.all(h_hi > h_lo, axis=0)
            h_lo[:, ~h_ok] = 0
            h_hi[:, ~h_ok] = 0
        out = (h_lo, h_hi, h_ok)
        self._home[name] = out
        return out

