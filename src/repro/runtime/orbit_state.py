"""Columnar state behind the orbit executor (:mod:`repro.runtime.orbit`).

Collision-free row keys and row hashes for vectorized joins, the
per-machine lookup tables, the columnar instance mirrors and partial
tables, the memory accounting (:class:`OrbitState`), the per-step
copy-column builder every emission path feeds (:class:`_StepBuilder`),
and the executor's phase memos, event streams, join helpers and launch
regions.

Kept apart from the executor because Python compiles each module from
source whenever no bytecode cache is written: one module holding both
left about 2.7 MB more resident after its import than the two halves
(8.1 against 5.4 MB), and the compile peak of the larger module sets
the import's high-water mark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.machine.cluster import MemoryKind
from repro.machine.machine import Machine
from repro.runtime.trace import CopyColumns, Step
from repro.util.errors import OutOfMemoryError

if TYPE_CHECKING:
    from repro.runtime.batchbounds import CtxBlock
    from repro.runtime.orbit import OrbitExecutor

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


def _fold_keys(key: np.ndarray):
    """Equal-key groups of an int64 key column: ``(first, counts,
    dense)`` with ``first`` and ``counts`` in key order, as
    :func:`fold_groups` orders them. A dense key range folds by
    counting, with no sort; ``dense`` is then ``(keys - min, rank)``
    (``rank``: each dense key's group), from which :func:`_first_rows`
    finds the groups of a permutation of the rows again, else
    ``None``."""
    base = int(key.min())
    span = int(key.max()) - base + 1
    if span <= 4 * key.size + 1024:
        dense = key - base
        full = np.bincount(dense, minlength=span)
        present = full > 0
        rank = np.cumsum(present) - 1
        counts = full[present]
        return _first_rows(dense, rank, counts.size), counts, (dense, rank)
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    first = np.full(counts.size, key.size, dtype=np.int64)
    np.minimum.at(first, inv, np.arange(key.size, dtype=np.int64))
    return first, counts, None


def _first_rows(dense: np.ndarray, rank: np.ndarray,
                n_groups: int) -> np.ndarray:
    """Each group's first row, the rows' groups being ``rank[dense]``:
    found in a short prefix when every group shows up there (a
    systolic phase's groups do, within a grid row), else by a scan."""
    head = 8 * n_groups + 256
    if head < dense.size:
        groups, first = np.unique(
            np.take(rank, dense[:head]), return_index=True
        )
        if groups.size == n_groups:
            return first
    first = np.full(n_groups, dense.size, dtype=np.int64)
    np.minimum.at(
        first, np.take(rank, dense), np.arange(dense.size, dtype=np.int64)
    )
    return first


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
    """Numpy lookup tables for grid points, processors and memories,
    and the grid-scoped memos every run on the machine shares.

    A tune builds one machine per grid (``tuner.oracle.grid_machine``),
    so its candidates on one grid share these tables. One memo holds
    what the candidates would otherwise each derive again, the
    **homes**: per ``(Format.key(), shape)``, every grid point's home
    rectangle ``(lo, hi, ok)`` (:meth:`home`), and per ``(Format.key(),
    shape, itemsize)`` the distinct home-instance charges
    (:meth:`home_charges`). Steps and leaf work are not memoized across
    runs: the traffic repeats too few of them to pay for a key.

    Keys are structural (a format's notation and memory kind, never an
    object's identity), so an entry is exactly what a fresh derivation
    would give. The memos live and die with the machine; every array
    they hand out is read-only. ``home_hits`` counts home lookups the
    tables answered.
    """

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
        #: Point ``i`` runs on processor ``i`` (the table is the identity).
        self.points_are_procs = bool(
            (table == np.arange(self.size)).all()
        )
        #: Each grid point on its own processor: collective-group keys
        #: (which name roots by processor) then move rigidly with the
        #: grid points, so a carried step may carry its group partition.
        self.bijective = self.size == n_procs and bool(
            (np.bincount(table, minlength=n_procs) == 1).all()
        )
        #: Framebuffer residency of each processor's own memory.
        self.proc_gpu = self.mem_gpu[self.procmem_of_proc]
        self._tensor_mem: Dict[Tuple[str, str], np.ndarray] = {}
        self._residency: Dict[Optional[Tuple[str, str]], Tuple] = {}
        self._homes: Dict[Tuple, Tuple[np.ndarray, ...]] = {}
        self._home_charges: Dict[Tuple, Tuple[np.ndarray, ...]] = {}
        self._rigid: Dict[Tuple[int, ...], bool] = {}
        self.home_hits = 0

    def node_rigid(self, shift: np.ndarray) -> bool:
        """Whether moving every grid point by ``-shift`` (torus) maps
        nodes onto nodes: two points then share a node exactly when
        their images do, so a moved copy keeps its inter-node flag."""
        key = tuple(int(s) for s in shift)
        out = self._rigid.get(key)
        if out is None:
            node = self.node_of_proc[self.proc_of_point]
            moved = node[((self.point_coords - shift) % self.shape)
                         @ self.strides]
            image = np.full(int(node.max()) + 1, -1, dtype=np.int64)
            image[node] = moved
            out = bool((image[node] == moved).all()) and int(
                np.bincount(image[image >= 0]).max()
            ) <= 1
            self._rigid[key] = out
        return out

    def home(self, machine: Machine, fmt, shape) -> Tuple[np.ndarray, ...]:
        """:meth:`~repro.formats.format.Format.owned_rect_batch` over
        every grid point (row-major, as ``point_coords``): ``(ndim,
        size)`` endpoint columns and the per-point ``ok`` flags."""
        key = (fmt.key(), tuple(shape))
        cached = self._homes.get(key)
        if cached is not None:
            self.home_hits += 1
            return cached
        cached = self._homes[key] = _read_only(
            fmt.owned_rect_batch(machine, self.point_coords, shape)
        )
        return cached

    def home_charges(self, machine: Machine, tensor) -> Tuple[np.ndarray, ...]:
        """A distributed tensor's distinct home instances: the memory,
        byte charge and grid point of each, in grid-point order.
        Replicas collapse to one charge per distinct ``(memory,
        rectangle)``."""
        fmt = tensor.format
        key = (fmt.key(), tuple(tensor.shape), tensor.itemsize)
        cached = self._home_charges.get(key)
        if cached is not None:
            self.home_hits += 1
            return cached
        lo, hi, ok = self.home(machine, fmt, tensor.shape)
        live = ok
        vol = np.ones(self.size, dtype=np.int64)
        for d in range(tensor.ndim):
            vol *= hi[d] - lo[d]
            live = live & (hi[d] > lo[d])
        sel = np.flatnonzero(live)
        mem_ids = self.tensor_mem_of_proc(tensor)[self.proc_of_point[sel]]
        rows = np.column_stack([mem_ids, lo[:, sel].T, hi[:, sel].T])
        _, first = np.unique(fold_rows(rows), return_index=True)
        first.sort()
        take = sel[first]
        cached = self._home_charges[key] = _read_only(
            (mem_ids[first], vol[take] * tensor.itemsize, take)
        )
        return cached

    def residency(self, tensor=None) -> Tuple[np.ndarray, Optional[bool]]:
        """Framebuffer residency per processor of its own memory
        (``tensor=None``) or of a tensor's instance memory
        (:meth:`tensor_mem_of_proc`), with the one value every processor
        shares (``None`` when they differ); see :func:`gpu_flags`."""
        key = None if tensor is None else (
            tensor.name, tensor.format.memory.value
        )
        cached = self._residency.get(key)
        if cached is None:
            flags = (
                self.proc_gpu if tensor is None
                else self.mem_gpu[self.tensor_mem_of_proc(tensor)]
            )
            uniform = None
            if flags.all() or not flags.any():
                uniform = bool(flags[0])
            cached = self._residency[key] = (flags, uniform)
        return cached

    def tensor_mem_of_proc(self, tensor) -> np.ndarray:
        """Memory id a tensor instance occupies, per processor.

        Mirrors :func:`~repro.runtime.instances.instance_memory`:
        framebuffer-pinned formats use the processor memory (which *is*
        the framebuffer on GPUs), host-resident formats use the node
        system memory when one exists.
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


def _read_only(arrays) -> Tuple[np.ndarray, ...]:
    """``arrays`` as a tuple, each array made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return tuple(arrays)


def gpu_flags(residency, procs: np.ndarray) -> np.ndarray:
    """A :meth:`_MachineTables.residency` per processor of ``procs``: a
    fill when every processor shares one value (homogeneous clusters),
    a gather otherwise."""
    flags, uniform = residency
    if uniform is None:
        return np.take(flags, procs)
    return (np.ones if uniform else np.zeros)(procs.shape, dtype=bool)


def machine_tables(machine: Machine) -> _MachineTables:
    tables = getattr(machine, "_orbit_tables", None)
    if tables is None:
        tables = _MachineTables(machine)
        machine._orbit_tables = tables
    return tables


# ----------------------------------------------------------------------
# Columnar instance mirror (the orbit-mode holder tables).
# ----------------------------------------------------------------------


class _Registration:
    """One tensor phase's registrations: a cached instance per fetching
    member, as columns.

    ``idx`` holds the fetching members (region rows), ``lo``/``hi``
    their ``(ndim, k)`` request columns, ``proc``, ``mem`` and
    ``nbytes`` the processor, instance memory and payload per member.
    ``uniform`` is the one payload every member has, or ``None``;
    :meth:`charges` sums the payloads per memory, once. A registration
    enters its tensor's mirror as a block whose rows are written only
    when the mirror is read (:meth:`_Mirror.snapshot`); ``rows`` holds
    them once written.
    """

    __slots__ = (
        "idx", "lo", "hi", "proc", "mem", "nbytes", "uniform", "site",
        "coords", "rows", "_charges",
    )

    def __init__(self, idx, lo, hi, proc, mem, nbytes, uniform, site,
                 coords, charges=None):
        self.idx = idx
        self.lo = lo
        self.hi = hi
        self.proc = proc
        self.mem = mem
        self.nbytes = nbytes
        self.uniform = uniform
        #: ``(position, names)`` of the tensor in its fetch list.
        self.site = site
        #: The region's coordinate table (holder coords are ``coords[idx]``).
        self.coords = coords
        self.rows = None
        self._charges = charges

    def order(self) -> np.ndarray:
        """The scalar commit order key of each registration."""
        pos, names = self.site
        return self.idx * np.int64(names) + pos

    def charges(self, n_mem: int) -> np.ndarray:
        """Bytes per memory (read-only; shared by registrations the
        replay proves equal)."""
        if self._charges is None:
            if self.uniform is None:
                self._charges = np.bincount(
                    self.mem, weights=self.nbytes.astype(np.float64),
                    minlength=n_mem,
                ).astype(np.int64)
            else:
                self._charges = np.bincount(
                    self.mem, minlength=n_mem
                ) * np.int64(self.uniform)
        return self._charges


class _Mirror:
    """Columnar cached-instance store for one tensor.

    Rows are ``(rect lo, rect hi, holder coords, memory, bytes)``.
    Freed rows are recycled, so the arrays stay bounded by the peak
    number of live instances. Row ids are stable for the lifetime of
    the instance. A phase registers its instances as a block
    (:meth:`add_block`) whose rows are written on the next read
    (:meth:`snapshot`): a steady phase's block is usually released a
    phase later unread, and then never costs a row write.
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
        #: Live blocks whose rows are not written yet.
        self._pending: List[_Registration] = []

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

    def add_block(self, reg: _Registration):
        """Register a phase's instances; rows are written on first read."""
        self._pending.append(reg)
        self.version += 1

    def release_block(self, reg: _Registration):
        """Drop a block registered by :meth:`add_block`."""
        if reg.rows is None:
            self._pending = [b for b in self._pending if b is not reg]
            self.version += 1
        else:
            self.free_rows(reg.rows)

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
        return rows

    def free_rows(self, rows: np.ndarray):
        self.alive[rows] = False
        self._free = np.concatenate([self._free, rows])
        self.version += 1

    def snapshot(self) -> np.ndarray:
        """Row ids of all live instances, pending blocks written first
        (the contents do not change, so neither does the version)."""
        for reg in self._pending:
            reg.rows = self.add_rows(
                reg.lo.T, reg.hi.T, reg.coords[reg.idx], reg.mem,
                reg.nbytes,
            )
        self._pending = []
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

    @property
    def n_mem(self) -> int:
        return self._usage_arr.size

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
        adds = np.bincount(
            mem_ids, weights=amounts.astype(np.float64), minlength=self.n_mem
        ).astype(np.int64)
        self.charge(adds, lambda: (mem_ids, amounts, order))

    def charge(self, adds, events):
        """:meth:`bulk_add` from the per-memory sums ``adds``;
        ``events()`` gives the ``(mem_ids, amounts, order)`` columns,
        read only to replay a capacity overflow."""
        new_usage = self._usage_arr + adds
        if self.check_capacity and bool(
            np.any(new_usage > self._mt.mem_capacity)
        ):
            mem_ids, amounts, order = events()
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

    def discharge(self, subs):
        """Release per-memory sums charged earlier."""
        self._usage_arr = self._usage_arr - subs

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

        Vectorized replacement of the scalar per-point loop: each
        distributed tensor's distinct charges come from the grid's
        table (:meth:`_MachineTables.home_charges`, derived once per
        format, shape and item size), and the
        charges commit through :meth:`bulk_add` in the scalar event
        order (tensor-major, machine-point-minor), so OOM outcomes are
        byte-identical to the reference interpreter.
        """
        mt = self._mt
        size = mt.size
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
            mem_ids, amounts, take = mt.home_charges(self.machine, tensor)
            if take.size == 0:
                continue
            mem_chunks.append(mem_ids)
            amount_chunks.append(amounts)
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
    """One emitted phase-tensor batch, with what a replay carries."""

    chunk: "_Chunk"
    pos: int
    builder: "_StepBuilder"
    keep: Optional[np.ndarray]  # row filter over the member set, or None
    #: Orbit-class key without the inter-node bit, per member (before
    #: the row filter); ``None`` when the key does not pack.
    key_hi: Optional[np.ndarray]
    #: Every member has the same key.
    key_uniform: bool = False
    #: Each row's inter-node flag.
    inter: Optional[np.ndarray] = None
    #: The class fold's ``(dense keys, rank, counts)`` per row, when the
    #: keys differ and fold densely (:func:`_fold_keys`).
    fold: Optional[Tuple[np.ndarray, ...]] = None


@dataclass
class _Classes:
    """One phase's request classes: the distinct rectangles its
    fetching members request, with their row hashes and owners."""

    labels: np.ndarray  # class per fetching member
    cols: np.ndarray    # (classes, 2 * ndim) endpoints, lo then hi
    counts: np.ndarray  # fetching members per class
    hash: np.ndarray    # _hash_rows(cols)
    #: ``(sorted hash, class order)``: the index seam members probe,
    #: or ``None`` until first needed.
    index: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: Owner pattern and validity per class (``owner_pattern_batch``),
    #: set by a replay, and the owner's linear index (``None`` when the
    #: pattern has replica dimensions).
    pat: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None
    own_lin: Optional[np.ndarray] = None
    #: No class has two members (classes may have none: a replay keeps
    #: classes nobody requests for a while).
    distinct: bool = field(init=False)

    def __post_init__(self):
        self.distinct = int(self.counts.max(initial=0)) <= 1


@dataclass
class _Chunk:
    """One bulk emission batch (one tensor, one phase)."""

    tensor_id: int
    lo: np.ndarray  # (ndim, k) rectangle endpoint columns
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
    #: Set when every row is the image of a row of an earlier chunk
    #: under a conjugate map: ``(builder, chunk index, rows, same)``
    #: where ``rows`` maps this chunk's rows to that chunk's (``None``:
    #: the identity) and ``same`` says the columns are equal outright
    #: (identity rows, zero shift).
    carry: Optional[Tuple] = None


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
    #: The finalized columns (``None`` for a step without copies). Kept
    #: here rather than read back from the step, whose columns a
    #: streamed run releases once priced; a carried step reads them.
    columns: Optional[CopyColumns] = None

    def finalize(self, tables: _MachineTables, tensor_ids: Dict[str, int],
                 extent_cap: int = None):
        src = self._carried_from()
        # Drop the links to earlier builders: only this finalize reads
        # them, and each builder would otherwise keep its whole replay
        # chain alive.
        for c in self.chunks:
            c.carry = None
        if src is not None and src[1] is None:
            # Every chunk equals its source chunk outright: the columns
            # are the source step's (finalized first — builders
            # finalize in step order).
            self.columns = src[0].columns
        else:
            self.columns = self._build(tables, tensor_ids, extent_cap, src)
        if self.columns is not None:
            self.step.pin_columns(self.columns)

    def _carried_from(self):
        """``(source builder, rows)`` when every chunk carries, in
        order, every chunk of one earlier finalized step: ``rows`` maps
        this step's rows to that step's (``None`` when the columns are
        equal outright); else ``None``."""
        if not self.chunks or self.chunks[0].carry is None:
            return None
        src = self.chunks[0].carry[0]
        if src.columns is None or len(src.chunks) != len(self.chunks):
            return None
        for pos, c in enumerate(self.chunks):
            if c.carry is None or c.carry[0] is not src or c.carry[1] != pos:
                return None
        if all(c.carry[3] for c in self.chunks):
            return src, None
        parts = []
        at = 0
        for c, s in zip(self.chunks, src.chunks):
            rows = c.carry[2]
            k = s.nbytes.size
            parts.append(
                np.arange(at, at + k, dtype=np.int64) if rows is None
                else rows + at
            )
            at += k
        return src, np.concatenate(parts)

    def _build(self, tables: _MachineTables, tensor_ids: Dict[str, int],
               extent_cap: Optional[int], src=None) -> Optional[CopyColumns]:
        sizes = [c.nbytes.size for c in self.chunks]
        rows = sum(sizes)
        if rows == 0:
            return None
        tid = np.empty(rows, dtype=np.int64)
        nbytes = np.empty(rows, dtype=np.int64)
        src_proc = np.empty(rows, dtype=np.int64)
        dst_proc = np.empty(rows, dtype=np.int64)
        src_gpu = np.empty(rows, dtype=bool)
        dst_gpu = np.empty(rows, dtype=bool)
        reduce = np.zeros(rows, dtype=bool)
        at = 0
        for c, k in zip(self.chunks, sizes):
            sl = slice(at, at + k)
            tid[sl] = c.tensor_id
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
            max_nd = max(c.lo.shape[0] for c in self.chunks)
            ranges = None
            if extent_cap is not None:
                n_procs = tables.node_of_proc.size
                ranges = (
                    [(0, 2), (0, len(tensor_ids) + 1)]
                    + [(-1, extent_cap + 1)] * (2 * max_nd)
                    + [(0, n_procs)]
                )

            def keys(at):
                # Group key rows of the step rows ``at`` (``None``: all);
                # rectangles are gathered from the chunks' columns.
                n = rows if at is None else at.size
                sel = slice(None) if at is None else at
                gcols = np.full((n, 2 * max_nd + 3), -1, dtype=np.int64)
                gcols[:, 0] = reduce[sel]
                gcols[:, 1] = tid[sel]
                gcols[:, 2 + 2 * max_nd] = np.where(
                    reduce[sel], dst_proc[sel], src_proc[sel]
                )
                start = 0
                for c, k in zip(self.chunks, sizes):
                    if at is None:
                        mine, local = slice(start, start + k), slice(None)
                    else:
                        mine = np.flatnonzero((at >= start) & (at < start + k))
                        local = at[mine] - start
                    nd = c.lo.shape[0]
                    gcols[mine, 2:2 + nd] = c.lo[:, local].T
                    gcols[mine, 2 + max_nd:2 + max_nd + nd] = c.hi[:, local].T
                    start += k
                return fold_rows(gcols, ranges)

            if src is not None:
                # A carried step's group keys are its source rows' keys
                # moved by a translation of the rectangles and a shift
                # of the roots, so the partition carries through the
                # row map; one representative row per group ranks the
                # groups as the full fold would.
                carried = np.take(src[0].columns.group, src[1])
                rep = np.empty(src[0].columns.num_groups, dtype=np.int64)
                rep[carried] = np.arange(rows, dtype=np.int64)
                group = np.take(keys(rep), carried)
            else:
                group = keys(None)
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
        )


# ----------------------------------------------------------------------
# Phase memos, event streams, join helpers and launch regions.
# ----------------------------------------------------------------------


class _PhaseMemo:
    """One tensor's previous communication phase, for conjugate replay.

    Holds what :meth:`OrbitExecutor._replay_conjugate` carries into the
    next phase: the request endpoints, the fetching members (and their
    position table, ``prev_row``) and their request classes, sources,
    the emission, the maps that produced the last phases (``shifts``,
    newest first; ``alternating`` when the last replay took the older
    one), translated class owners derived ahead (``owners_ahead``) and
    the static-instance index. ``ready`` marks a phase whose
    state a replay may build on; ``version`` pins the mirror after the
    phase's commit.
    """

    __slots__ = (
        "lo", "hi", "live_all", "ready", "version",
        "reg", "fetch_idx", "prev_row", "classes", "sources", "emit",
        "shifts", "alternating", "seam", "probed", "owners_ahead",
        "fixed_hash", "fixed_cols",
    )

    def __init__(self):
        self.lo = None
        self.hi = None
        self.live_all = False
        self.ready = False
        self.version = -1
        self.reg = None
        self.fetch_idx = None
        self.prev_row = None
        self.classes = None
        self.sources = None
        self.emit = None
        self.shifts = []
        self.alternating = False
        self.owners_ahead = None
        self.seam = 0
        self.probed = False
        self.fixed_hash = None
        self.fixed_cols = None


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
                 sorted_cols: np.ndarray, req_cols: np.ndarray,
                 order: Optional[np.ndarray] = None):
    """Match request rows against a pre-sorted row-hash index.

    Returns ``(pair_req, pair_pos)``: request positions (non-
    decreasing) and matching index positions, every candidate verified
    exactly on the original columns. With ``order`` the columns are
    unsorted: index position ``i`` is row ``order[i]`` of them.
    """
    empty = np.zeros(0, dtype=np.int64)
    if sorted_hash.size == 0 or req_k.size == 0:
        return empty, empty
    left = np.searchsorted(sorted_hash, req_k, side="left")
    right = np.searchsorted(sorted_hash, req_k, side="right")
    cnt = right - left
    if int(cnt.max()) <= 1:
        # At most one candidate per request (distinct index hashes).
        pair_req = np.flatnonzero(cnt)
        if not pair_req.size:
            return empty, empty
        pair_pos = np.take(left, pair_req)
    else:
        total = int(cnt.sum())
        pair_req = np.repeat(np.arange(req_k.size, dtype=np.int64), cnt)
        starts = np.cumsum(cnt) - cnt
        rank = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt)
        pair_pos = np.repeat(left, cnt) + rank
    at = pair_pos if order is None else np.take(order, pair_pos)
    genuine = np.all(sorted_cols[at] == req_cols[pair_req], axis=1)
    if not genuine.all():
        pair_req = pair_req[genuine]
        pair_pos = pair_pos[genuine]
    return pair_req, pair_pos


def _concat_owners(a, b):
    """Two class tables' ``(pattern, validity, owner linear index)``,
    concatenated."""
    return (
        np.concatenate([a[0], b[0]], axis=1),
        np.concatenate([a[1], b[1]]),
        None if a[2] is None or b[2] is None
        else np.concatenate([a[2], b[2]]),
    )


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


def _same_columns(a, b) -> bool:
    """Whether two equally long lists of columns (arrays or scalars)
    are equal element for element."""
    return all(x is y or np.array_equal(x, y) for x, y in zip(a, b))


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
        self._linear: Optional[np.ndarray] = None
        self._grid: Optional[bool] = None
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
        target = (self.coords + shift) % mt.shape
        perm = self.member_of(mt)[target @ mt.strides]
        out = None if bool(np.any(perm < 0)) else perm
        self._perms[key] = out
        return out

    def linear(self, mt: _MachineTables) -> np.ndarray:
        """Each member's grid point as a linear index."""
        if self._linear is None:
            self._linear = _linear(self.coords, mt.strides)
        return self._linear

    def is_grid(self, mt: _MachineTables) -> bool:
        """Whether the members are the grid's points in row-major
        order: member ``i`` is point ``i``."""
        if self._grid is None:
            self._grid = self.n == mt.size and bool(
                (self.linear(mt) == np.arange(self.n)).all()
            )
        return self._grid

    def member_of(self, mt: _MachineTables) -> np.ndarray:
        """The member at each grid point (linear index), or -1."""
        if self._member_of_linear is None:
            table = np.full(mt.size, -1, dtype=np.int64)
            table[self.linear(mt)] = np.arange(
                self.n, dtype=np.int64
            )
            self._member_of_linear = table
        return self._member_of_linear

    def home(self, executor: OrbitExecutor, name: str):
        """Home-rectangle endpoint columns per context (lazy, cached),
        gathered from the grid's home table
        (:meth:`~repro.runtime.orbit_state._MachineTables.home`); empty
        pieces count as not held and read zero."""
        cached = self._home.get(name)
        if cached is not None:
            return cached
        tensor = executor.plan.tensors[name]
        mt = executor._mt
        lo, hi, ok = mt.home(executor.machine, tensor.format, tensor.shape)
        at = self.linear(mt)
        h_lo, h_hi, h_ok = lo[:, at], hi[:, at], ok[at]
        if tensor.ndim:
            h_ok = h_ok & np.all(h_hi > h_lo, axis=0)
            h_lo[:, ~h_ok] = 0
            h_hi[:, ~h_ok] = 0
        out = (h_lo, h_hi, h_ok)
        self._home[name] = out
        return out
