"""Execution traces: the lockstep phase record fed to the cost model.

Execution proceeds in *steps* (bulk-synchronous phases): each sequential
``communicate`` iteration opens a step whose copies are resolved against
the instance state left by the previous step, then leaf work runs. The
cost model turns a step's copy batch into collectives (broadcasts,
shifts, reductions) and its work map into compute time.

For the cost model's vectorized hot path, each step also exposes a
**columnar** view of its copy batch (:class:`CopyColumns`): one numpy
column per field (payload bytes, endpoint processors and nodes, locality
and residency flags) plus a precomputed collective-group id per copy.
The columns are derived once per step and cached; ``step.copies`` stays
the canonical record (tests and analyses construct and append ``Copy``
objects directly).

The orbit-compressed executor emits each step's class representatives
as columns (:class:`CopyReps`, plain arrays) rather than ``Copy``
objects: ``step.copies`` builds them on first read, in emission order,
so a streamed simulation that prices only the columns never creates
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.cluster import Memory, MemoryKind, Processor
from repro.util.errors import RepresentativeCopyError
from repro.util.geometry import Rect


@dataclass
class Copy:
    """One data movement: ``bytes`` of ``tensor`` from ``src`` to ``dst``.

    ``reduce`` marks reduction write-backs (the destination combines
    rather than overwrites). Copies with equal ``(tensor, rect, src)``
    within a step form a multicast; reduce copies with equal ``(tensor,
    rect, dst)`` form a reduction tree.

    ``count`` is the orbit multiplicity: the orbit-compressed executor
    records one representative copy per symmetry class, standing for
    ``count`` copies that are coordinate translations of it (same
    payload, same source offset, same inter/intra-node character).
    Ordinary execution always emits ``count == 1`` copies.
    """

    tensor: str
    rect: Rect
    nbytes: int
    src_proc: Processor
    dst_proc: Processor
    src_mem: Memory
    dst_mem: Memory
    src_coords: Tuple[int, ...] = ()
    dst_coords: Tuple[int, ...] = ()
    reduce: bool = False
    count: int = 1

    @property
    def inter_node(self) -> bool:
        return self.src_proc.node_id != self.dst_proc.node_id


@dataclass(eq=False)
class CopyReps:
    """One emission's class-representative copies, as columns.

    Row ``r`` is the representative of one orbit class: its rectangle
    (``lo``/``hi``, ``(r, ndim)``), payload, multiplicity, endpoint
    processor and memory ids (indices into ``processors`` and
    ``memories``) and endpoint machine coordinates. :meth:`copies`
    turns the rows into :class:`Copy` objects.
    """

    tensor: str
    lo: np.ndarray
    hi: np.ndarray
    nbytes: np.ndarray
    count: np.ndarray
    src_proc: np.ndarray
    dst_proc: np.ndarray
    src_mem: np.ndarray
    dst_mem: np.ndarray
    src_coords: np.ndarray
    dst_coords: np.ndarray
    reduce: bool
    processors: Sequence[Processor]
    memories: Sequence[Memory]

    def copies(self) -> List[Copy]:
        procs, mems = self.processors, self.memories
        cols = (
            self.lo, self.hi, self.nbytes, self.src_proc, self.dst_proc,
            self.src_mem, self.dst_mem, self.src_coords, self.dst_coords,
            self.count,
        )
        return [
            Copy(
                tensor=self.tensor, rect=Rect.from_bounds(lo, hi),
                nbytes=nbytes, src_proc=procs[sp], dst_proc=procs[dp],
                src_mem=mems[sm], dst_mem=mems[dm], src_coords=tuple(sc),
                dst_coords=tuple(dc), reduce=self.reduce, count=count,
            )
            for lo, hi, nbytes, sp, dp, sm, dm, sc, dc, count in zip(
                *(col.tolist() for col in cols)
            )
        ]


@dataclass
class CopyColumns:
    """Columnar view of one step's copy batch.

    Layout (all arrays have one entry per copy, in emission order):

    * ``nbytes`` — payload sizes (int64);
    * ``src_proc``/``dst_proc`` — endpoint processor ids;
    * ``src_node``/``dst_node`` — endpoint node ids;
    * ``inter`` — True where the copy crosses nodes;
    * ``reduce`` — True for reduction write-backs;
    * ``gpu_resident`` — either endpoint memory is a GPU framebuffer
      (selects the GPU-direct NIC rate for inter-node traffic);
    * ``src_gpu``/``dst_gpu`` — per-endpoint framebuffer residency
      (selects NVLink vs PCIe vs DRAM for intra-node traffic);
    * ``group`` — collective group id: copies with equal ``(tensor,
      rect, source)`` share a multicast group, reduce copies with equal
      ``(tensor, rect, destination)`` share a reduction group.

    Every row is one physical copy. Orbit class representatives (a
    :class:`Copy` with ``count > 1``) stand for members whose endpoints
    they do not carry, so :meth:`from_copies` refuses them; an orbit
    step's columns are its per-member columns, pinned by the executor.
    """

    n: int
    nbytes: np.ndarray
    src_proc: np.ndarray
    dst_proc: np.ndarray
    src_node: np.ndarray
    dst_node: np.ndarray
    inter: np.ndarray
    reduce: np.ndarray
    gpu_resident: np.ndarray
    src_gpu: np.ndarray
    dst_gpu: np.ndarray
    group: np.ndarray
    num_groups: int

    @staticmethod
    def from_copies(copies: List["Copy"]) -> "CopyColumns":
        n = len(copies)
        nbytes = np.empty(n, dtype=np.int64)
        src_proc = np.empty(n, dtype=np.int64)
        dst_proc = np.empty(n, dtype=np.int64)
        src_node = np.empty(n, dtype=np.int64)
        dst_node = np.empty(n, dtype=np.int64)
        reduce = np.empty(n, dtype=bool)
        src_gpu = np.empty(n, dtype=bool)
        dst_gpu = np.empty(n, dtype=bool)
        group = np.empty(n, dtype=np.int64)
        group_ids: Dict[tuple, int] = {}
        for i, c in enumerate(copies):
            if c.count != 1:
                raise RepresentativeCopyError(
                    f"copy {i} of {c.tensor} {c.rect} stands for "
                    f"{c.count} orbit members; price the step's "
                    f"per-member columns (step.columns()) instead"
                )
            nbytes[i] = c.nbytes
            src_proc[i] = c.src_proc.proc_id
            dst_proc[i] = c.dst_proc.proc_id
            src_node[i] = c.src_proc.node_id
            dst_node[i] = c.dst_proc.node_id
            reduce[i] = c.reduce
            src_gpu[i] = c.src_mem.kind is MemoryKind.GPU_FB
            dst_gpu[i] = c.dst_mem.kind is MemoryKind.GPU_FB
            if c.reduce:
                key = (True, c.tensor, c.rect, c.dst_proc.proc_id)
            else:
                key = (False, c.tensor, c.rect, c.src_proc.proc_id)
            gid = group_ids.get(key)
            if gid is None:
                gid = len(group_ids)
                group_ids[key] = gid
            group[i] = gid
        return CopyColumns(
            n=n,
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
            num_groups=len(group_ids),
        )


@dataclass
class Work:
    """Leaf compute accumulated on one processor within a step.

    Flops are tracked **per leaf kernel** (``kernel_flops``): one step
    can run several leaves on one processor (multi-statement leaf
    blocks, over-decomposition), and each kernel has its own efficiency.
    The seed accumulated a single flop total and priced it all at the
    *last* kernel's efficiency — the mixed-kernel clobbering bug.
    ``kernel`` remains the most recent non-None kernel name for
    analyses that just want a label.

    ``count`` is the orbit multiplicity: the orbit-compressed executor
    stores one entry per class of processors with identical timelines,
    standing for ``count`` processors. Aggregates (total flops, bytes)
    weight by it; per-processor maxima are unaffected because every
    member of the class has the same timeline.
    """

    flops: float = 0.0
    bytes_touched: float = 0.0
    # Bytes that must cross PCIe because the data lives in host memory
    # while the leaf runs on a GPU (out-of-core execution).
    staged_bytes: float = 0.0
    kernel: Optional[str] = None
    parallel: bool = False
    invocations: int = 0
    kernel_flops: Dict[Optional[str], float] = field(default_factory=dict)
    count: int = 1

    def add(
        self,
        flops: float,
        bytes_touched: float,
        kernel: Optional[str],
        parallel: bool,
        staged_bytes: float = 0.0,
    ):
        self.flops += flops
        self.bytes_touched += bytes_touched
        self.staged_bytes += staged_bytes
        self.kernel_flops[kernel] = self.kernel_flops.get(kernel, 0.0) + flops
        if kernel is not None:
            self.kernel = kernel
        self.parallel = self.parallel or parallel
        self.invocations += 1


@dataclass
class Step:
    """One lockstep phase: a copy batch followed by leaf work."""

    label: str
    copies: List[Copy] = field(default_factory=list)
    work: Dict[int, Work] = field(default_factory=dict)

    def __post_init__(self):
        self._columns: Optional[CopyColumns] = None
        self._columns_pinned = False

    def _get_copies(self) -> List[Copy]:
        if self._deferred:
            deferred, self._deferred = self._deferred, []
            for reps in deferred:
                self._copies.extend(reps.copies())
        return self._copies

    def _set_copies(self, copies: List[Copy]):
        self._copies = copies
        self._deferred: List[CopyReps] = []

    def defer_copies(self, reps: CopyReps):
        """Append class representatives to build on the first read of
        :attr:`copies` (after every copy appended before them)."""
        self._deferred.append(reps)

    def work_for(self, proc: Processor) -> Work:
        if proc.proc_id not in self.work:
            self.work[proc.proc_id] = Work()
        return self.work[proc.proc_id]

    def pin_columns(self, columns: CopyColumns):
        """Install a precomputed columnar view (orbit-compressed steps).

        The orbit executor keeps ``copies`` as class representatives
        (with multiplicities) but builds the exact per-member columns
        directly in numpy; pinning stops :meth:`columns` from rebuilding
        the view from the compressed list, which it would refuse.
        """
        self._columns = columns
        self._columns_pinned = True

    def release_columns(self):
        """Drop the columnar view once the step has been priced.

        A streamed run (``Kernel.simulate``) prices each step as it
        closes; releasing its columns keeps peak memory at one step's
        worth. A released step's view cannot be rebuilt — orbit steps
        keep only class representatives — so :meth:`columns` raises.
        """
        self._columns = None
        self._columns_pinned = True

    def columns(self) -> CopyColumns:
        """The columnar copy view, built on first use and cached.

        Invalidated by length: steps are append-only during execution,
        and the cost model reads them only after the step is complete.
        """
        if self._columns_pinned:
            if self._columns is None:
                raise RuntimeError(
                    f"step {self.label!r} was priced as it closed and its "
                    f"copy columns released; trace without a skeleton "
                    f"to keep them"
                )
            return self._columns
        if self._columns is None or self._columns.n != len(self.copies):
            self._columns = CopyColumns.from_copies(self.copies)
        return self._columns

    @property
    def total_copy_bytes(self) -> int:
        return sum(c.nbytes * c.count for c in self.copies)

    @property
    def inter_node_bytes(self) -> int:
        return sum(c.nbytes * c.count for c in self.copies if c.inter_node)

    @property
    def total_flops(self) -> float:
        return sum(w.flops * w.count for w in self.work.values())


# ``copies`` stays a dataclass field (constructor argument, equality,
# repr) but reads through the deferred representatives.
Step.copies = property(Step._get_copies, Step._set_copies)


@dataclass
class Trace:
    """The full phase record of one kernel execution.

    ``step_hook`` (when set) observes every phase boundary: it is called
    with ``(index, label)`` *before* step ``index`` is created, which is
    how fault injection interrupts an execution exactly between phases
    — the hook raises, and the trace holds precisely the completed
    steps (see :mod:`repro.faults.events`).
    """

    steps: List[Step] = field(default_factory=list)
    memory_high_water: Dict[str, int] = field(default_factory=dict)
    step_hook: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def new_step(self, label: str) -> Step:
        if self.step_hook is not None:
            self.step_hook(len(self.steps), label)
        step = Step(label=label)
        self.steps.append(step)
        return step

    @property
    def current(self) -> Step:
        if not self.steps:
            return self.new_step("start")
        return self.steps[-1]

    # ------------------------------------------------------------------
    # Aggregate statistics (used heavily by tests).
    # ------------------------------------------------------------------

    @property
    def total_copy_bytes(self) -> int:
        return sum(s.total_copy_bytes for s in self.steps)

    @property
    def inter_node_bytes(self) -> int:
        return sum(s.inter_node_bytes for s in self.steps)

    @property
    def total_flops(self) -> float:
        return sum(s.total_flops for s in self.steps)

    @property
    def copies(self) -> List[Copy]:
        return [c for s in self.steps for c in s.copies]
