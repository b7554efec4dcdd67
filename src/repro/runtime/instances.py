"""Per-memory instance tables: Legion's coherence analysis, reproduced.

Each tensor has *home* instances placed by its format's distribution
(replicas included), plus transient *cached* instances created when a task
needs data its processor does not hold. A request is resolved against the
instance state by a nearest-valid-source search:

* the requester's own home piece or cache — no copy;
* otherwise the closest holder, preferring cached neighbours over the
  distant owner. This is exactly what turns a ``rotate``-d schedule into
  systolic nearest-neighbour shifts (the neighbour still holds the chunk
  it used last step) and an un-rotated one into owner broadcasts
  (Figures 7, 8, 12 of the paper).

All instance bytes are accounted against their memory's capacity; the
high-water mark is what makes replication-heavy 3-D algorithms exhaust
GPU framebuffers at scale (Section 7.1.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.codegen.plan import DistributedPlan
from repro.machine.cluster import Memory, MemoryKind, Processor
from repro.machine.machine import Machine
from repro.util.errors import LoweringError, OutOfMemoryError
from repro.util.geometry import Rect

Coords = Tuple[int, ...]
InstanceKey = Tuple[str, Rect]

# Cache-miss sentinel (``None`` is a valid cached value).
_MISS = object()


def instance_memory(
    machine: Machine, proc: Processor, wants: MemoryKind
) -> Memory:
    """The memory an instance of a format asking for ``wants`` occupies
    on ``proc``: host-resident formats use the node's system memory,
    everything else the processor's own memory (the framebuffer on
    GPUs)."""
    if wants is MemoryKind.SYSTEM_MEM:
        return machine.cluster.nodes[proc.node_id].system_memory
    return proc.memory


class DataEnvironment:
    """Instance tables and memory accounting for one kernel execution."""

    def __init__(
        self,
        plan: DistributedPlan,
        check_capacity: bool = False,
        count_home: bool = True,
    ):
        self.plan = plan
        self.machine: Machine = plan.machine
        self.check_capacity = check_capacity
        # Cached (non-home) instances: key -> coords of holders.
        self._holders: Dict[InstanceKey, Set[Coords]] = {}
        # Memory accounting.
        self._usage: Dict[Memory, int] = {}
        self.high_water: Dict[Memory, int] = {}
        # Pending non-owned output partials: (coords, tensor) -> rects.
        self._partials: Dict[Tuple[Coords, str], List[Rect]] = {}
        # Memo tables for queries that are static for one execution: home
        # rectangles and instance memories per (tensor, machine point),
        # owner patterns/pieces per (tensor, rect). The formats and the
        # machine never change mid-run, so these never invalidate; they
        # turn the executor's per-phase re-derivations into dict hits.
        self._home_cache: Dict[Tuple[str, Coords], Optional[Rect]] = {}
        self._memory_cache: Dict[Tuple[str, Coords], Memory] = {}
        self._pattern_cache: Dict[InstanceKey, Optional[Sequence]] = {}
        self._pieces_cache: Dict[InstanceKey, List] = {}
        if count_home:
            self._account_home()

    # ------------------------------------------------------------------
    # Home instances.
    # ------------------------------------------------------------------

    def _account_home(self):
        """Charge every distinct home instance to its memory."""
        seen: Set[Tuple[str, str, Rect]] = set()
        for name, tensor in self.plan.tensors.items():
            if not tensor.format.is_distributed and tensor.ndim == 0:
                continue
            if not tensor.format.is_distributed:
                mem = self._memory_for(tuple([0] * self.machine.dim), name)
                self._add_bytes(mem, tensor.nbytes)
                continue
            for point in self.machine.points():
                rect = tensor.format.owned_rect(
                    self.machine, point, tensor.shape
                )
                if rect is None or rect.is_empty:
                    continue
                mem = self._memory_for(point, name)
                key = (name, mem.name, rect)
                if key in seen:
                    continue
                seen.add(key)
                self._add_bytes(mem, rect.volume * tensor.itemsize)

    def home_rect(self, name: str, coords: Coords) -> Optional[Rect]:
        key = (name, coords)
        cached = self._home_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        tensor = self.plan.tensors[name]
        rect = tensor.format.owned_rect(self.machine, coords, tensor.shape)
        self._home_cache[key] = rect
        return rect

    def owns(self, name: str, coords: Coords, rect: Rect) -> bool:
        """Whether the home piece at ``coords`` covers ``rect``."""
        home = self.home_rect(name, coords)
        return home is not None and home.contains(rect)

    # ------------------------------------------------------------------
    # Memory accounting.
    # ------------------------------------------------------------------

    def _memory_for(self, coords: Coords, name: str) -> Memory:
        """The memory an instance occupies at a machine point."""
        key = (name, coords)
        cached = self._memory_cache.get(key)
        if cached is not None:
            return cached
        mem = instance_memory(
            self.machine,
            self.machine.proc_at(coords),
            self.plan.tensors[name].format.memory,
        )
        self._memory_cache[key] = mem
        return mem

    def _add_bytes(self, mem: Memory, n: int):
        usage = self._usage.get(mem, 0) + n
        self._usage[mem] = usage
        if usage > self.high_water.get(mem.name, 0):
            self.high_water[mem.name] = usage
        if self.check_capacity and usage > mem.capacity_bytes:
            raise OutOfMemoryError(mem.name, usage, mem.capacity_bytes)

    def _sub_bytes(self, mem: Memory, n: int):
        self._usage[mem] = self._usage.get(mem, 0) - n

    def usage_of(self, mem: Memory) -> int:
        return self._usage.get(mem, 0)

    # ------------------------------------------------------------------
    # Request resolution.
    # ------------------------------------------------------------------

    def is_local(self, name: str, coords: Coords, rect: Rect) -> bool:
        """Requester already holds the data (home or cache)."""
        if self.owns(name, coords, rect):
            return True
        holders = self._holders.get((name, rect))
        return holders is not None and coords in holders

    def resolve(
        self, name: str, coords: Coords, rect: Rect
    ) -> List[Tuple[Coords, Rect]]:
        """Plan the copies needed to materialize ``rect`` at ``coords``.

        Pure query: sources reflect the instance state at phase start, so
        a batch of same-phase requests for one chunk all name the same
        source (the cost model then recognizes the broadcast). Call
        :meth:`register` afterwards to install the instance.
        """
        if rect.is_empty or self.is_local(name, coords, rect):
            return []
        return self._find_sources(name, coords, rect)

    def register(self, name: str, coords: Coords, rect: Rect) -> bool:
        """Install a cached instance at ``coords``; True if newly added.

        The instance occupies the tensor's preferred memory kind at that
        machine point — GPU framebuffer for framebuffer-pinned formats,
        node system memory for host-resident (out-of-core) formats.
        """
        if rect.is_empty or self.is_local(name, coords, rect):
            return False
        tensor = self.plan.tensors[name]
        mem = self._memory_for(coords, name)
        self._holders.setdefault((name, rect), set()).add(coords)
        self._add_bytes(mem, rect.volume * tensor.itemsize)
        return True

    def source_memory(self, name: str, coords: Coords, rect: Rect) -> Memory:
        """The memory a source instance occupies at a machine point."""
        return self._memory_for(coords, name)

    def resolve_batch(
        self, name: str, rect: Rect, coords_list: Sequence[Coords]
    ) -> List[List[Tuple[Coords, Rect]]]:
        """Resolve one ``(tensor, rect)`` request for a batch of requesters.

        The batched executor groups same-phase contexts by identical
        request rectangle; this resolves the whole group against the same
        pre-phase state. The shared work — holder lookup, owner pattern,
        owner pieces — happens once per group; only the per-requester
        parts (locality check, nearest-source selection, replica
        concretization) run per context. Each element of the result is
        exactly what :meth:`resolve` would return for that requester.
        """
        if rect.is_empty:
            return [[] for _ in coords_list]
        holders = self._holders.get((name, rect))
        holder_list: List[Coords] = list(holders) if holders else []
        pattern = self._owner_pattern(name, rect)
        out: List[List[Tuple[Coords, Rect]]] = []
        for coords in coords_list:
            if self.owns(name, coords, rect) or (
                holders is not None and coords in holders
            ):
                out.append([])
                continue
            out.append(
                self._sources_from(name, rect, coords, holder_list, pattern)
            )
        return out

    def _owner_pattern(self, name: str, rect: Rect):
        key = (name, rect)
        cached = self._pattern_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        tensor = self.plan.tensors[name]
        pattern = tensor.format.owner_pattern(
            self.machine, rect, tensor.shape
        )
        self._pattern_cache[key] = pattern
        return pattern

    def _owner_pieces(self, name: str, rect: Rect) -> List:
        key = (name, rect)
        cached = self._pieces_cache.get(key)
        if cached is not None:
            return cached
        tensor = self.plan.tensors[name]
        pieces = tensor.format.owner_pieces(self.machine, rect, tensor.shape)
        if not pieces:
            raise LoweringError(
                f"no valid instance found for {name} rect {rect}"
            )
        self._pieces_cache[key] = pieces
        return pieces

    def _find_sources(
        self, name: str, coords: Coords, rect: Rect
    ) -> List[Tuple[Coords, Rect]]:
        """Nearest valid source(s) for a request."""
        holders = self._holders.get((name, rect))
        return self._sources_from(
            name,
            rect,
            coords,
            list(holders) if holders else [],
            self._owner_pattern(name, rect),
        )

    def _sources_from(
        self,
        name: str,
        rect: Rect,
        coords: Coords,
        holder_list: List[Coords],
        pattern,
    ) -> List[Tuple[Coords, Rect]]:
        """Source selection shared by the scalar and batched resolvers.

        ``holder_list`` and ``pattern`` are the request's shared state,
        looked up once per call (scalar) or once per group (batched).
        """
        candidates = [(c, 0) for c in holder_list]
        if pattern is not None:
            candidates.append((self._concretize(pattern, coords), 1))
        if candidates:
            distance = self.machine.torus_distance
            # Deterministic selection: nearest source; equidistant ties
            # prefer cached neighbours over the owner (what makes
            # rotated schedules systolic even on tiny tori) and then
            # break by coordinate, so the choice is independent of
            # holder-set iteration order (the orbit executor's
            # vectorized selection reproduces the same rule).
            best = min(
                candidates,
                key=lambda cand: (distance(cand[0], coords), cand[1], cand[0]),
            )[0]
            return [(best, rect)]
        # No single source covers the request: split it across home pieces
        # (redistribution between mismatched formats).
        return [
            (self._concretize(pat, coords), piece)
            for pat, piece in self._owner_pieces(name, rect)
        ]

    def _concretize(
        self, pattern: Sequence[Optional[int]], near: Coords
    ) -> Coords:
        """Fill a pattern's free dimensions with the requester's coords
        (the nearest replica)."""
        out = []
        for dim, value in enumerate(pattern):
            if value is not None:
                out.append(value)
            else:
                out.append(near[dim] % self.machine.shape[dim])
        return tuple(out)

    def release(self, name: str, coords: Coords, rect: Rect):
        """Evict a cached instance (end of its communicate scope)."""
        holders = self._holders.get((name, rect))
        if holders is None or coords not in holders:
            return
        holders.discard(coords)
        if not holders:
            del self._holders[(name, rect)]
        tensor = self.plan.tensors[name]
        mem = self._memory_for(coords, name)
        self._sub_bytes(mem, rect.volume * tensor.itemsize)

    # ------------------------------------------------------------------
    # Output partials (reduction write-backs).
    # ------------------------------------------------------------------

    def note_partial(self, name: str, coords: Coords, rect: Rect) -> bool:
        """Record a non-owned output write; True if a new partial instance
        was created (and charged to memory)."""
        if self.owns(name, coords, rect):
            return False
        key = (coords, name)
        rects = self._partials.setdefault(key, [])
        if rect in rects:
            return False
        rects.append(rect)
        tensor = self.plan.tensors[name]
        mem = self._memory_for(coords, name)
        self._add_bytes(mem, rect.volume * tensor.itemsize)
        return True

    def stage_reduction(self, name: str, owner: Coords, rect: Rect):
        """Charge the transient instance an owner materializes to fold an
        incoming reduction (Legion stages reduction instances before
        applying them; this pressure is part of what exhausts GPU
        framebuffers under heavy replication)."""
        tensor = self.plan.tensors[name]
        mem = self._memory_for(owner, name)
        nbytes = rect.volume * tensor.itemsize
        self._add_bytes(mem, nbytes)
        self._sub_bytes(mem, nbytes)

    def flush_partials(
        self, name: str, coords: Coords
    ) -> List[Tuple[Rect, Coords]]:
        """Pop pending partials for reduction back to their owners.

        Returns ``(rect, owner coords)`` pairs; frees the partial bytes.
        """
        key = (coords, name)
        rects = self._partials.pop(key, [])
        tensor = self.plan.tensors[name]
        mem = self._memory_for(coords, name)
        out = []
        for rect in rects:
            self._sub_bytes(mem, rect.volume * tensor.itemsize)
            pattern = tensor.format.owner_pattern(
                self.machine, rect, tensor.shape
            )
            if pattern is None:
                pieces = tensor.format.owner_pieces(
                    self.machine, rect, tensor.shape
                )
                for pat, piece in pieces:
                    out.append((piece, self._concretize(pat, coords)))
            else:
                out.append((rect, self._concretize(pattern, coords)))
        return out
