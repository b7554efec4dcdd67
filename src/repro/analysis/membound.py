"""Pass 2: per-node peak-footprint bounds from the decision vector alone.

The bound mirrors the runtime's instance accounting
(:class:`~repro.runtime.instances.DataEnvironment`) without executing
anything, for the *fullest* memory — node 0's (the first grid points
land there row-major, so it carries the ceil-sized leading blocks, the
0-face output homes, and every origin-homed undistributed tensor; no
other node holds more).

Resident classes, in the order the executor creates them:

* **home** — every distinct home instance the formats place in the
  target memory, deduplicated by ``(tensor, rect)`` exactly as
  ``DataEnvironment._account_home`` does. Exact, so it alone is already
  strictly tighter than the oracle's historical floor-block estimate.
* **task staging** — each task's one-shot fetches (inputs not in
  ``step_comm``) register the full request rectangle when the home
  piece does not cover it, and stay resident until task end. Exact.
* **step staging** — per-step fetches of sequenced inputs. The lower
  bound takes the smallest chunk any step can leave resident; the upper
  bound doubles the largest chunk (the executor registers the next
  chunk before releasing the stale one).
* **partials** — a task that does not own its output rectangle holds a
  partial instance from its first leaf until the task-end flush. Exact.

All four coexist at the end of the last step's leaf, so
``lower = home + task + step_lb + partials`` is a true peak lower
bound; ``upper`` adds the chunk double-hold and the owner's transient
reduction-staging instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.formats.distribution import Fixed
from repro.ir.expr import IndexVar
from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.util.geometry import (
    Interval,
    Rect,
    ceil_div,
    split_evenly,
)

#: Above this many grid points, node-0 membership is not enumerated.
_POINT_LIMIT = 1 << 16


@dataclass(frozen=True)
class MemoryBound:
    """Peak-footprint bounds for the fullest memory of a candidate."""

    memory_name: str
    capacity_bytes: int
    lower_bytes: int
    upper_bytes: int
    home_bytes: int
    task_staging_bytes: int
    step_staging_lower: int
    step_staging_upper: int
    partial_bytes: int

    @property
    def infeasible(self) -> bool:
        """Provably over capacity before any simulation."""
        return self.lower_bytes > self.capacity_bytes

    def describe(self) -> str:
        mib = 1024 * 1024
        return (
            f"{self.memory_name}: peak in "
            f"[{self.lower_bytes / mib:.1f}, {self.upper_bytes / mib:.1f}] "
            f"MiB of {self.capacity_bytes / mib:.1f} MiB "
            f"(home {self.home_bytes / mib:.1f}, "
            f"staged {self.task_staging_bytes / mib:.1f}"
            f"+[{self.step_staging_lower / mib:.1f}, "
            f"{self.step_staging_upper / mib:.1f}], "
            f"partials {self.partial_bytes / mib:.1f})"
        )


def memory_bounds(
    assignment: Assignment,
    decision,
    cluster: Cluster,
    memory: MemoryKind = MemoryKind.SYSTEM_MEM,
    machine: Optional[Machine] = None,
) -> MemoryBound:
    """Bound the peak footprint of node 0's target memory statically.

    ``machine`` is the decision's grid on ``cluster`` (a fresh one when
    ``None``).
    """
    from repro.runtime.orbit_state import machine_tables
    from repro.tuner.space import formats_for

    if machine is None:
        machine = Machine(cluster, Grid(*decision.grid))
    formats = formats_for(assignment, decision, memory)
    per_node = memory is MemoryKind.SYSTEM_MEM
    linears = _target_points(machine, cluster, per_node)
    tables = machine_tables(machine)
    points = [tuple(p) for p in tables.point_coords[linears].tolist()]
    if per_node:
        target = cluster.nodes[0].system_memory
    else:
        target = cluster.processors[0].memory
    domains = {v.name: e for v, e in assignment.domains().items()}
    tensors = assignment.tensors()
    # Every tensor's home rectangle at every target point, from the
    # grid's home table.
    owned = {
        tensor.name: _owned_rects(
            tables.home(machine, formats[tensor.name], tensor.shape),
            linears,
        )
        for tensor in tensors
    }
    output = tensors[0]
    accesses_by_tensor: Dict[str, List] = {}
    for access in assignment.accesses():
        accesses_by_tensor.setdefault(access.tensor.name, []).append(access)

    home = 0
    seen_home: set = set()
    for tensor in tensors:
        if not formats[tensor.name].is_distributed:
            if tensor.ndim == 0:
                continue
            # Undistributed: one instance at the origin (node 0).
            home += tensor.nbytes
            continue
        for rect in owned[tensor.name]:
            if rect is None or rect.is_empty:
                continue
            key = (tensor.name, rect)
            if key in seen_home:
                continue
            seen_home.add(key)
            home += rect.volume * tensor.itemsize

    output_read = assignment.accumulate or any(
        a.tensor.name == output.name for a in assignment.accesses()[1:]
    )
    # A 0-face-homed output means non-face tasks exist that flush their
    # partials to the face owners; each flush transiently registers one
    # incoming instance at the owner (add, reduce, release).
    flush_to_owner = any(
        isinstance(m, Fixed)
        for level in formats[output.name].distributions
        for m in level.machine_dims
    )
    step_set = set(decision.step_comm)
    dist_dim = {name: d for d, name in enumerate(decision.dist)}
    steps = (
        decision.grid[decision.steps_dim]
        if decision.steps_dim is not None
        else None
    )

    task_staging = 0
    step_lb = 0
    step_ub = 0
    partials = 0
    reduction_transient = 0
    known_extents = all(
        domains.get(n) is not None for n in dist_dim
    ) and (decision.seq is None or domains.get(decision.seq) is not None)
    if not known_extents:
        # Unknown loop extents: only the home instances are static.
        points = []
    for p_idx, point in enumerate(points):
        blocks = {
            name: split_evenly(domains[name], decision.grid[d], point[d])
            for name, d in dist_dim.items()
        }
        for tensor in tensors:
            home_rect = owned[tensor.name][p_idx]
            is_output = tensor.name == output.name
            if is_output and not output_read:
                rect = _request_rect(
                    tensor, accesses_by_tensor[tensor.name], blocks,
                    domains, None, None,
                )
                if rect is None:
                    continue
                nbytes = rect.volume * tensor.itemsize
                if not _covers(home_rect, rect):
                    partials += nbytes
                    reduction_transient = max(reduction_transient, nbytes)
                elif flush_to_owner:
                    reduction_transient = max(reduction_transient, nbytes)
                continue
            stepped = (
                tensor.name in step_set
                and decision.seq is not None
                and not is_output
            )
            rect = _request_rect(
                tensor, accesses_by_tensor[tensor.name], blocks, domains,
                decision.seq if stepped else None, steps,
            )
            if rect is None:
                continue
            if stepped:
                lo, hi = _step_chunk_bounds(
                    tensor, home_rect,
                    accesses_by_tensor[tensor.name], blocks, domains,
                    decision.seq, steps,
                )
                step_lb += lo
                step_ub += hi
            elif not _covers(home_rect, rect):
                task_staging += rect.volume * tensor.itemsize
            if is_output and output_read:
                # A read output also accumulates partials when unowned.
                nbytes = rect.volume * tensor.itemsize
                if not _covers(home_rect, rect):
                    partials += nbytes
                    reduction_transient = max(reduction_transient, nbytes)
                elif flush_to_owner:
                    reduction_transient = max(reduction_transient, nbytes)

    lower = home + task_staging + step_lb + partials
    upper = home + task_staging + step_ub + partials + reduction_transient
    return MemoryBound(
        memory_name=target.name,
        capacity_bytes=target.capacity_bytes,
        lower_bytes=lower,
        upper_bytes=upper,
        home_bytes=home,
        task_staging_bytes=task_staging,
        step_staging_lower=step_lb,
        step_staging_upper=step_ub,
        partial_bytes=partials,
    )


def bound_key(
    assignment: Assignment,
    decision,
    cluster: Cluster,
    memory: MemoryKind = MemoryKind.SYSTEM_MEM,
) -> Tuple:
    """Everything :func:`memory_bounds` reads, as a hashable key.

    Of the decision it reads ``grid``, ``dist``, ``seq``, ``steps_dim``
    and ``step_comm`` directly, and ``tiled`` and ``output_style``
    through :func:`~repro.tuner.space.formats_for`; decisions that
    differ only elsewhere (``rotate``, ``leaf``, ``checkpoint``) share
    one bound. A field the bound starts reading must join this key.
    """
    from repro.bench.cache import cluster_signature

    return (
        assignment_key(assignment),
        cluster_signature(cluster),
        memory.value,
        decision.grid,
        decision.dist,
        decision.seq,
        decision.steps_dim,
        decision.step_comm,
        decision.tiled,
        decision.output_style,
    )


def assignment_key(assignment: Assignment) -> Tuple:
    """The assignment's einsum text, accumulate flag and tensor table."""
    return (
        repr(assignment),
        assignment.accumulate,
        tuple(
            (t.name, t.shape, t.dtype.str) for t in assignment.tensors()
        ),
    )


def _target_points(
    machine: Machine, cluster: Cluster, per_node: bool
) -> np.ndarray:
    """Linear indices of the grid points whose instances land in the
    target memory.

    Row-major placement puts linear point ``L`` on processor
    ``L % num_procs``; node 0 owns the first ``procs_per_node``
    processors. With over-decomposed grids past ``_POINT_LIMIT`` only
    the leading points are counted (the bound stays a lower bound).
    """
    shape = machine.shape
    total = math.prod(shape)
    num_procs = cluster.num_processors
    if per_node:
        target_procs = min(cluster.procs_per_node, num_procs)
    else:
        target_procs = 1
    if total <= num_procs or total > _POINT_LIMIT:
        return np.arange(min(target_procs, total))
    linears = np.arange(total)
    return linears[linears % num_procs < target_procs]


def _request_rect(
    tensor,
    accesses,
    blocks: Dict[str, Interval],
    domains: Dict[str, int],
    step_var: Optional[str],
    steps: Optional[int],
    step_index: int = 0,
) -> Optional[Rect]:
    """The rectangle one task requests for a tensor (bounding box over
    its accesses), or ``None`` when an access is not a plain variable
    (the conservative caller then skips the tensor)."""
    if tensor.ndim == 0:
        return Rect(())
    los = [None] * tensor.ndim
    his = [None] * tensor.ndim
    for access in accesses:
        if len(access.indices) != tensor.ndim:
            return None
        for mode, var in enumerate(access.indices):
            if not isinstance(var, IndexVar):
                return None
            extent = domains.get(var.name)
            if extent is None:
                return None
            if var.name in blocks:
                ival = blocks[var.name]
            elif var.name == step_var and steps is not None:
                ival = split_evenly(extent, steps, step_index)
            else:
                ival = Interval.extent(extent)
            if los[mode] is None or ival.lo < los[mode]:
                los[mode] = ival.lo
            if his[mode] is None or ival.hi > his[mode]:
                his[mode] = ival.hi
    if any(lo is None for lo in los):
        return None
    return Rect.from_bounds(los, his)


def _owned_rects(home, at: np.ndarray) -> List[Optional[Rect]]:
    """:meth:`~repro.formats.format.Format.owned_rect` at the grid points
    ``at`` (linear indices), gathered from a home table ``(lo, hi,
    ok)``."""
    lo, hi, ok = home
    return [
        Rect.from_bounds(los, his) if here else None
        for los, his, here in zip(
            lo[:, at].T.tolist(), hi[:, at].T.tolist(), ok[at].tolist()
        )
    ]


def _covers(owned: Optional[Rect], rect: Rect) -> bool:
    return owned is not None and owned.contains(rect)


def _step_chunk_bounds(
    tensor,
    owned: Optional[Rect],
    accesses,
    blocks,
    domains,
    seq: str,
    steps: int,
) -> Tuple[int, int]:
    """(guaranteed-resident, worst-transient) bytes for per-step chunks.

    Chunks differ only along the sequenced variable's blocks; the lower
    bound is the smallest chunk any step can stage (0 when the task owns
    one of the blocks — rotation may park it there at any step), the
    upper bound twice the largest (registered-before-released swap).
    """
    extent = domains[seq]
    tile = ceil_div(extent, steps)
    full_blocks, short = divmod(extent, tile)
    nonzero_blocks = full_blocks + (1 if short else 0)
    min_seq = (
        0 if steps > nonzero_blocks else (short if short else tile)
    )
    max_seq = tile
    base = _request_rect(
        tensor, accesses, blocks, domains, None, None
    )
    if base is None:
        return 0, 0
    # Per-unit-of-seq volume: the bounding rect with seq collapsed.
    seq_modes = {
        mode
        for access in accesses
        for mode, var in enumerate(access.indices)
        if isinstance(var, IndexVar) and var.name == seq
    }
    itemsize = tensor.itemsize
    if len(seq_modes) != 1:
        # Diagonal or absent sequenced accesses: stay conservative.
        return 0, 2 * base.volume * itemsize
    unit = 1
    for mode, ival in enumerate(base.intervals):
        unit *= 1 if mode in seq_modes else ival.size
    owned_some_block = False
    if owned is not None:
        covers_rest = all(
            mode in seq_modes or owned.intervals[mode].contains(ival)
            for mode, ival in enumerate(base.intervals)
        )
        if covers_rest:
            for mode in seq_modes:
                span = owned.intervals[mode]
                first = span.lo // tile if tile else 0
                block = split_evenly(extent, steps, min(first, steps - 1))
                if not block.is_empty and span.contains(block):
                    owned_some_block = True
    lo = 0 if owned_some_block else min_seq * unit * itemsize
    hi = 2 * max_seq * unit * itemsize
    return lo, hi
