"""Pass 5: a static lower bound on a candidate's simulated time.

:meth:`~repro.sim.costmodel.CostModel.price_skeleton` charges every
step ``max(comm, compute)`` (``comm + compute`` without overlap) plus
``task_overhead * max(invocations, default=1)``; a step's compute is
the roofline of its busiest processor and its communication the load of
its busiest link. So a candidate's ``total_time`` is at least

* **compute** — per step, the roofline of grid point 0's leaf tile.
  Point 0 holds the ceil-sized leading block of every distributed
  variable, so its tile is the largest, and the processor running it
  does at least its work. With per-step fetches of a sequenced variable
  the tile visits every sequenced block once, one step each, whatever
  the rotation; without them the leaf runs in the task-start step, at
  least once over the whole tile;
* **communication** — node 0's inbound NIC load. Of the input
  rectangles point 0 requests, whatever no home instance on node 0
  holds must cross node 0's NIC: one-shot fetches in the task-start
  step (where only home instances exist), per-step fetches at some
  sequenced step (possibly fetched by another processor of the node).
  Each byte is priced at the faster NIC rate;
* **overhead** — one ``task_overhead`` for each step that certainly
  exists: the task-start fetch, the task-end reduction, and one step
  per non-empty sequenced block.

Over the sequenced steps the bound takes ``max(sum comm, sum compute)``
(their sum without overlap). The flop and byte counts mirror
``Executor._leaf_work_batch``; the out-of-core and PCIe terms of
``CostModel._compute_entries`` and the latency and collective-root
terms of ``CostModel.comm_time`` only add time and are left out. The
bound never reads ``decision.rotate``, so candidates that differ only in
rotation share one bound.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.analysis.membound import _POINT_LIMIT, _target_points
from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import MachineParams
from repro.util.geometry import ceil_div, split_evenly

#: The simulator adds the same terms in another order; shaving this
#: relative margin (far above float rounding) keeps the bound below a
#: cost it equals in exact arithmetic.
ROUNDING_MARGIN = 1e-9

#: Above this many distinct node-0 home pieces of one tensor, the
#: covered volume is bounded by their sum instead of by
#: inclusion-exclusion.
_EXACT_PIECES = 6


def time_lower_bound(
    assignment: Assignment,
    decision,
    cluster: Cluster,
    params: MachineParams,
    memory: Optional[MemoryKind] = None,
    machine: Optional[Machine] = None,
) -> float:
    """A lower bound on ``decision``'s simulated ``total_time`` on
    ``cluster`` under ``params`` (seconds; sound for every feasible
    candidate).

    ``memory`` is the tensors' memory kind (the cluster's default when
    ``None``) and ``machine`` the decision's grid on ``cluster`` (a
    fresh one when ``None``).
    """
    from repro.tuner.space import LEAF_GEMM

    domains = {v.name: e for v, e in assignment.domains().items()}
    sizes: Dict[str, int] = dict(domains)
    for dim, name in enumerate(decision.dist):
        sizes[name] = split_evenly(domains[name], decision.grid[dim], 0).size
    gpu = cluster.processor_kind is ProcessorKind.GPU
    rate = (
        params.gpu_gflops if gpu
        else params.cpu_socket_gflops * params.runtime_core_fraction
    )
    # ``realize`` substitutes the machine's BLAS for a gemm leaf.
    efficiency = (
        params.gemm_efficiency if decision.leaf == LEAF_GEMM
        else params.naive_leaf_efficiency
    )
    # Out-of-core execution divides the rate by this; only a factor
    # above 1 could speed a step up.
    rate *= efficiency * max(1.0, params.out_of_core_efficiency)
    mem_bw = params.gpu_mem_bw if gpu else params.cpu_mem_bw
    flops_per_point = assignment.flops_per_point()
    accesses = [
        (tuple(v.name for v in a.indices), a.tensor.itemsize)
        for a in assignment.accesses()
    ]

    def roofline(seq_size: Optional[int]) -> float:
        """One leaf invocation over point 0's tile, the sequenced
        variable cut to ``seq_size`` (``None``: left whole)."""
        if seq_size is not None:
            sizes[decision.seq] = seq_size
        points = 1
        for size in sizes.values():
            points *= size
        if points == 0:
            return 0.0
        nbytes = 0
        for indices, itemsize in accesses:
            volume = itemsize
            for name in indices:
                volume *= sizes[name]
            nbytes += volume
        return max(points * flops_per_point / rate, nbytes / mem_bw)

    stepped = decision.seq is not None and bool(decision.step_comm)
    steps = 2  # the task-start fetch and the task-end reduction
    if stepped:
        start_compute = 0.0
        step_compute = 0.0
        for size, count in _seq_blocks(
            domains[decision.seq], decision.grid[decision.steps_dim]
        ):
            step_compute += count * roofline(size)
            steps += count
    else:
        start_compute = roofline(None)
        step_compute = 0.0
    start_comm, step_comm, end_comm = _nic_seconds(
        assignment, decision, cluster, params,
        cluster.default_memory if memory is None else memory,
        machine, domains, stepped,
    )
    if params.overlap:
        busy = (
            max(start_comm, start_compute) + max(step_comm, step_compute)
        )
    else:
        busy = start_comm + start_compute + step_comm + step_compute
    busy += end_comm
    return (busy + steps * params.task_overhead) * (1 - ROUNDING_MARGIN)


def _seq_blocks(extent: int, steps: int) -> Tuple[Tuple[int, int], ...]:
    """The non-empty blocks of ``split_evenly(extent, steps, b)`` as
    ``(size, count)`` pairs."""
    tile = ceil_div(extent, steps)
    if tile == 0:
        return ()
    full, short = divmod(extent, tile)
    return ((tile, full),) + (((short, 1),) if short else ())


def _nic_seconds(
    assignment: Assignment,
    decision,
    cluster: Cluster,
    params: MachineParams,
    memory: MemoryKind,
    machine: Optional[Machine],
    domains: Dict[str, int],
    stepped: bool,
) -> Tuple[float, float, float]:
    """Node 0's least NIC time in the task-start step, over the
    sequenced steps, and in the task-end reduction step.

    Every fetch resolves against the state before its step and emits
    one copy per requesting task, so in the task-start step (only home
    instances exist) each node-0 task pulls what no node-0 home holds.
    A per-step fetch may instead read what another node-0 task fetched
    earlier, so over the sequenced steps only the largest of those
    shortfalls is certain. Each task's output partial sends the pieces
    no node-0 home owns out in the task-end step.
    """
    from repro.runtime.orbit_state import machine_tables
    from repro.tuner.space import formats_for

    if cluster.num_nodes == 1:
        return 0.0, 0.0, 0.0
    if machine is None:
        machine = Machine(cluster, Grid(*decision.grid))
    if machine.size > _POINT_LIMIT:
        return 0.0, 0.0, 0.0  # node 0's points are not enumerated
    tables = machine_tables(machine)
    on_node0 = _target_points(machine, cluster, per_node=True)
    formats = formats_for(assignment, decision, memory)
    output = assignment.lhs.tensor.name
    modes: Dict[str, List[Tuple[str, ...]]] = {}
    for access in assignment.accesses():
        name = access.tensor.name
        if name != output or access is assignment.lhs:
            modes.setdefault(name, []).append(
                tuple(v.name for v in access.indices)
            )
    step_set = set(decision.step_comm) if stepped else set()
    # Node 0's distinct home rectangles per distributed tensor, as
    # ``((lo, hi), ...)`` tuples.
    holders = {}
    for tensor in assignment.tensors():
        fmt = formats[tensor.name]
        if tensor.ndim and fmt.is_distributed:
            lo, hi, ok = tables.home(machine, fmt, tensor.shape)
            holders[tensor.name] = (tensor.itemsize, list(dict.fromkeys(
                tuple(zip(los, his))
                for los, his, here in zip(
                    lo[:, on_node0].T.tolist(), hi[:, on_node0].T.tolist(),
                    ok[on_node0].tolist(),
                ) if here
            )))
    start = end = 0
    step_most: Dict[str, int] = {}
    for coords in tables.point_coords[on_node0].tolist():
        spans = {name: (0, extent) for name, extent in domains.items()}
        for dim, name in enumerate(decision.dist):
            block = split_evenly(domains[name], decision.grid[dim], coords[dim])
            spans[name] = (block.lo, block.hi)
        leaf_runs = all(hi > lo for lo, hi in spans.values())
        for name, (itemsize, held) in holders.items():
            rect = _bounding(modes[name], spans)
            missing = _uncovered(rect, held) * itemsize
            if name == output:
                # Only a leaf that ran leaves a partial to send.
                end += missing if leaf_runs else 0
            elif name in step_set:
                step_most[name] = max(step_most.get(name, 0), missing)
            else:
                start += missing
    # A copy with a GPU framebuffer endpoint crosses at the GPU-direct
    # rate, and every copy lands in or leaves a processor's memory.
    nic_bw = (
        params.nic_bw_gpu_direct
        if cluster.proc_mem_kind is MemoryKind.GPU_FB else params.nic_bw
    )
    scale = params.collective_efficiency / nic_bw
    return (
        scale * start, scale * sum(step_most.values()), scale * end,
    )


def _bounding(accesses, spans) -> Tuple[Tuple[int, int], ...]:
    """The bounding box of ``accesses`` (each a tuple of variable names,
    one per mode) with every variable over its ``(lo, hi)`` span."""
    rect = [spans[name] for name in accesses[0]]
    for names in accesses[1:]:
        rect = [
            (min(lo, spans[name][0]), max(hi, spans[name][1]))
            for (lo, hi), name in zip(rect, names)
        ]
    return tuple(rect)


def _volume(rect) -> int:
    volume = 1
    for lo, hi in rect:
        if hi <= lo:
            return 0
        volume *= hi - lo
    return volume


def _meet(a, b):
    return tuple(
        (max(lo_a, lo_b), min(hi_a, hi_b))
        for (lo_a, hi_a), (lo_b, hi_b) in zip(a, b)
    )


def _uncovered(rect, holders) -> int:
    """How many points of ``rect`` no rectangle of ``holders`` covers:
    exact by inclusion-exclusion over the distinct pieces (one sum when
    they are disjoint), or at least ``rect`` minus their summed volume
    when there are many."""
    pieces = list(dict.fromkeys(
        piece for piece in (_meet(h, rect) for h in holders)
        if _volume(piece)
    ))
    covered = sum(_volume(piece) for piece in pieces)
    if len(pieces) > _EXACT_PIECES or not any(
        _volume(_meet(a, b)) for a, b in combinations(pieces, 2)
    ):
        return max(0, _volume(rect) - covered)
    for k in range(2, len(pieces) + 1):
        for group in combinations(pieces, k):
            common = group[0]
            for piece in group[1:]:
                common = _meet(common, piece)
            covered += (-1) ** (k + 1) * _volume(common)
    return _volume(rect) - covered
