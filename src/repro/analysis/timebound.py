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
* **communication** — node 0's NIC load. Of the input rectangles
  node 0's points request, whatever no home instance on node 0 holds
  must cross node 0's NIC: one-shot fetches in the task-start step
  (where only home instances exist), per-step fetches at some
  sequenced step (possibly fetched by another processor of the node),
  and unowned output partials in the task-end step. The bytes come
  from :func:`~repro.analysis.membound.node_walk`, the walk the memory
  bound makes; each is priced at the faster NIC rate;
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

from typing import Dict, Optional

from repro.analysis.membound import NodeWalk, _seq_blocks, node_walk
from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.machine.machine import Machine
from repro.sim.params import MachineParams
from repro.util.geometry import split_evenly

#: The simulator adds the same terms in another order; shaving this
#: relative margin (far above float rounding) keeps the bound below a
#: cost it equals in exact arithmetic.
ROUNDING_MARGIN = 1e-9


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
    walk = node_walk(
        assignment, decision, cluster,
        cluster.default_memory if memory is None else memory, machine,
    )
    return priced_walk(walk, assignment, decision, cluster, params)


def priced_walk(
    walk: NodeWalk,
    assignment: Assignment,
    decision,
    cluster: Cluster,
    params: MachineParams,
) -> float:
    """:func:`time_lower_bound` from ``decision``'s node-0 walk."""
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
    # A copy with a GPU framebuffer endpoint crosses at the GPU-direct
    # rate, and every copy lands in or leaves a processor's memory.
    nic_bw = (
        params.nic_bw_gpu_direct
        if cluster.proc_mem_kind is MemoryKind.GPU_FB else params.nic_bw
    )
    scale = params.collective_efficiency / nic_bw
    start_comm, step_comm, end_comm = (
        scale * nbytes for nbytes in walk.nic_bytes
    )
    if params.overlap:
        busy = (
            max(start_comm, start_compute) + max(step_comm, step_compute)
        )
    else:
        busy = start_comm + start_compute + step_comm + step_compute
    busy += end_comm
    return (busy + steps * params.task_overhead) * (1 - ROUNDING_MARGIN)
