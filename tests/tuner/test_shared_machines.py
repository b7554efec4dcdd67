"""A tune's shared per-grid machines simulate exactly like fresh ones.

The oracle builds one ``Machine`` per grid shape, so candidates on one
grid share its orbit machine tables. Every candidate of a space is
simulated (uncached) on the shared machine, in space order as a tune
visits them, and on a fresh machine; reports and ``OutOfMemoryError``
payloads must match.
"""

import copy

import pytest

from repro.bench.cache import SimulationCache
from repro.core.kernel import compile_kernel
from repro.scheduling.schedule import Schedule
from repro.formats.distribution import Distribution, Fixed
from repro.formats.format import Format
from repro.ir.expr import index_vars
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN
from repro.tuner.oracle import Oracle
from repro.tuner.space import enumerate_space, realize
from repro.tuner.workloads import sized
from repro.util.errors import OutOfMemoryError

MIB = 1024 * 1024


def _starved(nodes: int) -> Cluster:
    """Dual-socket CPU nodes with 40 MiB: three in four
    ``matmul(2048)`` candidates run out of memory, a few of them while
    charging their home instances."""
    return Cluster.build(
        num_nodes=nodes,
        procs_per_node=2,
        proc_kind=ProcessorKind.CPU_SOCKET,
        proc_mem_kind=MemoryKind.SYSTEM_MEM,
        proc_mem_capacity=40 * MIB,
        system_mem_capacity=40 * MIB,
    )


def _outcome(assignment, machine, decision, memory):
    schedule, _ = realize(
        copy.deepcopy(assignment), machine, decision, memory=memory
    )
    try:
        report = compile_kernel(schedule, machine).simulate(LASSEN)
    except OutOfMemoryError as err:
        return ("oom", err.memory_name, err.needed_bytes, err.capacity_bytes)
    return (
        "ok", report.total_time, report.comm_time,
        report.inter_node_bytes, report.memory_high_water,
    )


@pytest.mark.parametrize("workload, size, cluster", [
    ("matmul", 2048, Cluster.cpu_cluster(4)),
    ("ttv", 256, Cluster.gpu_cluster(2)),
    ("matmul", 2048, _starved(4)),
], ids=["cpu-matmul", "gpu-ttv", "starved-matmul"])
def test_shared_machine_simulates_like_a_fresh_one(workload, size, cluster):
    assignment = sized(workload, size)
    space = enumerate_space(assignment, cluster.num_processors)
    oracle = Oracle(cluster)
    outcomes = []
    for decision in space:
        shared = _outcome(
            assignment, oracle.machine(decision.grid), decision,
            oracle.memory,
        )
        fresh = _outcome(
            assignment, Machine(cluster, Grid(*decision.grid)), decision,
            oracle.memory,
        )
        assert shared == fresh, decision
        outcomes.append(shared[0])
    assert len(oracle.machines) == len({d.grid for d in space})
    if cluster.system_mem_capacity == 40 * MIB:
        assert 0 < outcomes.count("oom") < len(space)


def _placed_at(point, machine):
    """A GEMM on a 12x11 grid whose input ``B`` lives whole at ``point``."""
    A = TensorVar("A", (24, 22), Format("xy -> xy"))
    B = TensorVar("B", (24, 8), Format(
        Distribution("xy", [Fixed(v) for v in point])
    ))
    C = TensorVar("C", (8, 22), Format("xy -> xy"))
    i, j, k = index_vars("i j k")
    io, ii, jo, ji = index_vars("io ii jo ji")
    sched = (
        Schedule(Assignment(A[i, j], B[i, k] * C[k, j]))
        .distribute([i, j], [io, jo], [ii, ji], Grid(12, 11))
        .communicate([A, B, C], jo)
    )
    return compile_kernel(sched, machine)


def test_shared_machine_tells_fixed_points_apart():
    """``Fixed(1), Fixed(10)`` and ``Fixed(11), Fixed(0)``: on one
    machine each plan charges ``B`` to its own memory."""
    points = ((1, 10), (11, 0))
    shared = Machine.flat(12, 11)
    kernels = [_placed_at(p, shared) for p in points]
    notations = {k.plan.tensors["B"].format.notation() for k in kernels}
    assert len(notations) == 2
    on_shared = [k.simulate(LASSEN).memory_high_water for k in kernels]
    on_fresh = [
        _placed_at(p, Machine.flat(12, 11)).simulate(LASSEN)
        .memory_high_water
        for p in points
    ]
    assert on_shared == on_fresh
    assert on_shared[0] != on_shared[1]


def test_sim_cache_tells_fixed_points_apart():
    """The ``SIM_CACHE`` key prints each format: ``Fixed(1), Fixed(10)``
    and ``Fixed(11), Fixed(0)`` must key two entries, each kernel
    getting its own fresh report."""
    cache = SimulationCache()
    for point in ((1, 10), (11, 0)):
        cached = cache.simulate(_placed_at(point, Machine.flat(12, 11)))
        fresh = _placed_at(point, Machine.flat(12, 11)).simulate(LASSEN)
        assert cached.memory_high_water == fresh.memory_high_water
    assert len(cache) == 2
