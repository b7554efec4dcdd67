"""The grid-scoped memo of a machine's orbit tables: exact, read-only
and counted.

A tune shares one machine per grid, and with it the home-layout memo
(``_MachineTables``). Simulating a space's statically surviving candidates on the shared
machines, in either order, must give what a fresh machine per
candidate gives; the tables must refuse in-place writes; and a small
fixed tune pins the sharing counters exactly.
"""

import copy

import numpy as np
import pytest

from repro.bench.cache import SIM_CACHE
from repro.core.kernel import compile_kernel
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.obs.metrics import METRICS
from repro.runtime.orbit import OrbitExecutor, machine_tables
from repro.sim.params import LASSEN
from repro.tuner.oracle import Oracle
from repro.tuner.search import default_seed_grid
from repro.tuner.space import (
    Decision, enumerate_space, from_heuristic, realize,
)
from repro.tuner.workloads import WORKLOADS, matmul, sized
from repro.util.errors import OutOfMemoryError

#: The sharing counter, then the per-region counter it must not move.
SHARING = ("orbit.home_shared", "orbit.leaf_reused")


def _starved() -> Cluster:
    """Two one-socket CPU nodes with 192 KiB memories: a few ``(64)``
    candidates the static bound keeps still run out of memory."""
    return Cluster.build(
        num_nodes=2,
        procs_per_node=1,
        proc_kind=ProcessorKind.CPU_SOCKET,
        proc_mem_kind=MemoryKind.SYSTEM_MEM,
        proc_mem_capacity=192 * 1024,
        system_mem_capacity=192 * 1024,
    )


def _simulate(assignment, machine, decision, memory):
    schedule, _ = realize(
        copy.deepcopy(assignment), machine, decision, memory=memory
    )
    try:
        return compile_kernel(schedule, machine).simulate(
            LASSEN, breakdown=True
        )
    except OutOfMemoryError as err:
        return ("oom", err.memory_name, err.needed_bytes, err.capacity_bytes)


#: Two processors each keep every space small enough to simulate three
#: times over (about 80 survivors per cluster across the workloads).
CLUSTERS = {
    "cpu": Cluster.cpu_cluster(2, sockets_per_node=1),
    "gpu": Cluster.gpu_cluster(1, gpus_per_node=2),
    "starved": _starved(),
}


def _home_shared():
    return METRICS.snapshot(sources=False).get("orbit.home_shared", 0)


@pytest.mark.parametrize("cluster", list(CLUSTERS), ids=list(CLUSTERS))
def test_shared_tables_simulate_like_fresh_ones(cluster):
    """Every workload's statically surviving candidates: on the tune's
    machines in space order, again in reverse order on new ones, and on
    a fresh machine each."""
    cluster = CLUSTERS[cluster]
    ooms = []
    before = _home_shared()
    for workload in WORKLOADS:
        assignment = sized(workload, 64)
        oracle = Oracle(cluster)
        space = [
            d for d in enumerate_space(assignment, cluster.num_processors)
            if oracle.prune_reason(assignment, d) is None
        ]
        forward = [
            _simulate(assignment, oracle.machine(d.grid), d, oracle.memory)
            for d in space
        ]
        reverse = Oracle(cluster)
        backward = [
            _simulate(assignment, reverse.machine(d.grid), d, reverse.memory)
            for d in reversed(space)
        ][::-1]
        fresh = [
            _simulate(
                assignment, Machine(cluster, Grid(*d.grid)), d, oracle.memory
            )
            for d in space
        ]
        for decision, a, b, c in zip(space, forward, backward, fresh):
            assert a == b == c, (workload, decision.encode())
        ooms += [isinstance(r, tuple) for r in forward]
    assert any(ooms) == (cluster is CLUSTERS["starved"])
    assert not all(ooms)
    assert _home_shared() > before


def test_shared_tables_are_read_only():
    from repro.algorithms.matmul import cannon

    kernel = cannon(Machine(Cluster.cpu_cluster(4), Grid(2, 2)), 256)
    executor = OrbitExecutor(kernel.plan)
    executor.run()
    mt = machine_tables(kernel.machine)
    tensor = kernel.plan.tensors[kernel.plan.output]
    lo, hi, ok = mt.home(kernel.machine, tensor.format, tensor.shape)
    charges = mt.home_charges(kernel.machine, tensor)
    for array in (lo, hi, ok) + charges:
        with pytest.raises(ValueError):
            array[...] = 0
    # A region's gathered home is its own copy.
    region = executor._regions[max(executor._regions)]
    h_lo, _, _ = region.home(executor, kernel.plan.output)
    h_lo[...] = -1
    assert not np.any(
        mt.home(kernel.machine, tensor.format, tensor.shape)[0] == -1
    )


def test_small_tune_sharing_counters():
    """A matmul(256) tune's candidates on 4 CPU nodes from an empty
    cache (68 traces): what the grid's home memo served.
    ``orbit.leaf_reused`` (108) is the value the tune had before the
    grid memos existed. ``orbit.home_shared`` (408) includes the
    partial check of every repeated-leaf call that misses its region's
    memo: it computes its work batch and reads the region's output
    home, which the grid's memo serves. ``Oracle.evaluate`` scores every
    candidate the tune's one full-scale rung is given, in its order,
    without skipping any by bound."""
    assignment = matmul(256)
    cluster = Cluster.cpu_cluster(4)
    seed = from_heuristic(
        assignment, default_seed_grid(assignment, cluster.num_processors)
    )
    candidates = sorted(
        set(enumerate_space(assignment, cluster.num_processors)) | {seed},
        key=Decision.key,
    )
    saved = SIM_CACHE.export()
    counts = SIM_CACHE.hits, SIM_CACHE.misses
    before = METRICS.snapshot(sources=False)
    SIM_CACHE.clear()
    try:
        Oracle(cluster).evaluate(assignment, candidates)
    finally:
        SIM_CACHE.clear()
        SIM_CACHE.install(saved)
        SIM_CACHE.hits, SIM_CACHE.misses = counts
    after = METRICS.snapshot(sources=False)
    grown = tuple(after.get(n, 0) - before.get(n, 0) for n in SHARING)
    assert grown == (408, 108)
