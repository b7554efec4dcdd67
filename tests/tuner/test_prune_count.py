"""``SearchOutcome.pruned_static`` counts each statically rejected
candidate of the space exactly once."""

import pytest

from repro.analysis.prune import prune_reason
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.sim.params import LASSEN
from repro.tuner.search import default_seed_grid, tune
from repro.tuner.space import enumerate_space, from_heuristic
from repro.tuner.workloads import matmul


def constrained_cluster(nodes, mem_bytes):
    return Cluster.build(
        num_nodes=nodes,
        procs_per_node=2,
        proc_kind=ProcessorKind.CPU_SOCKET,
        proc_mem_kind=MemoryKind.SYSTEM_MEM,
        proc_mem_capacity=mem_bytes,
        system_mem_capacity=mem_bytes,
    )


@pytest.mark.parametrize("strategy", ["exhaustive"])
def test_pruned_static_matches_a_brute_force_count(strategy):
    assignment = matmul(4096)
    cluster = constrained_cluster(8, 96 * 1024 * 1024)
    procs = cluster.num_processors
    space = enumerate_space(assignment, procs)
    seed = from_heuristic(assignment, default_seed_grid(assignment, procs))
    if seed not in space:
        space.append(seed)
    expected = sum(
        prune_reason(
            assignment, d, cluster, MemoryKind.SYSTEM_MEM, params=LASSEN
        ) is not None
        for d in space
    )
    search = tune(assignment, cluster, strategy=strategy).search
    assert search.space_size == len(space)
    assert 0 < expected < len(space)
    assert search.pruned_static == expected
