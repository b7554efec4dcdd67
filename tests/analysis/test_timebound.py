"""The static time lower bound: sound against the simulator.

``time_lower_bound`` must never exceed a candidate's simulated
``total_time``: the tuner skips candidates by it, and a bound above a
real cost would silently drop that candidate from the ranking. Checked
for every statically surviving candidate of every tuner workload on
the two-processor CPU, GPU and memory-starved clusters the grid-memo
tests use, and as a property over random einsums and parameter sets.
"""

import copy

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.timebound import time_lower_bound
from repro.core.kernel import compile_kernel
from repro.machine.cluster import Cluster
from repro.sim.params import CTF_PARAMS, LASSEN, SCALAPACK_PARAMS
from repro.tuner.oracle import Oracle
from repro.tuner.space import enumerate_space, realize
from repro.tuner.workloads import WORKLOADS, sized
from repro.util.errors import OutOfMemoryError

from runtime.test_grid_memos import CLUSTERS
from properties.test_autoschedule_properties import random_einsum


def _simulated(assignment, oracle, decision):
    """``decision``'s simulated report on the oracle's machine (a fresh
    simulation, not a cached one), or ``None`` when it runs out of
    memory."""
    machine = oracle.machine(decision.grid)
    schedule, _ = realize(
        copy.deepcopy(assignment), machine, decision, memory=oracle.memory
    )
    try:
        return compile_kernel(schedule, machine).simulate(oracle.params)
    except OutOfMemoryError:
        return None


def _assert_sound(assignment, oracle, decision):
    """Assert the bound is below the simulated time; return whether it
    is within 5% of it (``None`` when the candidate runs out of
    memory)."""
    report = _simulated(assignment, oracle, decision)
    if report is None:
        return None
    bound = time_lower_bound(
        assignment, decision, oracle.cluster, oracle.params
    )
    assert bound <= report.total_time, (
        f"{decision.encode()}: bound {bound!r} exceeds simulated "
        f"{report.total_time!r}"
    )
    return bound == pytest.approx(report.total_time, rel=0.05)


#: The grid-memo tests' two-processor clusters, plus two nodes of two
#: processors each, where node 0's NIC carries what its other
#: processor's homes do not hold. MTTKRP's 4-processor space (488
#: candidates) is left to the property below.
SOUNDNESS_CLUSTERS = dict(
    CLUSTERS,
    cpu2x2=Cluster.cpu_cluster(2),
    gpu2x2=Cluster.gpu_cluster(2, gpus_per_node=2),
)


@pytest.mark.parametrize("cluster", list(SOUNDNESS_CLUSTERS))
def test_bound_below_every_simulation(cluster):
    """Every workload's statically surviving candidates at size 64 (at
    least 16 per cluster). The bound is within 5% of the simulated time
    for some of them, so it is not trivially loose either."""
    cluster = SOUNDNESS_CLUSTERS[cluster]
    verdicts = []
    for workload in WORKLOADS:
        if workload == "mttkrp" and cluster.num_processors > 2:
            continue
        assignment = sized(workload, 64)
        oracle = Oracle(cluster)
        for decision in enumerate_space(assignment, cluster.num_processors):
            if oracle.prune_reason(assignment, decision) is None:
                verdicts.append(_assert_sound(assignment, oracle, decision))
    assert len(verdicts) >= 16
    assert any(verdicts)


@given(
    random_einsum(),
    st.sampled_from([
        Cluster.cpu_cluster(1), Cluster.cpu_cluster(2),
        Cluster.cpu_cluster(4, sockets_per_node=1),
        Cluster.gpu_cluster(1, gpus_per_node=2),
        Cluster.gpu_cluster(2, gpus_per_node=2),
    ]),
    st.sampled_from([LASSEN, CTF_PARAMS, SCALAPACK_PARAMS]),
    st.integers(0, 1 << 16),
)
@settings(
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bound_below_simulation_of_random_einsums(
    stmt, cluster, params, pick
):
    space = enumerate_space(stmt, cluster.num_processors)
    assume(space)
    oracle = Oracle(cluster, params=params)
    _assert_sound(stmt, oracle, space[pick % len(space)])
