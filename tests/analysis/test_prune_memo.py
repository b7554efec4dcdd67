"""The tuner's static-verdict memo: every memoized verdict equals a
fresh computation, and the memory-bound key holds exactly the decision
fields ``memory_bounds`` reads."""

from dataclasses import replace

import pytest

from repro.analysis.membound import bound_key, memory_bounds
from repro.analysis.prune import (
    STATIC_DOMINATED,
    STATIC_OOM,
    PruneMemo,
    prune_reason,
)
from repro.machine.cluster import Cluster, MemoryKind
from repro.obs.metrics import METRICS
from repro.sim.params import LASSEN
from repro.tuner.space import Decision, enumerate_space
from repro.tuner.workloads import matmul, mttkrp, ttm

#: (cluster, memory, workloads): sized so every space mixes feasible,
#: memory-infeasible and leaf-dominated candidates.
CPU = (
    Cluster.cpu_cluster(2, system_mem_gib=1),
    MemoryKind.SYSTEM_MEM,
    [matmul(8192), ttm(512), mttkrp(512, 64)],
)
GPU = (
    Cluster.gpu_cluster(1),
    MemoryKind.GPU_FB,
    [matmul(49152), ttm(1536), mttkrp(1536, 64)],
)


def assert_memo_matches_fresh(memo, assignment, decisions, cluster, memory):
    """Returns the fresh verdicts."""
    reasons = []
    for decision in decisions:
        fresh_bound = memory_bounds(assignment, decision, cluster, memory)
        fresh_reason = prune_reason(
            assignment, decision, cluster, memory, params=LASSEN
        )
        for _ in range(2):  # the second pass is all hits
            assert memo.memory_bounds(
                assignment, decision, cluster, memory
            ) == fresh_bound, decision.encode()
            assert prune_reason(
                assignment, decision, cluster, memory, params=LASSEN,
                memo=memo,
            ) == fresh_reason, decision.encode()
        reasons.append(fresh_reason)
    return reasons


@pytest.mark.parametrize(
    "workload", [0, 1, 2], ids=["matmul", "ttm", "mttkrp"]
)
@pytest.mark.parametrize("target", [CPU, GPU], ids=["cpu", "gpu"])
def test_memo_matches_fresh_computation(workload, target):
    cluster, memory, assignments = target
    assignment = assignments[workload]
    space = enumerate_space(assignment, cluster.num_processors)
    reasons = assert_memo_matches_fresh(
        PruneMemo(), assignment, space, cluster, memory
    )
    assert {STATIC_OOM, STATIC_DOMINATED, None} <= set(reasons)


def test_decisions_differing_outside_the_key_share_an_entry():
    assignment = matmul(512)
    cluster, memory, _ = CPU
    base = Decision(
        grid=(2, 2), dist=("i", "j"), seq="k", steps_dim=0,
        rotate=(0,), tiled=("B", "C"), step_comm=("B", "C"),
        leaf="gemm",
    )
    twins = [
        replace(base, leaf="loops"),
        replace(base, rotate=(0, 1)),
        replace(base, checkpoint=("A",)),
    ]
    memo = PruneMemo()
    before = METRICS.export()["counters"]
    first = memo.memory_bounds(assignment, base, cluster, memory)
    for twin in twins:
        assert bound_key(assignment, twin, cluster, memory) == bound_key(
            assignment, base, cluster, memory
        )
        assert memo.memory_bounds(assignment, twin, cluster, memory) is first
    after = METRICS.export()["counters"]

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("analysis.bound_memo_misses") == 1
    assert delta("analysis.bound_memo_hits") == len(twins)


STEPPED = Decision(
    grid=(2, 4), dist=("i", "j"), seq="k", steps_dim=0,
    tiled=("B", "C"), step_comm=("B",), leaf="gemm",
)
ONE_DIM = Decision(grid=(8,), dist=("k",), leaf="gemm")


@pytest.mark.parametrize(
    "base, field, value",
    [
        (STEPPED, "grid", (4, 4)),
        (STEPPED, "dist", ("j", "i")),
        (STEPPED, "seq", None),
        (STEPPED, "steps_dim", 1),
        (STEPPED, "step_comm", ("B", "C")),
        (STEPPED, "tiled", ("C",)),
        (ONE_DIM, "output_style", "replicate"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_every_keyed_field_can_change_the_bound(base, field, value):
    assignment = matmul(512)
    cluster = Cluster.cpu_cluster(4)
    memory = MemoryKind.SYSTEM_MEM
    changed = replace(base, **{field: value})
    assert bound_key(assignment, changed, cluster, memory) != bound_key(
        assignment, base, cluster, memory
    )
    assert memory_bounds(
        assignment, changed, cluster, memory
    ) != memory_bounds(assignment, base, cluster, memory)
