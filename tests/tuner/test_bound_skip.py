"""Bound-ordered search is exact: skipping changes what is simulated,
never what is found.

A search that keeps its top ``keep`` outcomes skips candidates whose
static time lower bound exceeds the ``keep``-th best cost known.
Against the same search with every bound ``0.0`` (``BoundOff``, which
skips nothing), the best and seed outcomes and every ranked record
must be equal — at the depth answers read (1) and the one the joint
tuner reads (``DEFAULT_TOP_K``), for every tuner workload, on CPU and
GPU clusters, and for the joint pipeline demo.
"""

import functools

import pytest

from repro.machine.cluster import Cluster
from repro.pipeline import Pipeline
from repro.sim.params import LASSEN
from repro.tuner.joint import DEFAULT_TOP_K, tune_pipeline
from repro.tuner.oracle import Oracle, TuningLedger
from repro.tuner.search import tune
from repro.tuner.space import enumerate_space
from repro.tuner.workloads import WORKLOADS, matmul, matmul_chain, sized

from bound_off import (
    BoundOff, assert_same_search, assert_skip_exact, from_empty_cache,
)

#: Four processors: spaces of 40-488 candidates, each tuned in
#: 0.03-0.2 s.
SEARCHES = {
    "cpu-exhaustive": Cluster.cpu_cluster(2),
    "gpu-exhaustive": Cluster.gpu_cluster(1),
}


#: Candidates the bound skips, by ``(workload, search)``, at the depth
#: answers read and at the joint tuner's.
SKIPPED = {
    1: {
        ("matmul", "cpu-exhaustive"): 28,
        ("matmul", "gpu-exhaustive"): 30,
        ("matmul-rect", "cpu-exhaustive"): 28,
        ("matmul-rect", "gpu-exhaustive"): 35,
        ("ttv", "cpu-exhaustive"): 14,
        ("ttv", "gpu-exhaustive"): 14,
        ("ttm", "cpu-exhaustive"): 64,
        ("ttm", "gpu-exhaustive"): 68,
        ("mttkrp", "cpu-exhaustive"): 197,
        ("mttkrp", "gpu-exhaustive"): 198,
    },
    DEFAULT_TOP_K: {
        ("matmul", "cpu-exhaustive"): 28,
        ("matmul", "gpu-exhaustive"): 24,
        ("matmul-rect", "cpu-exhaustive"): 28,
        ("matmul-rect", "gpu-exhaustive"): 24,
        ("ttv", "cpu-exhaustive"): 10,
        ("ttv", "gpu-exhaustive"): 8,
        ("ttm", "cpu-exhaustive"): 64,
        ("ttm", "gpu-exhaustive"): 64,
        ("mttkrp", "cpu-exhaustive"): 197,
        ("mttkrp", "gpu-exhaustive"): 198,
    },
}


@functools.lru_cache(maxsize=None)
def _searches(workload, search, keep):
    """The tune of ``workload`` at size 64 by ``search``, ranking its top
    ``keep``, with and without the bound (:func:`assert_skip_exact`;
    computed once)."""
    return assert_skip_exact(
        lambda: tune(sized(workload, 64), SEARCHES[search], keep=keep)
    )


def _assert_top_exact(workload, search, keep):
    skipped, _ = _searches(workload, search, keep)
    assert len(skipped.search.ranked) == keep
    assert skipped.search.bound_skipped == SKIPPED[keep][workload, search]


@pytest.mark.parametrize("search", list(SEARCHES))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_skipping_keeps_the_top_exact(workload, search):
    _assert_top_exact(workload, search, 1)


@pytest.mark.parametrize("search", list(SEARCHES))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_skipping_keeps_the_top_k_exact(workload, search):
    _assert_top_exact(workload, search, DEFAULT_TOP_K)


def test_waves_over_workers_skip_alike():
    """With ``jobs=2`` the leaders no threshold can skip go out as one
    batch, the rest in waves of two: the same candidates are skipped
    and the search is exact. (MTTKRP has no rotation siblings sharing
    a cache entry, so forked workers simulate it exactly; ROADMAP
    item 3.)"""
    skipped, full = _searches("mttkrp", "cpu-exhaustive", 1)
    waves = from_empty_cache(lambda: tune(
        sized("mttkrp", 64), SEARCHES["cpu-exhaustive"], jobs=2,
    ))
    assert_same_search(waves.search, full.search)
    assert waves.search.bound_skipped == skipped.search.bound_skipped


def test_joint_pipeline_demo_is_exact():
    """``python -m repro.tune --pipeline chain-matmul --demo``'s joint
    plan: equal decisions, handoffs and combined cost."""

    def joint():
        return tune_pipeline(
            Pipeline(matmul_chain(4096), Cluster.cpu_cluster(4)), LASSEN,
        )

    with BoundOff():
        full = from_empty_cache(joint)
    skipped = from_empty_cache(joint)
    assert skipped.decisions == full.decisions
    assert skipped.handoffs == full.handoffs
    assert skipped.report.combined.total_time == (
        full.report.combined.total_time
    )
    for name, result in skipped.stage_results.items():
        assert_same_search(result.search, full.stage_results[name].search)
    assert sum(
        r.search.bound_skipped for r in skipped.stage_results.values()
    ) > 0


@pytest.mark.parametrize("n", [64, 4096])
def test_mixed_depths_through_one_ledger_stay_exact(n):
    """A joint tune at ``top_k=4`` from a ledger that depth-1 stage
    tunes filled simulates exactly what they left out of a depth-4
    search, and plans as it does from an empty ledger. (At ``n=64`` the
    depths simulate different candidates; at 4096 the same ones.)"""
    cluster = Cluster.cpu_cluster(4)

    def joint(ledger):
        return tune_pipeline(
            Pipeline(matmul_chain(n), cluster), LASSEN, top_k=4,
            ledger=ledger,
        )

    def shallow_then_joint():
        ledger = TuningLedger(None)
        shallow = [
            tune(
                stage.assignment, cluster, LASSEN,
                memory=cluster.default_memory, ledger=ledger,
            )
            for stage in Pipeline(matmul_chain(n), cluster).stages
        ]
        return shallow, joint(ledger)

    def evaluations(results):
        return sum(r.search.evaluations for r in results)

    fresh = from_empty_cache(lambda: joint(TuningLedger(None)))
    shallow, mixed = from_empty_cache(shallow_then_joint)
    assert evaluations(shallow) + evaluations(
        mixed.stage_results.values()
    ) == evaluations(fresh.stage_results.values())
    assert mixed.decisions == fresh.decisions
    assert mixed.handoffs == fresh.handoffs
    assert mixed.report.combined.total_time == (
        fresh.report.combined.total_time
    )
    for name, result in mixed.stage_results.items():
        assert_same_search(result.search, fresh.stage_results[name].search)


def test_retune_from_the_ledger_simulates_nothing():
    """The threshold starts from the ledger hits: a re-tune skips what
    the first tune skipped before simulating anything."""
    ledger = TuningLedger(None)
    cluster = Cluster.cpu_cluster(2)
    first = from_empty_cache(lambda: tune(matmul(64), cluster, ledger=ledger))
    again = from_empty_cache(lambda: tune(matmul(64), cluster, ledger=ledger))
    assert first.search.bound_skipped > 0
    assert again.search.evaluations == 0
    assert again.search.bound_skipped == first.search.bound_skipped
    assert_same_search(again.search, first.search)


def test_direct_evaluate_and_small_spaces_never_skip():
    cluster = Cluster.cpu_cluster(2)
    assignment = matmul(64)
    space = enumerate_space(assignment, cluster.num_processors)
    oracle = Oracle(cluster)
    outcomes = from_empty_cache(lambda: oracle.evaluate(assignment, space))
    assert len(outcomes) == len(space)
    assert oracle.bound_skipped == 0
    # Fewer decisions than the ranking keeps: nothing can fall out.
    top = from_empty_cache(lambda: Oracle(cluster).evaluate_top(
        assignment, space[:DEFAULT_TOP_K], DEFAULT_TOP_K, space[0]
    ))
    assert top == outcomes[:DEFAULT_TOP_K]


def test_expected_objective_never_skips():
    result = from_empty_cache(lambda: tune(
        matmul(64), Cluster.cpu_cluster(2), objective="expected",
        failure_rate=1e-3,
    ))
    assert result.search.bound_skipped == 0
