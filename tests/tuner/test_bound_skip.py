"""Bound-ordered search is exact: skipping changes what is simulated,
never what is found.

A search that keeps its top ``RANKED_KEEP`` outcomes skips candidates
whose static time lower bound exceeds the ``RANKED_KEEP``-th best cost
known. Against the same search with every bound ``0.0`` (``BoundOff``,
which skips nothing), the best and seed outcomes and every ranked record
must be equal — for every tuner workload, on CPU and GPU clusters, and
for the joint pipeline demo.
"""

import functools

import pytest

from repro.machine.cluster import Cluster
from repro.pipeline import Pipeline
from repro.sim.params import LASSEN
from repro.tuner.joint import tune_pipeline
from repro.tuner.oracle import Oracle, TuningLedger
from repro.tuner.search import RANKED_KEEP, tune
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


@functools.lru_cache(maxsize=None)
def _searches(workload, search):
    """The tune of ``workload`` at size 64 by ``search``, with and
    without the bound (:func:`assert_skip_exact`; computed once)."""
    return assert_skip_exact(
        lambda: tune(sized(workload, 64), SEARCHES[search])
    )


@pytest.mark.parametrize("search", list(SEARCHES))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_skipping_keeps_the_top_exact(workload, search):
    skipped, _ = _searches(workload, search)
    # TTV's 40 candidates on four processors leave nothing to skip.
    assert (skipped.search.bound_skipped > 0) == (workload != "ttv")


def test_waves_over_workers_skip_alike():
    """With ``jobs=2`` the leaders no threshold can skip go out as one
    batch, the rest in waves of two: the same candidates are skipped
    and the search is exact. (MTTKRP has no rotation siblings sharing
    a cache entry, so forked workers simulate it exactly; ROADMAP
    item 3.)"""
    skipped, full = _searches("mttkrp", "cpu-exhaustive")
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
        assignment, space[:RANKED_KEEP], RANKED_KEEP, space[0]
    ))
    assert top == outcomes[:RANKED_KEEP]


def test_expected_objective_never_skips():
    result = from_empty_cache(lambda: tune(
        matmul(64), Cluster.cpu_cluster(2), objective="expected",
        failure_rate=1e-3,
    ))
    assert result.search.bound_skipped == 0
