"""Cross-candidate reuse in the tuner oracle (`tuner/oracle.py`).

The oracle scores candidates through one memo, `SIM_CACHE`: statically
pruned candidates never run a trace, the counts land in the tuning
ledger without breaking its byte-determinism, and a memoized report
must equal what a fresh, uncached simulation of the same candidate
reports.
"""

import copy
import json

import pytest

from repro.bench.cache import SIM_CACHE
from repro.core.kernel import compile_kernel
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.tuner.oracle import Oracle, TuningLedger
from repro.tuner.search import tune
from repro.tuner.space import enumerate_space, realize
from repro.tuner.workloads import matmul

from prune_off import PruneOff


@pytest.fixture(autouse=True)
def fresh_caches():
    SIM_CACHE.clear()
    yield
    SIM_CACHE.clear()


@pytest.fixture(scope="module")
def default_tune(tmp_path_factory):
    """One default tune of matmul(4096) on 8 CPU nodes, and the
    ``oracle_stats`` block of the ledger it wrote."""
    SIM_CACHE.clear()
    path = tmp_path_factory.mktemp("ledger") / "ledger.json"
    ledger = TuningLedger(path)
    result = tune(
        matmul(4096), Cluster.cpu_cluster(8), jobs=1, ledger=ledger,
    )
    assert ledger.compact()
    stats = json.loads(path.read_text())["oracle_stats"]
    return result.search, stats


@pytest.fixture(scope="module")
def memo_and_fresh():
    """Every simulated, feasible outcome of the full matmul(2048) space
    on 4 CPU nodes, paired with a fresh uncached simulation of the same
    candidate."""
    SIM_CACHE.clear()
    cluster = Cluster.cpu_cluster(4)
    assignment = matmul(2048)
    oracle = Oracle(cluster)
    space = enumerate_space(assignment, cluster.num_processors)
    pairs = []
    for outcome in oracle.evaluate(assignment, space):
        if outcome.pruned or not outcome.feasible:
            continue
        machine = Machine(cluster, Grid(*outcome.decision.grid))
        schedule, _ = realize(
            copy.deepcopy(assignment), machine, outcome.decision,
            memory=oracle.memory,
        )
        pairs.append(
            (outcome, compile_kernel(schedule, machine).simulate())
        )
    assert pairs
    return pairs


class TestIncrementalOracle:
    def test_fewer_trace_executions_than_candidates(self, default_tune):
        search, _stats = default_tune
        assert search.evaluations > 0
        # Statically pruned candidates are scored without a trace.
        assert search.trace_executions < search.evaluations

    def test_static_pruning_replaces_repricing(self, default_tune):
        # The analyzer decides the dominated-leaf and provably-OOM
        # candidates with zero simulations.
        search, _stats = default_tune
        assert search.pruned_static > 0
        assert search.pruned_static >= search.space_size // 5

    def test_hit_counts_logged_in_ledger(self, default_tune):
        # The pruned and scored counts land in the ledger.
        search, stats = default_tune
        assert stats["pruned_static"] == search.pruned_static
        assert stats["bound_skipped"] == search.bound_skipped
        assert stats["scored"] == (
            stats["simulated"] + stats["ledger_hits"] + stats["bound_skipped"]
        )

    def test_pruning_preserves_the_winner(self):
        cluster = Cluster.cpu_cluster(4)
        pruned = tune(matmul(2048), cluster, strategy="exhaustive")
        with PruneOff():
            unpruned = tune(matmul(2048), cluster, strategy="exhaustive")
        assert pruned.decision == unpruned.decision
        assert pruned.search.best.cost == unpruned.search.best.cost

    def test_memo_costs_match_fresh_simulation(self, memo_and_fresh):
        mismatched = [
            outcome.decision
            for outcome, fresh in memo_and_fresh
            if outcome.cost != fresh.total_time
        ]
        assert not mismatched

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: rotation siblings share a SIM_CACHE key",
    )
    def test_memo_traffic_matches_fresh_simulation(self, memo_and_fresh):
        mismatched = [
            outcome.decision
            for outcome, fresh in memo_and_fresh
            if (outcome.comm_time, outcome.inter_node_bytes)
            != (fresh.comm_time, fresh.inter_node_bytes)
        ]
        assert not mismatched
