"""Per-candidate wall-clock timeouts in the tuner oracle."""

import signal
import time

import pytest

from repro.bench.cache import SIM_CACHE
from repro.sim.params import LASSEN
from repro.tuner.oracle import (
    Oracle,
    _CandidateTimeout,
    _deadline,
    evaluate_one,
    grid_machine,
)
from repro.machine.cluster import MemoryKind
from repro.tuner.search import tune
from repro.tuner.space import (
    enumerate_space,
    index_symmetries,
    symmetry_representative,
)
from repro.tuner.workloads import lean_cluster, matmul, ttv

from prune_off import PruneOff


class TestDeadline:
    def test_expires_on_slow_work(self):
        with pytest.raises(_CandidateTimeout):
            with _deadline(0.05):
                time.sleep(2.0)

    def test_fast_work_unaffected(self):
        with _deadline(5.0):
            value = sum(range(1000))
        assert value == 499500
        # The timer is disarmed on exit.
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_none_and_zero_are_noops(self):
        with _deadline(None):
            pass
        with _deadline(0):
            pass

    def test_nested_deadline_keeps_outer_timer(self):
        with pytest.raises(_CandidateTimeout):
            with _deadline(0.05):
                with _deadline(60.0):  # must not overwrite the 0.05s
                    time.sleep(2.0)

    def test_restores_previous_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with _deadline(5.0):
            pass
        assert signal.getsignal(signal.SIGALRM) is before


class TestEvaluateTimeout:
    @pytest.fixture
    def problem(self):
        cluster = lean_cluster(4)
        assignment = matmul(64)
        decision = enumerate_space(
            assignment, cluster.num_processors
        )[0]
        return assignment, cluster, decision

    def test_stuck_candidate_becomes_error_outcome(
        self, problem, monkeypatch
    ):
        assignment, cluster, decision = problem

        def stuck(*args, **kwargs):
            time.sleep(30)

        monkeypatch.setattr(SIM_CACHE, "simulate", stuck)
        outcome = evaluate_one(
            assignment, cluster, decision, LASSEN, MemoryKind.SYSTEM_MEM,
            grid_machine({}, cluster, decision.grid), timeout_s=0.1,
        )
        assert not outcome.feasible
        assert "Timeout" in outcome.error
        assert "0.1s" in outcome.error
        assert not outcome.oom
        assert not outcome.pruned

    def test_generous_timeout_is_invisible(self, problem):
        assignment, cluster, decision = problem
        import copy

        machines = {}
        timed = evaluate_one(
            copy.deepcopy(assignment), cluster, decision, LASSEN,
            MemoryKind.SYSTEM_MEM,
            grid_machine(machines, cluster, decision.grid), timeout_s=60.0,
        )
        plain = evaluate_one(
            copy.deepcopy(assignment), cluster, decision, LASSEN,
            MemoryKind.SYSTEM_MEM,
            grid_machine(machines, cluster, decision.grid),
        )
        assert timed.cost == plain.cost
        assert timed.error == plain.error == ""

    def test_oracle_counts_timeouts_as_errors(
        self, problem, monkeypatch
    ):
        assignment, cluster, _ = problem

        def stuck(*args, **kwargs):
            time.sleep(30)

        monkeypatch.setattr(SIM_CACHE, "simulate", stuck)
        oracle = Oracle(cluster, params=LASSEN, timeout_s=0.1)
        space = enumerate_space(assignment, cluster.num_processors)
        with PruneOff():
            outcomes = oracle.evaluate(assignment, space[:2])
        assert oracle.errors == 2
        assert all("Timeout" in o.error for o in outcomes)

    def test_an_erroring_class_is_not_shared(self, monkeypatch):
        """A timeout names no decision's variables, but no error outcome
        is shared: each member of the class runs into its own."""
        cluster = lean_cluster(4)
        assignment = ttv(64)
        symmetries = index_symmetries(assignment)
        classes = {}
        for decision in enumerate_space(assignment, cluster.num_processors):
            rep = symmetry_representative(decision, symmetries)
            classes.setdefault(rep, []).append(decision)
        pair = next(members for members in classes.values()
                    if len(members) == 2)

        def stuck(*args, **kwargs):
            time.sleep(30)

        monkeypatch.setattr(SIM_CACHE, "simulate", stuck)
        oracle = Oracle(cluster, params=LASSEN, timeout_s=0.1)
        with PruneOff():
            outcomes = oracle.evaluate(assignment, pair)
        assert [o.decision for o in outcomes] == pair
        assert all("Timeout" in o.error for o in outcomes)
        assert (oracle.errors, oracle.symmetry_shared) == (2, 0)

    def test_tune_forwards_timeout(self, problem):
        assignment, cluster, _ = problem
        result = tune(
            assignment, cluster, LASSEN,
            strategy="exhaustive", timeout_s=120.0,
        )
        # A generous budget changes nothing about the search result.
        assert result.search.best.feasible
        assert result.search.errors == 0
