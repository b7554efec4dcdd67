"""Metrics registry: counters, sources, fork deltas, determinism."""

import pytest

from repro.obs.metrics import METRICS, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestRegistry:
    def test_counters_accumulate(self, reg):
        reg.inc("a.hits")
        reg.inc("a.hits", 4)
        assert reg.get("a.hits") == 5

    def test_gauges_last_value_wins(self, reg):
        reg.observe("depth", 3)
        reg.observe("depth", 7)
        assert reg.get("depth") == 7

    def test_snapshot_sorted_and_complete(self, reg):
        reg.inc("z.count", 2)
        reg.observe("a.gauge", 1.5)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap == {"a.gauge": 1.5, "z.count": 2}

    def test_sources_contribute_without_clobbering(self, reg):
        reg.register_source("src", lambda: {"cache.hits": 10, "own": 1})
        reg.inc("cache.hits", 99)  # explicit counter wins
        snap = reg.snapshot()
        assert snap["cache.hits"] == 99
        assert snap["own"] == 1

    def test_raising_source_is_skipped(self, reg):
        def bad():
            raise RuntimeError("no")

        reg.register_source("bad", bad)
        reg.inc("fine", 1)
        assert reg.snapshot() == {"fine": 1}

    def test_snapshot_without_sources(self, reg):
        reg.register_source("src", lambda: {"derived": 5})
        assert reg.snapshot(sources=False) == {}

    def test_reset_keeps_sources(self, reg):
        reg.register_source("src", lambda: {"derived": 5})
        reg.inc("gone", 1)
        reg.reset()
        assert reg.snapshot() == {"derived": 5}


class TestForkEnvelope:
    def test_delta_subtracts_inherited_counters(self, reg):
        reg.inc("work", 10)
        before = reg.export()
        reg.inc("work", 3)
        reg.inc("new", 1)
        delta = reg.delta(before)
        assert delta["counters"] == {"work": 3, "new": 1}

    def test_delta_gauges_ship_when_changed(self, reg):
        reg.observe("same", 1)
        reg.observe("changed", 1)
        before = reg.export()
        reg.observe("changed", 2)
        delta = reg.delta(before)
        assert delta["gauges"] == {"changed": 2}

    def test_install_sums_counters_overwrites_gauges(self, reg):
        reg.inc("work", 5)
        reg.observe("depth", 1)
        reg.install({"counters": {"work": 2}, "gauges": {"depth": 9}})
        assert reg.get("work") == 7
        assert reg.get("depth") == 9

    def test_roundtrip_matches_sequential(self):
        # Parent does some work, forks, child does more; merging the
        # child's delta must equal having done it all in one process.
        sequential = MetricsRegistry()
        sequential.inc("steps", 4)
        sequential.inc("steps", 6)

        parent = MetricsRegistry()
        parent.inc("steps", 4)
        child_view = MetricsRegistry()
        child_view.install(parent.export())  # fork inherits
        before = child_view.export()
        child_view.inc("steps", 6)
        parent.install(child_view.delta(before))
        assert parent.snapshot() == sequential.snapshot()


class TestGlobalRegistry:
    def test_sim_cache_source_registered(self):
        snap = METRICS.snapshot()
        assert "sim_cache.hits" in snap
        assert "spans.recorded" in snap

    def test_snapshot_determinism_across_equal_runs(self):
        """Equal-seed runs produce identical explicit counters.

        The registry's own counters are derived from what was computed
        (steps, replays, flush batches), never from wall-clock — so two
        identical simulations increment identically.
        """
        from repro.algorithms.matmul import cannon
        from repro.bench.weak_scaling import square_grid
        from repro.machine.cluster import Cluster
        from repro.machine.grid import Grid
        from repro.machine.machine import Machine
        from repro.sim.params import LASSEN

        def run():
            before = METRICS.export()["counters"]
            cluster = Cluster.cpu_cluster(4)
            machine = Machine(
                cluster, Grid(*square_grid(cluster.num_processors))
            )
            cannon(machine, 512).simulate(LASSEN)
            after = METRICS.export()["counters"]
            return {
                k: after.get(k, 0) - before.get(k, 0)
                for k in after
                if after.get(k, 0) != before.get(k, 0)
            }

        first = run()
        second = run()
        assert first == second
        assert first.get("orbit.runs") == 1
        assert first.get("orbit.steps", 0) > 0

    def test_equal_seed_ledgers_byte_identical_with_obs_on(self, tmp_path):
        """Tuning ledgers stay byte-deterministic with the full
        observability layer live (metrics always on, tracing forced).

        The ledger's embedded oracle stats are derived from the
        search's decisions, not cache or counter state — instrumentation
        must not leak wall-clock-dependent values into it.
        """
        from repro.bench.cache import SIM_CACHE
        from repro.machine.cluster import Cluster
        from repro.obs.spans import reset_spans, set_tracing
        from repro.tuner.search import tune
        from repro.tuner.workloads import matmul

        def run(path):
            SIM_CACHE.clear()
            tune(
                matmul(2048), Cluster.cpu_cluster(4), jobs=1, seed=7,
                ledger_path=path,
            )
            return path.read_bytes()

        set_tracing(True)
        try:
            first = run(tmp_path / "a.json")
            second = run(tmp_path / "b.json")
        finally:
            set_tracing(None)
            reset_spans()
        assert first == second
