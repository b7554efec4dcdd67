"""The schedule search: determinism, the heuristic seed, strategies."""

import pytest

from repro import api
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.sim.params import LASSEN
from repro.tuner.oracle import TuningLedger
from repro.tuner.search import (
    balanced_grid,
    default_seed_grid,
    tune,
)
from repro.tuner.workloads import matmul, matmul_rect, weak_scaled

from bound_off import from_empty_cache

GIB = 1024 ** 3


def constrained_cluster(nodes, mem_bytes):
    return Cluster.build(
        num_nodes=nodes,
        procs_per_node=2,
        proc_kind=ProcessorKind.CPU_SOCKET,
        proc_mem_kind=MemoryKind.SYSTEM_MEM,
        proc_mem_capacity=mem_bytes,
        system_mem_capacity=mem_bytes,
    )


class TestBalancedGrid:
    def test_square_when_possible(self):
        assert balanced_grid(16, 2) == (4, 4)
        assert balanced_grid(64, 3) == (4, 4, 4)

    def test_most_balanced_otherwise(self):
        assert balanced_grid(8, 2) == (4, 2)
        assert balanced_grid(12, 2) == (4, 3)

    def test_one_dim(self):
        assert balanced_grid(7, 1) == (7,)

    def test_default_seed_grid_uses_output_rank(self):
        assert default_seed_grid(matmul(64), 16) == (4, 4)


class TestTune:
    def test_never_worse_than_heuristic(self):
        cluster = Cluster.cpu_cluster(2)
        result = tune(matmul(1024), cluster, strategy="exhaustive")
        search = result.search
        assert search.best.cost <= search.seed_outcome.cost
        assert result.report is not None
        assert result.report.total_time == pytest.approx(search.best.cost)

    def test_beats_heuristic_under_memory_pressure(self):
        # Nodes sized so the heuristic's replicated inputs OOM: the
        # tuner must find a feasible schedule, i.e. strictly improve.
        cluster = constrained_cluster(8, 96 * 1024 * 1024)
        result = tune(matmul(4096), cluster, strategy="exhaustive")
        search = result.search
        assert not search.seed_outcome.feasible  # heuristic OOMs
        assert search.best.feasible
        assert search.improved
        assert result.report is not None

    def test_deterministic_ledgers(self, tmp_path):
        """Two equal runs write byte-identical ledgers."""
        cluster = Cluster.cpu_cluster(8)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        ledgers = [TuningLedger(path) for path in paths]
        results = [
            tune(matmul(4096), cluster, ledger=ledger)
            for ledger in ledgers
        ]
        for ledger in ledgers:
            assert ledger.compact()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert results[0].decision == results[1].decision

    def test_different_seed_still_contains_heuristic(self):
        """A request's seed keys its answer but does not steer the
        search: both seeds rank the heuristic and find one winner."""
        cluster = Cluster.cpu_cluster(4)
        results = [
            api.tune_request(api.ScheduleRequest.from_assignment(
                matmul(2048), cluster, seed=seed,
            ))
            for seed in (0, 1)
        ]
        for result in results:
            assert result.search.best.cost <= result.search.seed_outcome.cost
        assert results[0].decision == results[1].decision

    def test_whole_space_keeps_the_best_3d_grid(self):
        """Weak-scaled TTV on 128 CPU nodes: the best candidate is a
        3-D grid. Ranking the space on a 64-processor copy of the
        problem first loses it and returns a 16x16 grid at
        0.0040443 s."""
        result = from_empty_cache(lambda: tune(
            weak_scaled("ttv", 128), Cluster.cpu_cluster(128)
        ))
        assert result.decision.encode() == (
            "grid=4x8x8;dist=k,i,j;out=replicate;leaf=gemm"
        )
        assert result.search.best.cost == 0.004024089422222222

    def test_rect_matmul_keeps_output_stationary(self):
        """Fig. 9 rediscovery, rectangular: with a small contraction
        dimension the winner pulls inputs toward a stationary output
        (no rotation, no sequencing)."""
        cluster = Cluster.cpu_cluster(8)
        result = tune(
            matmul_rect(16384, 256, 16384), cluster, strategy="exhaustive"
        )
        assert result.decision.seq is None
        assert result.decision.rotate == ()
        out_names = {"i", "j"}
        assert set(result.decision.dist) <= out_names

    def test_square_matmul_rediscovers_systolic_rotation(self):
        """Fig. 9 rediscovery, square: with node memory that rules out
        every replication-heavy layout (the heuristic's pull, Johnson's
        3-D replicas) and blocking communication (comm visible), the
        exhaustive winner is a tiled systolic schedule — Cannon/PUMMA's
        rotation pattern, found from scratch."""
        cluster = constrained_cluster(32, 128 * 1024 * 1024)
        result = tune(
            matmul(8192),
            cluster,
            LASSEN.with_(overlap=False),
            strategy="exhaustive",
            jobs=4,
        )
        decision = result.search.best.decision
        assert not result.search.seed_outcome.feasible  # pull OOMs
        assert decision.tiled  # tiled Figure 9 layout
        assert decision.seq is not None  # sequenced k loop
        assert decision.rotate  # systolic rotation
        # ... and it beats the SUMMA-style broadcast alternative.
        from repro.tuner.oracle import Oracle
        from repro.tuner.space import Decision, normalize

        summa = normalize(matmul(8192), Decision(
            grid=decision.grid, dist=decision.dist, seq=decision.seq,
            steps_dim=decision.steps_dim, rotate=(),
            tiled=decision.tiled, step_comm=decision.step_comm,
            leaf=decision.leaf,
        ))
        oracle = Oracle(cluster, params=LASSEN.with_(overlap=False))
        (alt,) = oracle.evaluate(matmul(8192), [summa])
        assert result.search.best.cost <= alt.cost

    def test_unknown_strategy_raises(self):
        for strategy in ("magic", "auto", "beam"):
            with pytest.raises(ValueError):
                tune(matmul(256), Cluster.cpu_cluster(1), strategy=strategy)

    def test_keep_below_one_raises(self):
        for keep in (0, -1):
            with pytest.raises(ValueError, match="keep must be at least 1"):
                tune(matmul(256), Cluster.cpu_cluster(1), keep=keep)

    def test_max_dims_below_one_raises(self):
        for max_dims in (0, -1):
            with pytest.raises(
                ValueError, match="max_dims must be at least 1"
            ):
                tune(matmul(256), Cluster.cpu_cluster(1), max_dims=max_dims)
