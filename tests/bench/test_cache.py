"""Tests for the plan/trace cache behind the benchmark sweeps."""

import pytest

from repro.algorithms.matmul import cannon, summa
from repro.bench.cache import (
    SIM_CACHE,
    SimulationCache,
    cached_baseline,
    cluster_signature,
    kernel_fingerprint,
)
from repro.bench.figures import sweep
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN
from repro.util.errors import OutOfMemoryError


@pytest.fixture
def machine():
    return Machine(Cluster.cpu_cluster(2), Grid(2, 2))


class TestFingerprints:
    def test_same_config_same_fingerprint(self, machine):
        # Two independently compiled kernels of the same configuration
        # share a fingerprint — the property that lets sweeps reuse
        # results across node counts.
        assert kernel_fingerprint(cannon(machine, 256)) == kernel_fingerprint(
            cannon(machine, 256)
        )

    def test_distinct_configs_distinct_fingerprints(self, machine):
        base = kernel_fingerprint(cannon(machine, 256))
        assert kernel_fingerprint(cannon(machine, 320)) != base  # size
        assert kernel_fingerprint(summa(machine, 256)) != base  # schedule
        other = Machine(Cluster.cpu_cluster(4), Grid(2, 4))
        assert kernel_fingerprint(cannon(other, 256)) != base  # machine

    def test_cluster_signature_distinguishes_kinds(self):
        cpu = cluster_signature(Cluster.cpu_cluster(2))
        gpu = cluster_signature(Cluster.gpu_cluster(2))
        assert cpu != gpu
        assert cpu == cluster_signature(Cluster.cpu_cluster(2))


class TestSimulationCache:
    def test_second_simulation_is_a_hit(self, machine):
        cache = SimulationCache()
        r1 = cache.simulate(cannon(machine, 256), LASSEN)
        r2 = cache.simulate(cannon(machine, 256), LASSEN)
        assert cache.misses == 1 and cache.hits == 1
        assert r2 is r1

    def test_params_are_part_of_the_key(self, machine):
        cache = SimulationCache()
        cache.simulate(cannon(machine, 256), LASSEN)
        cache.simulate(cannon(machine, 256), LASSEN.with_(overlap=False))
        assert cache.misses == 2

    def test_param_sweep_never_aliases(self, machine):
        # Every distinct MachineParams lands in its own slot.
        cache = SimulationCache()
        kern = cannon(machine, 256)
        reports = [
            cache.simulate(kern, LASSEN.with_(nic_bw=bw))
            for bw in (1e9, 2e9, 4e9)
        ]
        assert cache.misses == 3
        assert len({r.total_time for r in reports}) == 3

    def test_export_install_roundtrip(self, machine):
        cache = SimulationCache()
        report = cache.simulate(cannon(machine, 256), LASSEN)
        other = SimulationCache()
        before = other.key_set()
        other.install(cache.export(exclude=before))
        assert other.simulate(cannon(machine, 256), LASSEN) == report
        assert other.misses == 0 and other.hits == 1

    def test_oom_outcomes_are_cached(self):
        # A framebuffer-pinned kernel on a tiny GPU cluster OOMs; the
        # second attempt must re-raise without re-simulating.
        cluster = Cluster.gpu_cluster(1, gpus_per_node=4, framebuffer_gib=2)
        machine = Machine(cluster, Grid(2, 2))
        cache = SimulationCache()
        with pytest.raises(OutOfMemoryError):
            cache.simulate(cannon(machine, 40000, memory=MemoryKind.GPU_FB))
        with pytest.raises(OutOfMemoryError):
            cache.simulate(cannon(machine, 40000, memory=MemoryKind.GPU_FB))
        assert cache.misses == 1 and cache.hits == 1


class TestCachedBaseline:
    def test_memoizes_per_arguments(self):
        cluster = Cluster.cpu_cluster(2)
        calls = []

        def model(cl, n):
            calls.append(n)
            from repro.baselines.scalapack import scalapack_matmul

            return scalapack_matmul(cl, n)

        counts = SIM_CACHE.hits, SIM_CACHE.misses
        before = SIM_CACHE.key_set()
        r1 = cached_baseline(model, cluster, 512)
        r2 = cached_baseline(model, cluster, 512)
        cached_baseline(model, cluster, 1024)
        assert calls == [512, 1024]
        assert r2 is r1
        # Baselines are keys of the simulation cache's one store, so a
        # forked point ships them in its one cache delta; the hit and
        # miss counters still count kernel simulations only.
        assert len(SIM_CACHE.key_set() - before) == 2
        assert (SIM_CACHE.hits, SIM_CACHE.misses) == counts

    def test_oom_outcome_is_cached(self):
        cluster = Cluster.cpu_cluster(2)
        calls = []

        def model(cl, n):
            calls.append(n)
            raise OutOfMemoryError("sysmem", n, 1)

        for _ in range(2):
            with pytest.raises(OutOfMemoryError) as err:
                cached_baseline(model, cluster, 1 << 40)
            assert err.value.needed_bytes == 1 << 40
        assert calls == [1 << 40]


class TestWeakScalingSweep:
    def test_small_sweep_produces_rows(self):
        rows = sweep("weak", [1, 2], systems=("cannon", "summa"))
        assert len(rows) == 4
        assert {r["system"] for r in rows} == {"cannon", "summa"}
        assert all(
            r["value"] is not None and r["value"] > 0 for r in rows
        )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            sweep("weak", [1], systems=("strassen",))
