"""Tests for SimReport derived metrics and parameter variants."""

import math

import pytest

from repro.sim.params import (
    COSMA_PARAMS,
    COSMA_RESTRICTED_PARAMS,
    CTF_PARAMS,
    LASSEN,
    SCALAPACK_PARAMS,
)
from repro.sim.report import SimReport


def make_report(**overrides):
    base = dict(
        total_time=2.0,
        comm_time=0.5,
        compute_time=1.8,
        total_flops=4e12,
        bytes_touched=1e11,
        inter_node_bytes=5e9,
        total_copy_bytes=8e9,
        num_nodes=4,
    )
    base.update(overrides)
    return SimReport(**base)


class TestSimReport:
    def test_gflops_per_node(self):
        rep = make_report()
        assert rep.gflops_per_node == pytest.approx(4e12 / 2.0 / 4 / 1e9)

    def test_gbytes_per_node(self):
        rep = make_report()
        assert rep.gbytes_per_node == pytest.approx(1e11 / 2.0 / 4 / 1e9)

    def test_zero_time_guard(self):
        rep = make_report(total_time=0.0)
        assert rep.gflops_per_node == 0.0
        assert rep.gbytes_per_node == 0.0

    def test_negative_time_guard(self):
        # total_time <= 0 must never divide: rates clamp to zero for
        # any non-positive time, not just exactly zero.
        rep = make_report(total_time=-1.5)
        assert rep.gflops_per_node == 0.0
        assert rep.gbytes_per_node == 0.0

    def test_empty_memory_high_water(self):
        rep = make_report(memory_high_water={})
        assert rep.max_memory_bytes == 0

    def test_breakdown_defaults_to_none_and_ignored_by_eq(self):
        from repro.sim.report import PhaseBreakdown

        plain = make_report()
        assert plain.breakdown is None
        rich = make_report()
        rich.breakdown = PhaseBreakdown(phases=())
        assert plain == rich

    def test_max_memory(self):
        rep = make_report(memory_high_water={"a": 10, "b": 25})
        assert rep.max_memory_bytes == 25
        assert make_report().max_memory_bytes == 0

    def test_repr(self):
        assert "GF/s/node" in repr(make_report())


class TestParams:
    def test_with_replaces(self):
        p = LASSEN.with_(overlap=False)
        assert not p.overlap
        assert p.nic_bw == LASSEN.nic_bw
        assert LASSEN.overlap  # original untouched (frozen)

    def test_lassen_physical_facts(self):
        # The paper's measured numbers embedded in the model.
        assert LASSEN.nic_bw == 25e9
        assert LASSEN.nic_bw_gpu_direct == 18e9  # "18/25 GB/s"
        assert LASSEN.runtime_core_fraction == pytest.approx(0.9)  # 36/40

    def test_baseline_variants_differ_where_stated(self):
        # COSMA: no runtime tax, tuned collectives.
        assert COSMA_PARAMS.runtime_core_fraction == 1.0
        assert COSMA_PARAMS.collective_efficiency < 1.0
        # Restricted variant re-applies the DISTAL core budget.
        assert COSMA_RESTRICTED_PARAMS.runtime_core_fraction == pytest.approx(
            0.9
        )
        # The MPI libraries block on collectives.
        assert not SCALAPACK_PARAMS.overlap
        assert not CTF_PARAMS.overlap
        # CTF's generic leaves are far below fused kernels.
        assert CTF_PARAMS.naive_leaf_efficiency < LASSEN.naive_leaf_efficiency

    def test_frozen(self):
        with pytest.raises(Exception):
            LASSEN.overlap = False


class TestParamValidation:
    @pytest.mark.parametrize("field", [
        "cpu_mem_bw", "gpu_mem_bw", "nic_bw", "nic_bw_gpu_direct",
        "nvlink_bw", "pcie_bw",
    ])
    @pytest.mark.parametrize("value", [0.0, -25e9])
    def test_bandwidth_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            LASSEN.with_(**{field: value})

    @pytest.mark.parametrize("field", ["cpu_socket_gflops", "gpu_gflops"])
    def test_throughput_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            LASSEN.with_(**{field: 0.0})

    @pytest.mark.parametrize("field", [
        "gemm_efficiency", "naive_leaf_efficiency", "collective_efficiency",
        "out_of_core_efficiency", "runtime_core_fraction",
        "bcast_relay_factor",
    ])
    def test_efficiency_fraction_and_relay_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            LASSEN.with_(**{field: 0.0})
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            LASSEN.with_(**{field: -0.5})

    @pytest.mark.parametrize("field", ["latency", "task_overhead"])
    def test_latency_and_overhead_may_be_zero_not_negative(self, field):
        assert getattr(LASSEN.with_(**{field: 0.0}), field) == 0.0
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            LASSEN.with_(**{field: -1e-6})

    @pytest.mark.parametrize("field", ["nic_bw", "latency", "gemm_efficiency"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LASSEN.with_(**{field: value})

