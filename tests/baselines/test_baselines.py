"""Tests for the comparison-system models (ScaLAPACK, CTF, COSMA)."""

import pytest

from repro import Cluster
from repro.baselines.cosma import cosma_reference_matmul
from repro.baselines.ctf import (
    best_25d_grid,
    best_rect_grid,
    ctf_innerprod,
    ctf_matmul,
    ctf_mttkrp,
    ctf_ttm,
    ctf_ttv,
    redistribution_steps,
)
from repro.baselines.scalapack import scalapack_matmul
from repro.bench.weak_scaling import square_grid


@pytest.fixture(scope="module")
def cpu8():
    return Cluster.cpu_cluster(8)


class TestGridSelection:
    def test_best_2d_grid(self):
        # ScaLAPACK and CTF's inner product run on the most-square grid.
        assert square_grid(16) == (4, 4)
        assert square_grid(8) == (4, 2)
        assert square_grid(7) == (7, 1)

    def test_best_25d_grid(self):
        assert best_25d_grid(16) == (4, 4, 1)
        # 32 = 4*4*2 with c | q.
        assert best_25d_grid(32) == (4, 4, 2)
        assert best_25d_grid(1) == (1, 1, 1)

    def test_best_rect_grid_matvec(self):
        gx, gy = best_rect_grid(8, 1_000_000, 1)
        assert gy == 1 and gx == 8

    def test_best_rect_grid_square(self):
        assert best_rect_grid(16, 4096, 4096) == (4, 4)


class TestRedistribution:
    def test_steps_move_all_bytes(self, cpu8):
        steps = redistribution_steps(cpu8, 16e9, "fold")
        assert len(steps) == 1
        moved = sum(c.nbytes for c in steps[0].copies)
        assert moved == pytest.approx(16e9, rel=0.01)

    def test_zero_bytes_no_steps(self, cpu8):
        assert redistribution_steps(cpu8, 0, "fold") == []


class TestMatmulBaselines:
    def test_scalapack_below_peak(self, cpu8):
        rep = scalapack_matmul(cpu8, 16384)
        assert 300 < rep.gflops_per_node < 700

    def test_cosma_near_peak(self, cpu8):
        rep = cosma_reference_matmul(cpu8, 16384)
        assert rep.gflops_per_node > 650

    def test_cosma_restricted_slower(self, cpu8):
        full = cosma_reference_matmul(cpu8, 16384)
        restricted = cosma_reference_matmul(cpu8, 16384, restricted_cpus=True)
        assert restricted.gflops_per_node < full.gflops_per_node

    def test_ctf_matmul_reasonable(self, cpu8):
        rep = ctf_matmul(cpu8, 16384)
        assert 300 < rep.gflops_per_node < 700

    def test_cosma_gpu_out_of_core(self):
        gpu = Cluster.gpu_cluster(1)
        rep = cosma_reference_matmul(gpu, 20000)
        # Host-resident out-of-core GEMM: about half of resident rate.
        assert rep.gflops_per_node < 16000


class TestHigherOrderBaselines:
    def test_ttv_collapses_past_one_node(self):
        one = ctf_ttv(Cluster.cpu_cluster(1), 704)
        many = ctf_ttv(Cluster.cpu_cluster(8), 1408)
        assert many.gbytes_per_node < 0.5 * one.gbytes_per_node

    def test_innerprod_scales_flat(self):
        one = ctf_innerprod(Cluster.cpu_cluster(1), 704)
        many = ctf_innerprod(Cluster.cpu_cluster(8), 1408)
        assert many.gbytes_per_node > 0.8 * one.gbytes_per_node

    def test_ttm_pays_redistribution(self, cpu8):
        rep = ctf_ttm(cpu8, 1408, 64)
        assert rep.inter_node_bytes > float(1408) ** 3 * 8 * 0.5

    def test_mttkrp_two_stages(self, cpu8):
        rep = ctf_mttkrp(cpu8, 1408, 64)
        assert rep.total_flops > 0
        assert rep.gflops_per_node > 0
