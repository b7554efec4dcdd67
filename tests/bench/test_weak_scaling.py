"""Tests for the weak-scaling sizing and grid-selection helpers."""

import hashlib
import json

import pytest

from repro.bench.weak_scaling import (
    cube_grid,
    factor3,
    grid_25d,
    square_grid,
    weak_cube_side,
    weak_matrix_size,
)


class TestProblemSizing:
    def test_matrix_scaling_law(self):
        base = 8192
        n1 = weak_matrix_size(base, 1)
        n16 = weak_matrix_size(base, 16)
        # Memory per node constant: n^2/nodes constant -> n ~ sqrt(nodes).
        assert n16 / n1 == pytest.approx(4.0, rel=0.02)

    def test_cube_scaling_law(self):
        base = 800
        n1 = weak_cube_side(base, 1)
        n8 = weak_cube_side(base, 8)
        assert n8 / n1 == pytest.approx(2.0, rel=0.05)

    def test_rounding_multiple(self):
        assert weak_matrix_size(8192, 2, multiple=64) % 64 == 0
        assert weak_cube_side(700, 3, multiple=8) % 8 == 0


class TestGrids:
    def test_square_grid(self):
        assert square_grid(16) == (4, 4)
        assert square_grid(32) == (8, 4)
        assert square_grid(2) == (2, 1)

    def test_cube_grid_rounds(self):
        assert cube_grid(64) == (4, 4, 4)
        assert cube_grid(128) == (5, 5, 5)  # over/under-decomposes
        assert cube_grid(2) == (1, 1, 1)

    def test_factor3_uses_all_processors(self):
        for p in (2, 8, 24, 64, 512, 1024):
            gx, gy, gz = factor3(p)
            assert gx * gy * gz == p

    def test_factor3_balanced(self):
        assert factor3(512) == (8, 8, 8)
        assert factor3(128) == (8, 4, 4)

    def test_square_grid_and_factor3_digest(self):
        # Figures, ScaLAPACK and perfbench read these grids; the digest
        # was recorded from the standalone 2-D and 3-D factorizers that
        # ``balanced_grid`` replaced.
        rows = [
            [p, list(square_grid(p)), list(factor3(p))]
            for p in range(1, 4097)
        ]
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()
        ).hexdigest()
        assert digest == (
            "07604aac15f9c5f2c3e4b107db16a31c757d4c1472c2d1c5bce1d3afd02146fe"
        )

    def test_grid_25d_constraints(self):
        for p in (4, 16, 32, 64, 512, 1024):
            q, q2, c = grid_25d(p)
            assert q == q2
            assert q % c == 0
            assert q * q * c <= p

    def test_grid_25d_prefers_replication(self):
        q, _, c = grid_25d(32)
        assert (q, c) == (4, 2)
