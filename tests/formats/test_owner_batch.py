"""The vectorized owner queries mirror the scalar ones exactly.

``Format.owner_pattern_batch`` and ``Format.owner_pieces_batch`` are the
orbit executor's replacements for per-context ``owner_pattern`` and
per-class ``owner_pieces`` calls; these tests drive both forms over
randomized request rectangles — divisible and prime tensor extents,
fixed/broadcast machine dims, hierarchical chains — and require
identical answers everywhere.
"""

import numpy as np
import pytest

from repro.formats.format import Format
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.util.geometry import Interval, Rect


def random_rects(rng, shape, k):
    los = np.empty((len(shape), k), dtype=np.int64)
    his = np.empty((len(shape), k), dtype=np.int64)
    for d, extent in enumerate(shape):
        lo = rng.integers(0, extent, size=k)
        hi = lo + 1 + rng.integers(0, extent, size=k)
        his[d] = np.minimum(hi, extent)
        los[d] = lo
    return los, his


def rect_at(los, his, j):
    return Rect(
        tuple(
            Interval(int(los[d, j]), int(his[d, j]))
            for d in range(los.shape[0])
        )
    )


def assert_batch_matches_scalar(fmt, machine, shape, k=200, seed=0):
    rng = np.random.default_rng(seed)
    los, his = random_rects(rng, shape, k)
    pattern, valid = fmt.owner_pattern_batch(machine, los, his, shape)
    for j in range(k):
        rect = rect_at(los, his, j)
        scalar = fmt.owner_pattern(machine, rect, shape)
        if scalar is None:
            assert not valid[j], f"rect {rect}: batch valid, scalar None"
            continue
        assert valid[j], f"rect {rect}: scalar {scalar}, batch invalid"
        expected = [-1 if p is None else p for p in scalar]
        assert pattern[:, j].tolist() == expected, f"rect {rect}"


def assert_pieces_match_scalar(fmt, machine, shape, k=200, seed=0):
    rng = np.random.default_rng(seed)
    los, his = random_rects(rng, shape, k)
    # Some requests empty in one dimension: they decompose into nothing.
    his[-1, ::17] = los[-1, ::17]
    req, pattern, p_lo, p_hi = fmt.owner_pieces_batch(
        machine, los, his, shape
    )
    assert (np.diff(req) >= 0).all(), "pieces of a request not contiguous"
    for j in range(k):
        rect = rect_at(los, his, j)
        scalar = fmt.owner_pieces(machine, rect, shape)
        expected = [
            ([-1 if p is None else p for p in pat], piece)
            for pat, piece in scalar
        ]
        cols = np.flatnonzero(req == j)
        got = [
            (pattern[:, c].tolist(), rect_at(p_lo, p_hi, c)) for c in cols
        ]
        assert got == expected, f"rect {rect}"
        # A request one home piece covers decomposes into itself, owned
        # by that piece (reduction flushes rely on this).
        single = None if rect.is_empty else fmt.owner_pattern(
            machine, rect, shape
        )
        if single is not None:
            assert scalar == [(tuple(single), rect)], f"rect {rect}"


class TestOwnerPatternBatch:
    check = staticmethod(assert_batch_matches_scalar)

    @pytest.mark.parametrize("extent", [64, 61])
    def test_2d_tiling(self, extent):
        machine = Machine(Cluster.cpu_cluster(8), Grid(4, 4))
        fmt = Format("xy -> xy")
        self.check(fmt, machine, (extent, extent))

    @pytest.mark.parametrize("notation", ["xy -> xy0", "xy -> x0y",
                                          "xy -> xy*", "xy -> x*y"])
    def test_fixed_and_broadcast_dims(self, notation):
        machine = Machine(Cluster.cpu_cluster(4), Grid(2, 2, 2))
        fmt = Format(notation)
        self.check(fmt, machine, (48, 37))

    def test_row_blocks(self):
        machine = Machine(Cluster.cpu_cluster(8), Grid(16))
        fmt = Format("xy -> x")
        self.check(fmt, machine, (53, 40))

    def test_3_tensor_on_2d_machine(self):
        machine = Machine(Cluster.cpu_cluster(8), Grid(4, 4))
        fmt = Format("xyz -> xy")
        self.check(fmt, machine, (24, 23, 17))

    def test_hierarchical_chain(self):
        machine = Machine(Cluster.gpu_cluster(4), Grid(2, 2), Grid(2, 2))
        fmt = Format(["xy -> xy", "xy -> xy"])
        self.check(fmt, machine, (64, 57))

    def test_undistributed(self):
        machine = Machine(Cluster.cpu_cluster(4), Grid(2, 2))
        self.check(Format(), machine, (8, 8))


class TestOwnerPiecesBatch(TestOwnerPatternBatch):
    """The same format matrix through the multi-piece decomposition."""

    check = staticmethod(assert_pieces_match_scalar)
