"""Tensor distribution notation tests, including all of Figure 5.

Each of the paper's six example distributions (Figure 5) is a direct
test case, plus the formal P/F semantics of the running 2x2x2 example
from Section 3.2.
"""

import pytest

from repro.formats.distribution import (
    Broadcast,
    DimName,
    Distribution,
    Fixed,
    block_index,
)
from repro.util.errors import DistributionError
from repro.util.geometry import Interval, Rect


def owned(notation, coords, tensor_shape, machine_shape):
    dist = Distribution.parse(notation)
    return dist.owned_rect(coords, Rect.full(tensor_shape), machine_shape)


class TestParsing:
    def test_parse_simple(self):
        d = Distribution.parse("xy -> xy")
        assert d.tensor_dims == ("x", "y")
        assert d.machine_dims == (DimName("x"), DimName("y"))

    def test_parse_fixed_and_broadcast(self):
        d = Distribution.parse("xy -> xy0*")
        assert d.machine_dims == (
            DimName("x"),
            DimName("y"),
            Fixed(0),
            Broadcast(),
        )

    def test_roundtrip(self):
        for s in ["x -> x", "xy -> x", "xy -> xy0", "xy -> xy*", "xyz -> xy"]:
            assert Distribution.parse(s).notation() == s

    def test_multi_digit_fixed_roundtrips(self):
        """Coordinates of 10 or more are parenthesized, so ``1,10`` and
        ``11,0`` no longer both print ``110``."""
        points = [(1, 10), (11, 0), (0, 0)]
        dists = [Distribution("xy", [Fixed(v) for v in p]) for p in points]
        assert [d.notation() for d in dists] == [
            "xy -> 1(10)", "xy -> (11)0", "xy -> 00",
        ]
        for d in dists:
            assert Distribution.parse(d.notation()).machine_dims == (
                d.machine_dims
            )

    def test_parse_rejects_garbage(self):
        with pytest.raises(DistributionError):
            Distribution.parse("xy")
        with pytest.raises(DistributionError):
            Distribution.parse("xy -> x?")
        with pytest.raises(DistributionError):
            Distribution.parse("xy -> x(1")

    def test_machine_dims_check(self):
        with pytest.raises(DistributionError):
            Distribution.parse("xy -> xy", machine_dims=3)


class TestValidity:
    """The validity rules of Section 3.2."""

    def test_duplicate_tensor_names(self):
        with pytest.raises(DistributionError):
            Distribution.parse("xx -> x")

    def test_duplicate_machine_names(self):
        with pytest.raises(DistributionError):
            Distribution.parse("xy -> xx")

    def test_machine_name_must_be_tensor_name(self):
        with pytest.raises(DistributionError):
            Distribution.parse("xy -> xz")

    def test_fixed_out_of_range(self):
        d = Distribution.parse("xy -> xy3")
        with pytest.raises(DistributionError):
            d.check_machine((2, 2, 2))

    def test_ok_case(self):
        Distribution.parse("xy -> xy0").check_machine((2, 2, 2))


class TestFigure5:
    """The six distribution examples of Figure 5."""

    def test_5a_blocked_vector(self):
        # T x->x M: 100 components over 10 processors: 10 each.
        for p in range(10):
            rect = owned("x -> x", (p,), (100,), (10,))
            assert rect == Rect.of(Interval(10 * p, 10 * p + 10))

    def test_5b_row_wise_matrix(self):
        # T xy->x M: row blocks; columns span their full extent.
        rect = owned("xy -> x", (1,), (6, 4), (3,))
        assert rect == Rect.of(Interval(2, 4), Interval(0, 4))

    def test_5c_tiled_matrix(self):
        rect = owned("xy -> xy", (1, 0), (4, 4), (2, 2))
        assert rect == Rect.of(Interval(2, 4), Interval(0, 2))

    def test_5d_fixed_face(self):
        # T xy->xy0 M: tiles live only on the z=0 face.
        on_face = owned("xy -> xy0", (1, 1, 0), (4, 4), (2, 2, 2))
        assert on_face == Rect.of(Interval(2, 4), Interval(2, 4))
        off_face = owned("xy -> xy0", (1, 1, 1), (4, 4), (2, 2, 2))
        assert off_face is None

    def test_5e_broadcast(self):
        # T xy->xy* M: every z coordinate holds a replica.
        for z in range(2):
            rect = owned("xy -> xy*", (0, 1, z), (4, 4), (2, 2, 2))
            assert rect == Rect.of(Interval(0, 2), Interval(2, 4))

    def test_5f_3_tensor_on_2d_machine(self):
        # T xyz->xy M: the last tensor dimension is unpartitioned.
        rect = owned("xyz -> xy", (1, 0), (4, 4, 4), (2, 2))
        assert rect == Rect.of(
            Interval(2, 4), Interval(0, 2), Interval(0, 4)
        )


class TestSemantics:
    """P and F of the running example: T xy->xy* M, T 2x2, M 2x2x2."""

    def setup_method(self):
        self.dist = Distribution.parse("xy -> xy*")
        self.tshape = (2, 2)
        self.mshape = (2, 2, 2)

    def test_coloring(self):
        for coord in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            color = self.dist.color_of(coord, self.tshape, self.mshape)
            assert color == coord

    def test_f_expands_broadcast(self):
        procs = list(
            self.dist.processors_of_color((0, 1), self.mshape)
        )
        assert procs == [(0, 1, 0), (0, 1, 1)]

    def test_replication_factor(self):
        assert self.dist.replication_factor(self.mshape) == 2
        tiled = Distribution.parse("xy -> xy")
        assert tiled.replication_factor((2, 2)) == 1

    def test_home_points_fixed(self):
        dist = Distribution.parse("xy -> xy0")
        points = list(dist.home_points((2, 2, 2)))
        assert all(p[2] == 0 for p in points)
        assert len(points) == 4


class TestOwnerQueries:
    def test_owners_covering_hit(self):
        dist = Distribution.parse("xy -> xy")
        needed = Rect.of(Interval(0, 2), Interval(2, 4))
        owners = dist.owners_covering(needed, Rect.full((4, 4)), (2, 2))
        assert owners == [(0, 1)]

    def test_owners_covering_straddles(self):
        dist = Distribution.parse("xy -> xy")
        needed = Rect.of(Interval(1, 3), Interval(0, 2))
        assert dist.owners_covering(needed, Rect.full((4, 4)), (2, 2)) == []

    def test_cover_pieces_decomposes(self):
        dist = Distribution.parse("xy -> xy")
        needed = Rect.of(Interval(1, 3), Interval(0, 2))
        pieces = dist.cover_pieces(needed, Rect.full((4, 4)), (2, 2))
        assert len(pieces) == 2
        total = sum(rect.volume for _, rect in pieces)
        assert total == needed.volume

    def test_broadcast_owner_is_free(self):
        dist = Distribution.parse("xy -> xy*")
        needed = Rect.of(Interval(0, 2), Interval(0, 2))
        owners = dist.owners_covering(needed, Rect.full((4, 4)), (2, 2, 3))
        assert owners == [(0, 0, None)]

    def test_ragged_blocks(self):
        # 10 rows over 3 processors: blocks of 4, 4, 2.
        dist = Distribution.parse("xy -> x")
        r0 = dist.owned_rect((0,), Rect.full((10, 2)), (3,))
        r2 = dist.owned_rect((2,), Rect.full((10, 2)), (3,))
        assert r0.intervals[0] == Interval(0, 4)
        assert r2.intervals[0] == Interval(8, 10)


class TestBlockIndex:
    def test_exact(self):
        assert block_index(0, 12, 3) == 0
        assert block_index(4, 12, 3) == 1
        assert block_index(11, 12, 3) == 2

    def test_ragged_clamps(self):
        # 10 over 3 -> tiles of 4: offset 9 is in the last block.
        assert block_index(9, 10, 3) == 2
