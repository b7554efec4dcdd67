"""Interval and rectangle arithmetic.

Every bounds computation in the compiler — partition derivation, copy
rectangles, leaf slices — is interval arithmetic over half-open integer
intervals, combined per-dimension into hyper-rectangles (:class:`Rect`).
This mirrors the "standard bounds analysis procedure" of Section 6.2 of the
paper, where Legion partitions are built from hyper-rectangular bounding
boxes of index variable extents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Interval:
    """A half-open integer interval ``[lo, hi)``.

    Empty intervals are normalized to ``hi == lo``; an interval is a *point*
    when it contains exactly one integer.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            object.__setattr__(self, "hi", self.lo)

    @staticmethod
    def point(value: int) -> "Interval":
        """The interval containing exactly ``value``."""
        return Interval(value, value + 1)

    @staticmethod
    def extent(n: int) -> "Interval":
        """The full domain ``[0, n)`` of a loop or tensor dimension."""
        return Interval(0, n)

    @property
    def size(self) -> int:
        """Number of integers in the interval."""
        return max(0, self.hi - self.lo)

    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo

    @property
    def is_point(self) -> bool:
        return self.size == 1

    @property
    def value(self) -> int:
        """The single value of a point interval."""
        if not self.is_point:
            raise ValueError(f"{self} is not a point interval")
        return self.lo

    def contains(self, other: "Interval") -> bool:
        """Whether ``other`` is a (possibly empty) sub-interval of self."""
        if other.is_empty:
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_value(self, value: int) -> bool:
        return self.lo <= value < self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def clip(self, bound: "Interval") -> "Interval":
        """Alias of :meth:`intersect`, used when clamping to a loop domain."""
        return self.intersect(bound)

    def shift(self, offset: int) -> "Interval":
        return Interval(self.lo + offset, self.hi + offset)

    def scale(self, factor: int) -> "Interval":
        """Interval of ``factor * x`` for ``x`` in self (factor > 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Interval(self.lo * factor, (self.hi - 1) * factor + 1)

    def __add__(self, other: "Interval") -> "Interval":
        """Minkowski sum: interval of ``x + y``."""
        if self.is_empty or other.is_empty:
            return Interval(0, 0)
        return Interval(self.lo + other.lo, self.hi + other.hi - 1)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi})"


@dataclass(frozen=True)
class Rect:
    """A hyper-rectangle: the product of one interval per dimension."""

    intervals: Tuple[Interval, ...]

    @staticmethod
    def of(*intervals: Interval) -> "Rect":
        return Rect(tuple(intervals))

    @staticmethod
    def from_bounds(los: Sequence[int], his: Sequence[int]) -> "Rect":
        return Rect(tuple(Interval(lo, hi) for lo, hi in zip(los, his)))

    @staticmethod
    def full(shape: Sequence[int]) -> "Rect":
        """The rectangle covering an entire tensor of the given shape."""
        return Rect(tuple(Interval.extent(n) for n in shape))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def volume(self) -> int:
        v = 1
        for ival in self.intervals:
            v *= ival.size
        return v

    @property
    def is_empty(self) -> bool:
        return any(ival.is_empty for ival in self.intervals)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(ival.size for ival in self.intervals)

    @property
    def lo(self) -> Tuple[int, ...]:
        return tuple(ival.lo for ival in self.intervals)

    @property
    def hi(self) -> Tuple[int, ...]:
        return tuple(ival.hi for ival in self.intervals)

    def contains(self, other: "Rect") -> bool:
        if other.is_empty:
            return True
        if self.dim != other.dim:
            return False
        return all(a.contains(b) for a, b in zip(self.intervals, other.intervals))

    def contains_point(self, coords: Sequence[int]) -> bool:
        return all(
            ival.contains_value(c) for ival, c in zip(self.intervals, coords)
        )

    def intersect(self, other: "Rect") -> "Rect":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in Rect.intersect")
        return Rect(
            tuple(a.intersect(b) for a, b in zip(self.intervals, other.intervals))
        )

    def overlaps(self, other: "Rect") -> bool:
        return not self.intersect(other).is_empty

    def as_slices(self) -> Tuple[slice, ...]:
        """Numpy slicing for this rectangle against a global array."""
        return tuple(slice(ival.lo, ival.hi) for ival in self.intervals)

    def __repr__(self) -> str:
        return "x".join(repr(ival) for ival in self.intervals)


def split_evenly(extent: int, pieces: int, index: int) -> Interval:
    """The ``index``-th of ``pieces`` contiguous blocks of ``[0, extent)``.

    Blocks are ``ceil(extent / pieces)`` wide (the paper's blocked
    partitioning function); trailing blocks may be short or empty when the
    extent does not divide evenly.
    """
    if pieces <= 0:
        raise ValueError("pieces must be positive")
    if not 0 <= index < pieces:
        raise ValueError(f"block index {index} out of range for {pieces} pieces")
    tile = ceil_div(extent, pieces)
    lo = min(index * tile, extent)
    hi = min(lo + tile, extent)
    return Interval(lo, hi)


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def bounding_rect(rects: Sequence[Rect]) -> Optional[Rect]:
    """The smallest rectangle containing every non-empty rect, or ``None``."""
    live = [r for r in rects if not r.is_empty]
    if not live:
        return None
    dim = live[0].dim
    los = [min(r.intervals[d].lo for r in live) for d in range(dim)]
    his = [max(r.intervals[d].hi for r in live) for d in range(dim)]
    return Rect.from_bounds(los, his)
