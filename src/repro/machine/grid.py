"""Multi-dimensional processor grids."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Tuple


@dataclass(frozen=True)
class Grid:
    """An n-dimensional grid shape, e.g. ``Grid(4, 4)`` or ``Grid(8, 8, 2)``.

    Grids are the paper's core machine-organization device: tensors are
    partitioned by grid dimensions and distributed loops are mapped onto
    them. A :class:`Grid` is pure shape; placement onto hardware is the job
    of :class:`repro.machine.machine.Machine`.
    """

    shape: Tuple[int, ...]

    def __init__(self, *dims: int):
        if not dims:
            raise ValueError("Grid needs at least one dimension")
        if any(d <= 0 for d in dims):
            raise ValueError(f"Grid dimensions must be positive: {dims}")
        object.__setattr__(self, "shape", tuple(int(d) for d in dims))

    @property
    def dim(self) -> int:
        """Number of grid dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of grid points (processors)."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def x(self) -> int:
        """Extent of the first dimension (paper's ``m.x``)."""
        return self.shape[0]

    @property
    def y(self) -> int:
        """Extent of the second dimension (paper's ``m.y``)."""
        return self.shape[1]

    @property
    def z(self) -> int:
        """Extent of the third dimension."""
        return self.shape[2]

    def points(self) -> Iterator[Tuple[int, ...]]:
        """All grid coordinates in row-major order."""
        return product(*(range(d) for d in self.shape))

    def linearize(self, coords: Tuple[int, ...]) -> int:
        """Row-major linear index of a grid coordinate."""
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coords, got {coords}")
        idx = 0
        for c, d in zip(coords, self.shape):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {coords} outside grid {self.shape}")
            idx = idx * d + c
        return idx

    def delinearize(self, index: int) -> Tuple[int, ...]:
        """Inverse of :meth:`linearize`."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside grid of size {self.size}")
        coords = []
        for d in reversed(self.shape):
            coords.append(index % d)
            index //= d
        return tuple(reversed(coords))

    def torus_distance(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
        """Manhattan distance with wraparound in each dimension.

        Systolic (``rotate``-d) schedules shift data between grid
        neighbours; the wraparound matches the cyclic shifts of Cannon's
        algorithm (Figure 12 of the paper).
        """
        dist = 0
        for x, y, d in zip(a, b, self.shape):
            delta = abs(x - y)
            dist += min(delta, d - delta)
        return dist

    def __repr__(self) -> str:
        return f"Grid({', '.join(str(d) for d in self.shape)})"


def balanced_grid(p: int, dims: int) -> Tuple[int, ...]:
    """Most-balanced ``dims``-way factorization of ``p`` (descending).

    The least largest-to-smallest ratio wins; ties go to the
    lexicographically smaller shape. Every processor is used.
    """
    if dims <= 1:
        return (p,)
    best: Optional[Tuple[int, ...]] = None
    best_spread: Optional[float] = None

    def rec(remaining: int, left: int, prefix: Tuple[int, ...]):
        nonlocal best, best_spread
        if left == 1:
            shape = tuple(sorted(prefix + (remaining,), reverse=True))
            spread = shape[0] / shape[-1]
            if best_spread is None or (spread, shape) < (best_spread, best):
                best, best_spread = shape, spread
            return
        f = 1
        while f * f <= remaining:
            if remaining % f == 0:
                rec(remaining // f, left - 1, prefix + (f,))
                rec(f, left - 1, prefix + (remaining // f,))
            f += 1

    rec(p, dims, ())
    assert best is not None
    return best
