"""Weak-scaling problem sizing and grid selection.

The paper weak-scales: memory per node stays constant, so matrix sides
grow with ``sqrt(nodes)`` and 3-tensor sides with ``cbrt(nodes)``
(Section 7.1). Grid helpers pick the processor organizations each
algorithm family expects; imperfect factorizations (non-square,
non-cube node counts) are deliberately kept — their imbalance is part
of the measured behaviour. The figure tables that sweep these sizes
live in :mod:`repro.bench.figures`; they simulate through the
plan/trace cache (``SIM_CACHE``) on the orbit executor.
"""

from __future__ import annotations

import math
from typing import Tuple


def weak_matrix_size(base_n: int, nodes: int, multiple: int = 64) -> int:
    """Matrix side at a node count, keeping per-node memory constant."""
    n = base_n * math.sqrt(nodes)
    return max(multiple, int(round(n / multiple)) * multiple)


def weak_cube_side(base_n: int, nodes: int, multiple: int = 8) -> int:
    """3-tensor side at a node count, keeping per-node memory constant."""
    n = base_n * nodes ** (1.0 / 3.0)
    return max(multiple, int(round(n / multiple)) * multiple)


def square_grid(p: int) -> Tuple[int, int]:
    """Most-square 2-D factorization of ``p`` (gx >= gy)."""
    gy = int(math.isqrt(p))
    while p % gy != 0:
        gy -= 1
    return p // gy, gy


def cube_grid(p: int) -> Tuple[int, int, int]:
    """The processor cube Johnson's algorithm targets: side ``round(p^(1/3))``.

    For non-cube processor counts the grid over- or under-decomposes
    (idle processors or doubled-up grid points), reproducing the paper's
    observed degradation on non-cubes.
    """
    g = max(1, round(p ** (1.0 / 3.0)))
    return g, g, g


def factor3(p: int) -> Tuple[int, int, int]:
    """Most-balanced 3-way factorization of ``p`` (gx >= gy >= gz).

    Used by algorithms that accept any 3-D grid (e.g. Ballard et al.'s
    MTTKRP); unlike :func:`cube_grid` it always uses every processor.
    """
    best = (p, 1, 1)
    best_spread = p
    for gz in range(1, int(round(p ** (1.0 / 3.0))) + 1):
        if p % gz != 0:
            continue
        rest = p // gz
        gy = int(math.isqrt(rest))
        while rest % gy != 0:
            gy -= 1
        gx = rest // gy
        spread = max(gx, gy, gz) / min(gx, gy, gz)
        if spread < best_spread:
            best_spread = spread
            best = tuple(sorted((gx, gy, gz), reverse=True))
    return best


def grid_25d(p: int, max_c: int = 8) -> Tuple[int, int, int]:
    """The largest ``q x q x c`` grid (c | q, q*q*c <= p) for 2.5-D.

    Prefers replication (larger c) when it does not shrink the used
    processor count — extra memory is spent to reduce communication on
    non-square machines, Solomonik's interpolation knob.
    """
    best = (1, 1, 1)
    best_key = (1, 1)
    for c in (1, 2, 4, 8):
        if c > max_c:
            continue
        q = int(math.isqrt(p // c)) if p >= c else 0
        while q > 0 and (q * q * c > p or q % c != 0):
            q -= 1
        if q == 0:
            continue
        key = (q * q * c, c)
        if key > best_key:
            best_key = key
            best = (q, q, c)
    return best
