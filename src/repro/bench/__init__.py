"""Benchmark harness: the figure tables, their sweep driver and the
weak-scaling sizing helpers.

Regenerates every table and figure of the paper's evaluation (Section 7)
as printable rows; the ``benchmarks/`` pytest suite wraps these and
asserts the paper's qualitative results hold.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "DEFAULT_NODE_COUNTS",
    "FIGURES",
    "cube_grid",
    "format_table",
    "grid_25d",
    "headline_speedups",
    "series",
    "square_grid",
    "sweep",
    "weak_cube_side",
    "weak_matrix_size",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.weak_scaling": (
        "cube_grid", "grid_25d", "square_grid", "weak_cube_side",
        "weak_matrix_size",
    ),
    "repro.bench.figures": (
        "DEFAULT_NODE_COUNTS", "FIGURES", "format_table",
        "headline_speedups", "series", "sweep",
    ),
})
