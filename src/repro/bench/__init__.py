"""Benchmark harness: weak-scaling drivers and figure generators.

Regenerates every table and figure of the paper's evaluation (Section 7)
as printable rows; the ``benchmarks/`` pytest suite wraps these and
asserts the paper's qualitative results hold.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "DEFAULT_NODE_COUNTS",
    "cube_grid",
    "fig15a_cpu_matmul",
    "fig15b_gpu_matmul",
    "fig16_higher_order",
    "format_table",
    "grid_25d",
    "headline_speedups",
    "series",
    "square_grid",
    "weak_cube_side",
    "weak_matrix_size",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.weak_scaling": (
        "cube_grid", "grid_25d", "square_grid", "weak_cube_side",
        "weak_matrix_size",
    ),
    "repro.bench.figures": (
        "DEFAULT_NODE_COUNTS", "fig15a_cpu_matmul", "fig15b_gpu_matmul",
        "fig16_higher_order", "format_table", "headline_speedups", "series",
    ),
})
