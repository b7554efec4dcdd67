"""Case-study algorithms (Section 4, Figure 9; Section 7.2 kernels).

Every distributed matrix-multiplication algorithm of Figure 9 — Cannon's,
PUMMA, SUMMA, Johnson's 3-D, Solomonik's 2.5-D, and COSMA — expressed as a
data distribution plus a schedule, plus the higher-order tensor kernels of
the evaluation (TTV, Innerprod, TTM, MTTKRP).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.matmul": (
        "cannon", "cosma", "johnson", "matmul_assignment", "pumma",
        "solomonik", "summa",
    ),
    "repro.algorithms.cosma_grid": ("CosmaDecomposition", "optimize_grid"),
    "repro.algorithms.higher_order": ("innerprod", "mttkrp", "ttm", "ttv"),
})
