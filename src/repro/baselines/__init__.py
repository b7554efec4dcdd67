"""Comparison systems from the evaluation (Section 7).

Each baseline is a *model built from its real algorithm*, run on the same
simulator as DISTAL's kernels:

* :mod:`~repro.baselines.scalapack` — SUMMA with MPI-style blocking
  collectives (no communication/computation overlap).
* :mod:`~repro.baselines.ctf` — the Cyclops Tensor Framework strategy:
  fold any contraction into distributed matmuls, paying redistribution
  for the folds, with the 2.5-D algorithm for the matmuls themselves.
* :mod:`~repro.baselines.cosma` — the COSMA scheduler with its tuned
  collectives and (for GPUs) host-resident, out-of-core execution.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.scalapack": ("scalapack_matmul",),
    "repro.baselines.cosma": ("cosma_reference_matmul",),
    "repro.baselines.ctf": (
        "ctf_innerprod", "ctf_matmul", "ctf_mttkrp", "ctf_ttm", "ctf_ttv",
    ),
})
