"""Static schedule analysis: passes over decision vectors and traces.

Five passes, all independent of the simulator:

* :mod:`repro.analysis.legality` — reject ill-formed decision vectors
  with structured diagnostics before any compilation.
* :mod:`repro.analysis.membound` — per-node peak-footprint lower/upper
  bounds from the decision vector alone.
* :mod:`repro.analysis.commbound` — per-kernel communication lower
  bounds (Irony–Toledo–Tiskin / Loomis–Whitney for matmul, volume-based
  for higher-order contractions).
* :mod:`repro.analysis.sanitizer` — an independent consistency check
  over execution traces (write–write races, misplaced reductions,
  copies whose source never held the data).
* :mod:`repro.analysis.timebound` — a lower bound on a candidate's
  simulated time from the decision vector alone.

:mod:`repro.analysis.prune` glues the first two into the tuner's
zero-simulation static pruner.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.commbound": ("CommBound", "comm_lower_bound"),
    "repro.analysis.diagnostics": ("Diagnostic",),
    "repro.analysis.legality": ("check_legal", "verify_legality"),
    "repro.analysis.membound": ("MemoryBound", "memory_bounds"),
    "repro.analysis.prune": ("STATIC_DOMINATED", "STATIC_OOM", "prune_reason"),
    "repro.analysis.report": ("AnalysisReport", "analyze_kernel"),
    "repro.analysis.sanitizer": ("sanitize_trace",),
    "repro.analysis.timebound": ("time_lower_bound",),
})
