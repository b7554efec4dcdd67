"""Search-based schedule autotuning (the paper's Section 9 extension).

The subsystem has three layers:

* :mod:`repro.tuner.space` — the schedule space as declarative,
  replayable decision vectors with symmetry canonicalization;
* :mod:`repro.tuner.oracle` — candidate scoring through the
  orbit-compressed simulator, fanned out over the sweep supervisor,
  with a persistent tuning ledger;
* :mod:`repro.tuner.search` — one full-scale search of the whole
  space, ordered and cut short by a static time lower bound, seeded
  with the one-shot heuristic so tuning never regresses.

Entry points: :meth:`repro.core.kernel.Kernel.tune`,
:meth:`repro.core.kernel.Kernel.autoschedule`, and the
``python -m repro.tune`` command line.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tuner.oracle": (
        "EvalOutcome", "Oracle", "TuningLedger", "workload_signature",
    ),
    "repro.tuner.search": (
        "SearchOutcome", "TuneResult", "balanced_grid",
        "default_seed_grid", "exhaustive_search", "tune",
    ),
    "repro.tuner.space": (
        "Decision", "canonicalize", "enumerate_space", "formats_for",
        "from_heuristic", "normalize", "realize",
    ),
})
