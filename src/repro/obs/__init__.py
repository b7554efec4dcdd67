"""Unified observability: timelines, span tracing, metrics.

One layer shared by the simulator, tuner, pipeline, faults, and bench
stacks, with three pillars:

* **Simulated-time timelines** — the cost model can attach a
  :class:`~repro.sim.report.PhaseBreakdown` (per-phase comm/compute
  time, bytes, dominant resource, replay provenance) to a
  :class:`~repro.sim.report.SimReport`, and :mod:`repro.obs.export`
  turns it into Chrome trace-event JSON a trace viewer (Perfetto,
  ``chrome://tracing``) opens directly — one lane per node class.
* **Wall-clock span tracing** — :func:`repro.obs.spans.span` context
  managers in the hot paths (orbit classification, batched bounds, the
  tuner oracle, redistribution planning), near-zero-cost when disabled,
  gated by ``REPRO_TRACE``, fork-safe through the parallel sweep
  driver's envelope, exported to the same Chrome-trace format plus an
  aggregated flat profile.
* **Metrics registry** — :data:`repro.obs.metrics.METRICS` unifies the
  counters previously scattered across subsystems (orbit phase
  replays, simulation-cache hits, oracle incrementality, sweep worker
  retries) behind one snapshot API,
  surfaced by the CLIs.

``python -m repro.obs`` exports traces (see :mod:`repro.obs.__main__`).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.metrics": ("METRICS", "MetricsRegistry"),
    "repro.obs.spans": (
        "export_spans", "flat_profile", "install_spans", "reset_spans",
        "set_tracing", "span", "span_mark", "span_records", "tracing_enabled",
    ),
})
