"""The schedule-serving layer: ``python -m repro.serve``.

A long-running daemon that answers the paper's central query — the
best distributed schedule for (einsum, shapes, dtype, machine) — from
a tuning-ledger root: exact hits from an in-memory index in
microseconds, misses batched and fork-dispatched to the tuning oracle,
warm-started from the nearest tuned neighbor. See ``docs/serving.md``.

Public surface:

* :class:`repro.serve.daemon.ScheduleServer` — the asyncio daemon;
* :class:`repro.serve.client.ScheduleClient` — the blocking client;
* the ledger is :class:`repro.tuner.oracle.TuningLedger`, and
  canonical request/answer types live in :mod:`repro.api`.
"""
