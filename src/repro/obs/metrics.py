"""The fleet-wide metrics registry: one snapshot API for every counter.

Before this module the repo's efficiency counters lived on five
unrelated objects — the orbit executor's phase counters, the cost
model's step-price digest hits, ``SIM_CACHE.hits``, the tuner oracle's
incrementality stats, the sweep supervisor's retry count — each
printed (or not) by whichever CLI happened to own it. The registry
unifies them:

* **Counters** (:meth:`MetricsRegistry.inc`) accumulate monotonically;
  subsystems increment them at their natural aggregation points.
* **Gauges** (:meth:`MetricsRegistry.observe`) record
  last-value-wins measurements.
* **Sources** (:meth:`MetricsRegistry.register_source`) contribute
  values computed at snapshot time — used for counters that already
  live on process-global objects (the simulation cache) so they are
  reported without double bookkeeping.

:meth:`MetricsRegistry.snapshot` returns one sorted, JSON-ready dict;
the CLIs print it, and ``perfbench``'s serve-mixed workload reports
the ``serve.*`` counters among its per-layer metrics. Efficiency rules
that wall-clock noise hides are exact checks where they run:
tier-1 fails when a healthy serving trace moves an error, crash,
quarantine, shed or drain counter, and pins the orbit step and
phase-replay counts of weak-scaled Cannon and SUMMA.

Fork merging mirrors the simulation cache's envelope: workers export
the counter deltas they accumulated after the fork
(:meth:`MetricsRegistry.export` / :meth:`MetricsRegistry.delta`) and
the parent sums them back in (:meth:`MetricsRegistry.install`).

Counter values must be derived from *what was computed*, never from
wall-clock or cache state that varies between equal runs where
determinism matters: the tuner's ledger embeds oracle stats, and
equal-seed tuning runs are pinned byte-identical with metrics enabled.

The schedule-serving daemon (:mod:`repro.serve`) reports its traffic
under the ``serve.*`` names declared in :data:`SERVE_COUNTERS` —
query-path counters (hits answered from the in-memory index, misses
dispatched to the oracle, in-flight deduplications, warm-started
tunes) that the serve-smoke CI job and the QPS benchmark assert on.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

Number = Union[int, float]

#: The serving daemon's query-path counters (one increment per event):
#:
#: * ``serve.hits`` — queries answered from the in-memory answer index;
#: * ``serve.misses`` — queries with no cached answer (queued to tune);
#: * ``serve.deduped`` — queries that joined an identical in-flight
#:   tune instead of starting their own;
#: * ``serve.tunes`` — tunes completed by supervised serve workers;
#: * ``serve.warm_started`` — tunes seeded from a tuned neighbor's
#:   projected decision (strictly fewer simulations than cold);
#: * ``serve.errors`` — requests that failed (bad einsum, tune error,
#:   oversized frame);
#: * ``serve.shed`` — misses rejected by admission control (the
#:   bounded in-flight set was full; ``status: "overloaded"``);
#: * ``serve.crashes`` — tune-worker children that died without
#:   delivering (SIGKILL, segfault, hard timeout);
#: * ``serve.retried`` — crash retries dispatched with backoff;
#: * ``serve.worker_spawns`` — tune-worker children forked by the
#:   daemon: one per dispatcher slot on its first miss, plus one for
#:   each replacement after a crash;
#: * ``serve.drained`` — waiters answered with the structured
#:   ``"draining"`` error during shutdown;
#: * ``serve.quarantined`` — requests cut off at the consecutive-crash
#:   cap with a durable infeasible answer;
#: * ``serve.warm_lookup_failures`` — misses whose nearest-neighbor
#:   lookup raised on a malformed indexed record and that tuned cold;
#: * ``serve.index_skips`` — answers indexed for hits only, because
#:   their request record does not parse (no warm-start donor);
#: * ``serve.persist_failures`` — quarantined answers served and
#:   indexed but not saved to the ledger;
#: * ``serve.reconnects`` — client-side connection rebuilds
#:   (:class:`repro.serve.client.ScheduleClient` counts these in its
#:   own process's registry).
SERVE_COUNTERS = (
    "serve.hits",
    "serve.misses",
    "serve.deduped",
    "serve.tunes",
    "serve.warm_started",
    "serve.errors",
    "serve.shed",
    "serve.crashes",
    "serve.retried",
    "serve.worker_spawns",
    "serve.drained",
    "serve.quarantined",
    "serve.warm_lookup_failures",
    "serve.index_skips",
    "serve.persist_failures",
    "serve.reconnects",
)


#: The orbit executor's per-run counters (``OrbitExecutor`` attributes
#: of the same name, summed into the registry after each run):
#:
#: * ``orbit.phase_full`` — tensor phases resolved in full (mirror
#:   join, class fold);
#: * ``orbit.phase_conjugate`` — tensor phases replayed as the exact
#:   image of the previous one under a torus shift of the members and
#:   a translation of the requests;
#: * ``orbit.phase_seam`` — conjugate replays with a seam: members the
#:   map does not explain, joined against the carried request classes;
#: * ``orbit.phase_replays`` — all replays (conjugate plus seam);
#: * ``orbit.phase_deltas`` — replays applied as a delta against the
#:   previous phase: at least one member carried through the member
#:   map, so only the seam and re-derived members are written;
#: * ``orbit.members_carried`` — replayed fetching members whose source
#:   the conjugate map proved (``src(m + s) - s``), kept without the
#:   holder join and winner selection;
#: * ``orbit.members_rederived`` — replayed fetching members resolved
#:   through that derivation (seam, several holders, owner undercuts);
#: * ``orbit.multi_piece_batches``, ``orbit.flush_batches``,
#:   ``orbit.leaf_comm_phases`` — coverage of the class-batched
#:   multi-piece, reduction-flush and leaf-communication paths;
#: * ``orbit.leaf_reused`` — leaf calls whose work columns equal the
#:   previous iteration's in the same region, replayed without the
#:   per-processor fold.
ORBIT_COUNTERS = (
    "orbit.phase_full",
    "orbit.phase_conjugate",
    "orbit.phase_seam",
    "orbit.phase_replays",
    "orbit.phase_deltas",
    "orbit.members_carried",
    "orbit.members_rederived",
    "orbit.multi_piece_batches",
    "orbit.flush_batches",
    "orbit.leaf_comm_phases",
    "orbit.leaf_reused",
)


class MetricsRegistry:
    """Counters, gauges, and snapshot-time sources under dotted names."""

    def __init__(self):
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}
        self._sources: Dict[str, Callable[[], Dict[str, Number]]] = {}

    # -- writing -------------------------------------------------------

    def inc(self, name: str, value: Number = 1):
        """Add ``value`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: Number):
        """Set gauge ``name`` (last value wins)."""
        self._gauges[name] = value

    def register_source(
        self, name: str, fn: Callable[[], Dict[str, Number]]
    ):
        """Register a callable contributing ``{metric: value}`` at
        snapshot time; re-registering a name replaces the source."""
        self._sources[name] = fn

    # -- reading -------------------------------------------------------

    def get(self, name: str, default: Number = 0) -> Number:
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, default)

    def snapshot(self, sources: bool = True) -> Dict[str, Number]:
        """Every metric as one sorted ``{name: value}`` dict.

        Sources never clobber an explicit counter/gauge of the same
        name. A raising source contributes nothing (observability must
        not fail the observed run) and counts one
        ``obs.source_errors``, which this snapshot already shows.
        """
        sourced: Dict[str, Number] = {}
        if sources:
            for fn in self._sources.values():
                try:
                    values = fn()
                except Exception:
                    self.inc("obs.source_errors")
                    continue
                for key, value in values.items():
                    sourced.setdefault(key, value)
        out = {**sourced, **self._counters, **self._gauges}
        return {k: out[k] for k in sorted(out)}

    # -- fork envelope -------------------------------------------------

    def export(self) -> Dict[str, Dict[str, Number]]:
        """A picklable copy of the owned counters and gauges."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
        }

    def delta(
        self, before: Dict[str, Dict[str, Number]]
    ) -> Dict[str, Dict[str, Number]]:
        """What accumulated since ``before`` (an :meth:`export`).

        Counters subtract (a forked worker inherited the parent's
        totals; only its own increments ride back); gauges ship when
        changed or new.
        """
        prev_c = before.get("counters", {})
        prev_g = before.get("gauges", {})
        counters = {}
        for name, value in self._counters.items():
            d = value - prev_c.get(name, 0)
            if d:
                counters[name] = d
        gauges = {
            name: value
            for name, value in self._gauges.items()
            if prev_g.get(name) != value
        }
        return {"counters": counters, "gauges": gauges}

    def install(self, exported: Dict[str, Dict[str, Number]]):
        """Merge a delta from another process: counters sum, gauges
        overwrite."""
        for name, value in exported.get("counters", {}).items():
            self.inc(name, value)
        for name, value in exported.get("gauges", {}).items():
            self.observe(name, value)

    def reset(self):
        """Zero every counter and gauge (sources stay registered)."""
        self._counters.clear()
        self._gauges.clear()


#: The process-global registry every subsystem reports into.
METRICS = MetricsRegistry()


def _sim_cache_source() -> Dict[str, Number]:
    # Lazy import: the registry must stay importable from anywhere
    # (including the executors) without pulling the bench stack in.
    from repro.bench.cache import SIM_CACHE

    return {
        "sim_cache.hits": SIM_CACHE.hits,
        "sim_cache.misses": SIM_CACHE.misses,
        "sim_cache.entries": len(SIM_CACHE),
    }


def _span_source() -> Dict[str, Number]:
    from repro.obs.spans import dropped_spans, span_records

    return {
        "spans.recorded": len(span_records()),
        "spans.dropped": dropped_spans(),
    }


METRICS.register_source("sim_cache", _sim_cache_source)
METRICS.register_source("spans", _span_source)
