"""Shared machinery for the workloads: repetitions, the machine-speed
probe, benchmark-side spans, statistics and correctness accounting.

Every number is taken from outside the program: the benchmark times
calls into public functions. In a traced run it also wraps a fixed set
of public functions (:data:`PUBLIC_CALLS`) in spans of its own, turns
on the program's existing spans (``repro.obs.spans.set_tracing``), and
folds both into per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: Scratch space inside the checkout (ledgers, sockets, span dumps);
#: listed in the root ``.gitignore``.
SCRATCH = Path(".perfbench")

#: Span names that frame the measurement rather than a layer: time
#: inside them that no other span covers is what no layer accounts for.
ROOT_SPANS = ("rep", "op")

#: Public functions a traced run wraps, as (module, owner, attribute,
#: span name). ``owner`` is a class name or ``None`` for a function;
#: a wrapped function is replaced in every ``repro`` module that
#: imported it by name.
PUBLIC_CALLS = (
    ("repro.api", None, "tune_request", "api.tune_request"),
    ("repro.tuner.search", None, "tune", "tuner.tune"),
    ("repro.tuner.space", None, "enumerate_space", "tuner.enumerate"),
    ("repro.analysis.prune", None, "prune_reason", "analysis.prune"),
    ("repro.tuner.oracle", "TuningLedger", "__init__", "ledger.load"),
    ("repro.tuner.oracle", "TuningLedger", "save", "ledger.save"),
    ("repro.tuner.joint", None, "tune_pipeline", "pipeline.tune"),
    ("repro.core.kernel", None, "compile_kernel", "codegen.compile"),
    ("repro.core.kernel", "Kernel", "trace", "runtime.trace"),
    ("repro.sim.costmodel", "CostModel", "price_skeleton", "sim.price"),
    ("repro.bench.cache", "SimulationCache", "simulate", "cache.simulate"),
)


def median(values: List[float]) -> float:
    return statistics.median(values)


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def zipf_stream(rng, items: int, length: int, s: float = 1.1) -> List[int]:
    """``length`` item indexes in a seeded order: every item once, the
    rest Zipf-distributed by item position (item 0 most popular), so
    the seed changes the sequence but not the mix."""
    weights = [1.0 / (r + 1) ** s for r in range(items)]
    stream = list(range(items)) + rng.choices(
        range(items), weights=weights, k=max(0, length - items)
    )
    rng.shuffle(stream)
    return stream


def fingerprint_us(requests, rounds: int = 50) -> float:
    """Median microseconds of ``ScheduleRequest.fingerprint()``."""
    samples = []
    for _ in range(rounds):
        for request in requests:
            t0 = time.perf_counter()
            request.fingerprint()
            samples.append(time.perf_counter() - t0)
    return 1e6 * median(samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# Machine speed.
# ----------------------------------------------------------------------

#: Seconds one :func:`probe` takes on the reference machine (a 2-core
#: Intel Xeon VM at 2.1 GHz). Gated times are wall times multiplied by
#: ``REFERENCE_PROBE_S / probe()``, the probes taken between the timed
#: calls: seconds the reference machine would have taken.
REFERENCE_PROBE_S = 0.03
#: Yardstick calls per probe.
PROBE_CALLS = 8
#: Passes per probe over an array twice the size of a core's L2 cache.
PROBE_SWEEPS = 36
PROBE_ARRAY_ITEMS = 1 << 19


class _Item:
    __slots__ = ("n", "key", "weight")

    def __init__(self, n, key, weight):
        self.n, self.key, self.weight = n, key, weight


def _yardstick(np) -> int:
    """A fixed mix of the work the program does — small objects, dicts
    keyed by tuples, sorting, small NumPy array ops — calling nothing of
    the program."""
    table, items = {}, []
    for i in range(1500):
        item = _Item(i, (i % 61, i // 61), float(i))
        items.append(item)
        table[item.key] = table.get(item.key, 0) + item.n
    items.sort(key=lambda it: (it.key[1], -it.n))
    a = np.arange(64, dtype=np.int64)
    total = 0
    for i in range(150):
        total += int(np.minimum(a + i, 100).sum()) + int(np.maximum(a, i).max())
    return len(table) + len(items) + total


def probe() -> float:
    """Seconds of :data:`PROBE_CALLS` yardstick calls and
    :data:`PROBE_SWEEPS` passes over a 4 MiB array, with the garbage
    collector off so the program's heap does not enter the figure.

    The machine's speed drifts by a quarter and more, in phases that
    outlast a run, and the drift moves this probe and the program alike;
    probes spread between the timed calls measure it over the same time.
    The yardstick follows the interpreter-bound work of the tuner; the
    sweeps follow the shared-cache traffic of large simulations."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            _yardstick(np)
        a = np.ones(PROBE_ARRAY_ITEMS)
        for _ in range(PROBE_SWEEPS):
            a *= 1.0000001
            a.sum()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, probes: List[float]) -> float:
    """``seconds`` of wall time scaled to the reference machine by the
    mean of the probes taken over the same stretch."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)


# ----------------------------------------------------------------------
# Benchmark-side spans.
# ----------------------------------------------------------------------


@dataclass
class SpanRecord:
    id: int
    parent: int
    name: str
    rid: str
    start: float  # wall epoch seconds
    end: float


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "rid", "id", "parent", "t0")

    def __init__(self, tracer: "Tracer", name: str, rid: Optional[str]):
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self):
        tr = self.tracer
        stack = tr.stack
        self.parent = stack[-1].id if stack else 0
        if self.rid is None:
            self.rid = stack[-1].rid if stack else ""
        tr.next_id += 1
        self.id = tr.next_id
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.records.append(SpanRecord(
            self.id, self.parent, self.name, self.rid,
            tr.epoch + self.t0, tr.epoch + t1,
        ))
        return False


class Tracer:
    """Spans with name, start, end, parent and request id, kept in
    memory and written out when the benchmark ends."""

    def __init__(self):
        self.enabled = False
        self.records: List[SpanRecord] = []
        self.stack: List[_Span] = []
        self.next_id = 0
        self.epoch = time.time() - time.perf_counter()

    def span(self, name: str, rid: Optional[str] = None):
        if not self.enabled:
            return _NULL
        return _Span(self, name, rid)

    def totals(self) -> Dict[str, float]:
        """Inclusive seconds per span name."""
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0.0) + (r.end - r.start)
        return out

    def write(self, path, program_spans=()):
        payload = {
            "benchmark_spans": [r.__dict__ for r in self.records],
            "program_spans": [
                {
                    "name": s.name, "pid": s.pid, "start": s.start_s,
                    "end": s.start_s + s.dur_s, "self_s": s.self_s,
                }
                for s in program_spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def instrument(tracer: Tracer, hooks: Dict[str, Callable]):
    """Wrap :data:`PUBLIC_CALLS` in tracer spans; returns an undo
    function. ``hooks`` maps a span name to ``fn(result)`` called on
    each return value (outside the span)."""
    import importlib

    undo = []
    for module_name, owner_name, attr, name in PUBLIC_CALLS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, name, hooks.get(name))
        targets = [owner]
        if owner_name is None:
            targets = [
                m for n, m in list(sys.modules.items())
                if n.split(".")[0] == "repro"
                and getattr(m, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, wrapper)
            undo.append((target, attr, original))

    def restore():
        for target, attr_name, original_fn in reversed(undo):
            setattr(target, attr_name, original_fn)

    return restore


def _wrap(tracer: Tracer, fn, name: str, hook):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def uncovered_seconds(window, intervals) -> float:
    """Seconds of ``window`` (start, end) that no interval covers."""
    start, end = window
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if b > start and a < end
    )
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return max(0.0, (end - start) - covered)


# ----------------------------------------------------------------------
# Runs and outcomes.
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """Ops attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, problem: Optional[str], what: str):
        self.count(1, 0 if problem is None else 1, f"{what}: {problem}")

    def count(self, attempted: int, failed: int, reason: str):
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.reasons) < 20:
                self.reasons.append(f"{reason} ({failed}x)")


class Bench:
    """One run: a fixed number of repetitions, samples from the
    untraced ones, per-layer data from the traced one.

    With ``trace`` off the run makes ``seconds // rep_seconds``
    repetitions (at least 2; fewer only if the machine is so slow that
    the next one would end past 1.25 x ``seconds``), so runs on one
    machine make the same number. With ``trace`` on it makes exactly
    three: untraced, traced, untraced; the traced cold ops minus the
    mean of the untraced ones, both at reference speed, are the tracing
    overhead.

    A repetition probes the machine's speed (:func:`probe`) when it
    starts; an untraced one again after every cold op (:meth:`probe`),
    the traced one again when it ends, outside its spans.
    """

    def __init__(self, seconds: float, trace: bool, rep_seconds: float):
        self.seconds = seconds
        self.trace = trace
        self.reps = max(2, int(seconds // rep_seconds))
        self.tracer = Tracer()
        self.samples: List[Dict] = []
        self.traced_sample: Optional[Dict] = None
        self.unattributed = 0.0
        self.layers: Dict[str, float] = {}
        self._probes: List[float] = []
        self._restore: Optional[Callable] = None

    def repetitions(self) -> Iterator[bool]:
        """Yields, per repetition, whether it is traced, with tracing
        switched to match while the repetition runs."""
        if self.trace:
            yield False
            try:
                self._tracing(True)
                yield True
            finally:
                self._tracing(False)
            yield False
            return
        start = time.perf_counter()
        for rep in range(self.reps):
            t0 = time.perf_counter()
            yield False
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if rep >= 1 and elapsed + took > 1.25 * self.seconds:
                return

    def _tracing(self, on: bool):
        from repro.obs.spans import reset_spans, set_tracing

        if on == self.tracer.enabled:
            return
        if on:
            reset_spans()
            self._restore = instrument(self.tracer, self.hooks())
        else:
            self._restore()
        set_tracing(on)
        self.tracer.enabled = on

    def hooks(self) -> Dict[str, Callable]:
        """Counts taken from public return values in the traced rep."""
        layers = self.layers

        def on_trace(result):
            steps = result.trace.steps
            layers["runtime.steps"] = layers.get("runtime.steps", 0) + len(steps)
            rows = copies = 0
            for step in steps:
                rows += len(step.copies)
                copies += sum(c.count for c in step.copies)
            layers["runtime.copy_rows"] = layers.get("runtime.copy_rows", 0) + rows
            layers["runtime.copies"] = layers.get("runtime.copies", 0) + copies

        return {"runtime.trace": on_trace}

    @contextmanager
    def window(self, traced: bool):
        """One repetition's ops, after a full garbage collection; in the
        traced rep, also the time in it that no layer span covers."""
        gc.collect()
        self._probes = [probe()]
        with self.tracer.span("rep") as root:
            yield
        if traced:
            self._probes.append(probe())
            self.unattributed = self._uncovered(root)

    def _uncovered(self, root: _Span) -> float:
        from repro.obs.spans import span_records

        record = next(
            r for r in reversed(self.tracer.records) if r.id == root.id
        )
        intervals = [
            (r.start, r.end) for r in self.tracer.records
            if r.name not in ROOT_SPANS
        ]
        intervals += [
            (s.start_s, s.start_s + s.dur_s) for s in span_records()
        ]
        return uncovered_seconds((record.start, record.end), intervals)

    def probe(self):
        """Probe the machine's speed, between two cold ops of an
        untraced repetition (the probe is outside their timing)."""
        if not self.tracer.enabled:
            self._probes.append(probe())

    def sample(self, traced: bool, op_s, warm_s, hit_s, cost_s):
        """One repetition's latencies of cold ops, warm ops and hits,
        and the answers' costs."""
        values = dict(op_s=op_s, warm_s=warm_s, hit_s=hit_s, cost_s=cost_s,
                      probes=self._probes)
        if traced:
            self.traced_sample = values
        else:
            self.samples.append(values)

    # -- aggregation ---------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        """The gated metrics the workload computes itself: the mean
        cold-op time of a repetition at reference speed, each repetition
        scaled by its own probes, and the answers' cost."""
        return {
            "cold_s": statistics.fmean(
                at_reference_speed(sum(s["op_s"]), s["probes"])
                for s in self.samples
            ),
            "tuned_cost_geo_s": geomean(self.samples[0]["cost_s"]),
        }

    def latencies(self) -> Dict[str, float]:
        """Whole-run latencies too unsteady between runs to gate (see
        the README), reported beside the per-layer metrics: the mean
        warm-op time of a repetition, and over every op and hit of the
        untraced repetitions the geometric mean of the cold ops (they
        differ in size by orders of magnitude, so a median would jump
        between ops) and the median hit; and, beside the gated
        ``cold_s``, its wall time unscaled and the mean probe."""
        samples = self.samples
        return {
            "cold_wall_s": statistics.fmean(sum(s["op_s"]) for s in samples),
            "machine.probe_ms": 1e3 * statistics.fmean(
                p for s in samples for p in s["probes"]
            ),
            "warm_s": statistics.fmean(sum(s["warm_s"]) for s in samples),
            "op_geo_ms": 1e3 * geomean([v for s in samples for v in s["op_s"]]),
            "hit_p50_ms": 1e3 * median([v for s in samples for v in s["hit_s"]]),
        }

    def deterministic(self, outcome: Outcome):
        """Every repetition must price the same answers."""
        first = self.samples[0]["cost_s"]
        for s in self.samples[1:] + (
            [self.traced_sample] if self.traced_sample else []
        ):
            outcome.count(
                1, 0 if s["cost_s"] == first else 1,
                "answer costs differ between repetitions",
            )

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics of the traced repetition."""
        from repro.obs.spans import flat_profile, span_records

        out = dict(self.layers)
        out.update(self.latencies())
        totals = self.tracer.totals()
        for span_name, metric in (
            ("runtime.trace", "runtime.trace_s"),
            ("sim.price", "sim.price_s"),
            ("codegen.compile", "codegen.compile_s"),
            ("tuner.enumerate", "tuner.enumerate_s"),
            ("ledger.save", "ledger.save_s"),
            ("ledger.load", "ledger.load_s"),
            ("pipeline.tune", "pipeline.tune_s"),
            ("analysis.prune", "analysis.prune_s"),
        ):
            out[metric] = totals.get(span_name, 0.0)
        profile = flat_profile(span_records())
        for span_name in (
            "orbit.classify", "orbit.run", "orbit.finalize", "orbit.flush",
            "bounds.batch", "costmodel.skeleton", "oracle.realize",
            "oracle.evaluate", "oracle.simulate", "transfer.plan",
        ):
            out[f"{span_name}_s"] = profile.get(span_name, (0, 0.0, 0.0))[2]
        traced = self.traced_sample
        out["tracing.overhead_s"] = (
            at_reference_speed(sum(traced["op_s"]), traced["probes"])
            - self.end_to_end()["cold_s"]
        )
        rep_s = self.tracer.totals()["rep"]
        out["unattributed.rep_s"] = self.unattributed
        out["unattributed.rep_share"] = self.unattributed / rep_s
        return out

    def write_trace(self, path):
        from repro.obs.spans import span_records

        self.tracer.write(path, span_records())


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple]):
    """The result line: the last line of standard output."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)

