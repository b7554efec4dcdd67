"""Wall-clock span tracing: ``with span("orbit.classify"): ...``.

Spans answer the question the simulated-time timeline cannot: where the
*simulator itself* spends wall-clock. They are instrumented into the
hot paths (orbit classification, batched bounds analysis, the tuner
oracle, redistribution planning) and are designed around three
constraints:

* **Near-zero cost when disabled.** Tracing is off unless the
  ``REPRO_TRACE`` environment variable is set (or :func:`set_tracing`
  forces it); a disabled :func:`span` call is one module-flag check
  returning a shared no-op context manager — no allocation, no clock
  read. Hot paths therefore keep their spans unconditionally.
* **Fork safety.** The parallel sweep driver (:mod:`repro.bench
  .parallel`) forks workers that inherit the parent's record list;
  workers export only the records they appended (:func:`span_mark` /
  :func:`export_spans`) and the parent merges them back
  (:func:`install_spans`), each record keeping its recording pid so a
  Chrome trace shows one process lane per worker.
* **Bounded memory.** The record list is capped; past the cap new spans
  are counted (``dropped_spans``) but not stored, so a pathological
  run cannot exhaust memory through its own instrumentation.

Start timestamps are wall epoch seconds (comparable across forked
processes); durations come from the same clock. Self-time (duration
minus enclosed child spans on the same thread) is tracked so the flat
profile (:func:`flat_profile`) does not double-count nested spans.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Hard cap on stored records (dropped past this, counted).
MAX_RECORDS = 200_000

#: Tracing state: None = decide from ``REPRO_TRACE`` on first use.
_enabled: Optional[bool] = None

_records: List["SpanRecord"] = []
_dropped = 0
_local = threading.local()


@dataclass
class SpanRecord:
    """One completed span (picklable; rides the fork envelope)."""

    name: str
    pid: int
    tid: int
    start_s: float   # wall epoch seconds
    dur_s: float
    self_s: float    # dur_s minus same-thread child spans
    depth: int


def tracing_enabled() -> bool:
    """Whether spans record (``REPRO_TRACE`` or :func:`set_tracing`)."""
    global _enabled
    if _enabled is None:
        _enabled = bool(os.environ.get("REPRO_TRACE"))
    return _enabled


def set_tracing(on: Optional[bool]):
    """Force tracing on/off; ``None`` re-reads ``REPRO_TRACE``."""
    global _enabled
    _enabled = on


class _NullSpan:
    """The shared disabled span: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("name", "start", "t0", "children")

    def __init__(self, name: str):
        self.name = name
        self.children = 0.0

    def __enter__(self):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        stack.append(self)
        self.start = time.time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        global _dropped
        dur = time.perf_counter() - self.t0
        stack = _local.stack
        stack.pop()
        depth = len(stack)
        if stack:
            stack[-1].children += dur
        if len(_records) < MAX_RECORDS:
            _records.append(SpanRecord(
                name=self.name,
                pid=os.getpid(),
                tid=threading.get_ident(),
                start_s=self.start,
                dur_s=dur,
                self_s=max(0.0, dur - self.children),
                depth=depth,
            ))
        else:
            _dropped += 1
        return False


def span(name: str):
    """A timing context manager; a shared no-op while tracing is off."""
    if not tracing_enabled():
        return _NULL
    return _Span(name)


# ----------------------------------------------------------------------
# Record access, fork merging, aggregation.
# ----------------------------------------------------------------------


def span_records() -> List[SpanRecord]:
    """The recorded spans (live list — treat as read-only)."""
    return _records


def dropped_spans() -> int:
    return _dropped


def span_mark() -> int:
    """A position in the record list; pair with :func:`export_spans`."""
    return len(_records)


def export_spans(since: int = 0) -> List[SpanRecord]:
    """Records appended after ``since`` (picklable).

    A forked worker inherits the parent's records; exporting from the
    mark taken at task start ships only the worker's own spans back.
    """
    return list(_records[since:])


def install_spans(records: List[SpanRecord]):
    """Merge records exported by another process."""
    global _dropped
    room = MAX_RECORDS - len(_records)
    if room >= len(records):
        _records.extend(records)
    else:
        _records.extend(records[:room])
        _dropped += len(records) - room


def reset_spans():
    """Clear all records (tests, the CLI between exports)."""
    global _dropped
    _records.clear()
    _dropped = 0


def flat_profile(
    records: Optional[List[SpanRecord]] = None,
) -> Dict[str, Tuple[int, float, float]]:
    """``{name: (calls, total_s, self_s)}`` over ``records``.

    ``total_s`` sums full durations (nested spans count toward every
    enclosing span); ``self_s`` sums exclusive time and adds up to
    the traced wall-clock across names.
    """
    if records is None:
        records = _records
    out: Dict[str, Tuple[int, float, float]] = {}
    for r in records:
        calls, total, self_s = out.get(r.name, (0, 0.0, 0.0))
        out[r.name] = (calls + 1, total + r.dur_s, self_s + r.self_s)
    return dict(sorted(out.items(), key=lambda kv: -kv[1][2]))


def format_profile() -> str:
    """The flat profile of every record so far as an aligned text table."""
    prof = flat_profile()
    if not prof:
        return "(no spans recorded; set REPRO_TRACE=1)"
    lines = [f"  {'span':<28s} {'calls':>8s} {'total':>10s} {'self':>10s}"]
    for name, (calls, total, self_s) in prof.items():
        lines.append(
            f"  {name:<28s} {calls:>8d} {total:>9.4f}s {self_s:>9.4f}s"
        )
    return "\n".join(lines)
