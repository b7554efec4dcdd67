"""Chrome trace-event exporters for breakdowns and spans.

Both pillars of the observability layer render in the same viewer
(Perfetto / ``chrome://tracing``) through the trace-event JSON format:
a ``{"traceEvents": [...]}`` object whose events are complete ``"X"``
slices with microsecond ``ts``/``dur``.

* :func:`breakdown_to_chrome` lays a :class:`~repro.sim.report
  .PhaseBreakdown` out in *simulated* time: one summary lane per phase
  plus one lane per node class, with comm/compute sub-slices.
* :func:`spans_to_chrome` lays recorded wall-clock spans out by their
  epoch timestamps, one process lane per recording pid (fork workers
  show up as separate lanes).

:func:`validate_chrome_trace` is the minimal structural check CI's
``obs-smoke`` job runs on exported artifacts — it verifies the subset
of the format the exporters promise, not the full spec.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.spans import SpanRecord, flat_profile
from repro.sim.report import PhaseBreakdown

#: Synthetic pids for the simulated-time lanes (viewer process groups).
_SIM_PID = 1


def _meta(pid: int, name: str, sort_index: int = 0) -> List[dict]:
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": name},
    }]
    if sort_index:
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid,
            "tid": 0, "args": {"sort_index": sort_index},
        })
    return events


def breakdown_to_chrome(
    breakdown: PhaseBreakdown, title: str = "simulated"
) -> dict:
    """A :class:`PhaseBreakdown` as a Chrome trace-event object.

    Simulated seconds map to trace microseconds at 1e6. Lane layout:
    tid 0 carries one slice per phase (the bulk-synchronous timeline);
    tid 1 and 2 carry the comm and overhead portions; one further lane
    per node class carries that class's compute slice, so a class idle
    in a phase shows as a gap.
    """
    events: List[dict] = _meta(_SIM_PID, f"{title} (simulated time)")
    for tid, name in ((0, "phases"), (1, "comm"), (2, "overhead")):
        events.append({
            "name": "thread_name", "ph": "M", "pid": _SIM_PID,
            "tid": tid, "args": {"name": name},
        })
    class_tids: Dict[int, int] = {}
    cursor = 0.0
    for phase in breakdown.phases:
        ts = cursor * 1e6
        dur = phase.total_s * 1e6
        events.append({
            "name": phase.label,
            "ph": "X", "ts": ts, "dur": dur,
            "pid": _SIM_PID, "tid": 0,
            "cat": "phase",
            "args": {
                "index": phase.index,
                "dominant": phase.dominant,
                "comm_s": phase.comm_s,
                "compute_s": phase.compute_s,
                "overhead_s": phase.overhead_s,
                "copy_bytes": phase.copy_bytes,
                "inter_node_bytes": phase.inter_node_bytes,
                "flops": phase.flops,
            },
        })
        if phase.comm_s > 0:
            events.append({
                "name": f"comm:{phase.label}",
                "ph": "X", "ts": ts, "dur": phase.comm_s * 1e6,
                "pid": _SIM_PID, "tid": 1, "cat": "comm",
                "args": {"inter_node_bytes": phase.inter_node_bytes},
            })
        if phase.overhead_s > 0:
            events.append({
                "name": f"overhead:{phase.label}",
                "ph": "X", "ts": ts, "dur": phase.overhead_s * 1e6,
                "pid": _SIM_PID, "tid": 2, "cat": "overhead",
                "args": {},
            })
        for proc_id, count, seconds in phase.class_times:
            tid = class_tids.get(proc_id)
            if tid is None:
                tid = 3 + len(class_tids)
                class_tids[proc_id] = tid
                events.append({
                    "name": "thread_name", "ph": "M", "pid": _SIM_PID,
                    "tid": tid,
                    "args": {"name": f"class proc {proc_id}"},
                })
            if seconds > 0:
                events.append({
                    "name": f"compute:{phase.label}",
                    "ph": "X", "ts": ts, "dur": seconds * 1e6,
                    "pid": _SIM_PID, "tid": tid, "cat": "compute",
                    "args": {"proc_id": proc_id, "count": count},
                })
        cursor += phase.total_s
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_to_chrome(records: List[SpanRecord]) -> dict:
    """Recorded wall-clock spans as a Chrome trace-event object.

    Timestamps are epoch-relative (rebased to the earliest record so
    the viewer opens at t=0); each recording pid gets its own process
    lane, each thread its own row.
    """
    events: List[dict] = []
    if not records:
        return {"traceEvents": events}
    t0 = min(r.start_s for r in records)
    seen_pids: Dict[int, None] = {}
    for r in records:
        if r.pid not in seen_pids:
            seen_pids[r.pid] = None
            label = "main" if len(seen_pids) == 1 else f"worker {r.pid}"
            events.extend(_meta(r.pid, f"{label} (pid {r.pid})",
                                sort_index=len(seen_pids)))
        events.append({
            "name": r.name,
            "ph": "X",
            "ts": (r.start_s - t0) * 1e6,
            "dur": r.dur_s * 1e6,
            "pid": r.pid,
            "tid": r.tid % 2**31,
            "cat": "span",
            "args": {"self_s": r.self_s, "depth": r.depth},
        })
    return {"traceEvents": events}


def merge_traces(*traces: dict) -> dict:
    """Concatenate trace objects (e.g. simulated lanes + span lanes)."""
    events: List[dict] = []
    for t in traces:
        events.extend(t.get("traceEvents", []))
    return {"traceEvents": events}


def write_trace(trace: dict, path: str) -> str:
    """Write a trace object as JSON; returns ``path``."""
    with open(path, "w") as f:
        json.dump(trace, f, indent=None, separators=(",", ":"))
        f.write("\n")
    return path


def profile_summary(records: List[SpanRecord]) -> dict:
    """The flat profile as a JSON-ready dict."""
    return {
        name: {"calls": calls, "total_s": total, "self_s": self_s}
        for name, (calls, total, self_s) in flat_profile(records).items()
    }


def validate_chrome_trace(trace: dict) -> Optional[str]:
    """``None`` when ``trace`` is structurally valid, else the defect.

    Checks the subset of the trace-event format our exporters emit:
    a dict with a ``traceEvents`` list; every event a dict with a
    string ``name`` and ``ph``; ``"X"`` events carry numeric,
    non-negative ``ts`` and ``dur``.
    """
    if not isinstance(trace, dict):
        return "trace is not an object"
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return "traceEvents is not a list"
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return f"event {i} is not an object"
        if not isinstance(ev.get("name"), str):
            return f"event {i} has no string name"
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            return f"event {i} has no phase"
        if ph == "X":
            for key in ("ts", "dur"):
                value = ev.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    return f"event {i} has bad {key}: {value!r}"
    return None
