"""Chrome trace-event exporters and the minimal schema validator."""

import json

import pytest

from repro.obs.export import (
    breakdown_to_chrome,
    merge_traces,
    profile_summary,
    spans_to_chrome,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.spans import SpanRecord
from repro.sim.report import PhaseBreakdown, PhaseCost


def make_breakdown():
    return PhaseBreakdown(phases=(
        PhaseCost(
            index=0, label="fetch A", comm_s=0.5, compute_s=1.0,
            overhead_s=0.1, total_s=1.1, copy_bytes=100,
            inter_node_bytes=80, flops=1e9,
            class_times=((0, 4, 1.0), (2, 12, 0.4)),
        ),
        PhaseCost(
            index=1, label="fetch A", comm_s=0.5, compute_s=1.0,
            overhead_s=0.1, total_s=1.1, copy_bytes=100,
            inter_node_bytes=80, flops=1e9,
        ),
    ))


def make_span(name="s", pid=1, start=0.0, dur=0.5):
    return SpanRecord(
        name=name, pid=pid, tid=7, start_s=start, dur_s=dur,
        self_s=dur, depth=0,
    )


class TestBreakdownExport:
    def test_valid_and_sequential(self):
        trace = breakdown_to_chrome(make_breakdown())
        assert validate_chrome_trace(trace) is None
        slices = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 0
        ]
        assert len(slices) == 2
        # Phases lay out end to end in simulated microseconds.
        assert slices[0]["ts"] == 0
        assert slices[1]["ts"] == pytest.approx(1.1e6)
        assert slices[0]["dur"] == pytest.approx(1.1e6)

    def test_one_lane_per_node_class(self):
        trace = breakdown_to_chrome(make_breakdown())
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "class proc 0" in lanes
        assert "class proc 2" in lanes
        assert "comm" in lanes


class TestSpanExport:
    def test_empty(self):
        assert spans_to_chrome([]) == {"traceEvents": []}

    def test_rebased_and_per_pid_lanes(self):
        records = [
            make_span("parent", pid=10, start=100.0),
            make_span("worker", pid=11, start=100.25),
        ]
        trace = spans_to_chrome(records)
        assert validate_chrome_trace(trace) is None
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices[0]["ts"] == 0  # rebased to the earliest record
        assert slices[1]["ts"] == pytest.approx(0.25e6)
        assert {e["pid"] for e in slices} == {10, 11}

    def test_merge_traces(self):
        merged = merge_traces(
            breakdown_to_chrome(make_breakdown()),
            spans_to_chrome([make_span()]),
        )
        assert validate_chrome_trace(merged) is None

    def test_profile_summary_json_ready(self):
        summary = profile_summary([make_span("a"), make_span("a")])
        assert summary["a"]["calls"] == 2
        json.dumps(summary)  # must serialize


class TestWrite:
    def test_write_trace_roundtrips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(breakdown_to_chrome(make_breakdown()), str(path))
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) is None


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) is not None

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({}) is not None

    def test_rejects_nameless_event(self):
        bad = {"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}
        assert "name" in validate_chrome_trace(bad)

    def test_rejects_negative_duration(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": -1}
        ]}
        assert "dur" in validate_chrome_trace(bad)

    def test_rejects_missing_ts(self):
        bad = {"traceEvents": [{"name": "x", "ph": "X", "dur": 1}]}
        assert "ts" in validate_chrome_trace(bad)

    def test_accepts_metadata_events(self):
        ok = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "main"}},
        ]}
        assert validate_chrome_trace(ok) is None
