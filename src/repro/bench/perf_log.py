"""Machine-readable performance trajectory: ``BENCH_simulator.json``.

Benchmark runs append one record per sweep — wall-clock seconds plus
whatever simulated-time metrics the caller supplies — to a JSON list at
the repository root, so the simulator's performance trend is tracked
across PRs without digging through CI logs.

The writer is crash- and parallel-safe:

* records are written to a temporary file in the same directory and
  moved into place with ``os.replace``, so a killed process can never
  leave a half-written log behind;
* concurrent appenders (``--jobs`` sweeps, parallel tuning runs)
  serialize on an advisory ``flock`` of a sidecar ``.lock`` file where
  the platform provides one;
* a log whose *tail* was corrupted anyway (e.g. by a pre-fix writer
  dying mid-write) is salvaged: the valid leading records are kept, and
  the corrupt original is quarantined next to the log as
  ``<name>.corrupt`` before the salvaged list is rewritten.

Foreign content — a file that is not a JSON list and yields no salvage
— is never clobbered; ``append_record`` simply returns ``False``.

Override the destination with ``REPRO_BENCH_LOG`` (used by tests).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.util.fileio import locked, write_atomic

#: The executor mode benchmark timings are recorded under by default.
DEFAULT_MODE = "orbit"


def environment(mode: str = DEFAULT_MODE) -> Dict[str, object]:
    """The recording environment attached to every perf record.

    Wall-clock timings are only comparable between equal environments —
    a 2-core CI runner legitimately takes longer than a 32-core laptop.
    ``repro.bench.regression`` compares records whose environments
    match and treats everything else as incomparable instead of
    false-flagging it.
    """
    return {
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "cpus": os.cpu_count() or 1,
        "mode": mode,
    }


def log_path() -> Path:
    override = os.environ.get("REPRO_BENCH_LOG")
    if override:
        return Path(override)
    # src/repro/bench/perf_log.py -> repository root.
    return Path(__file__).resolve().parents[3] / "BENCH_simulator.json"


def _salvage(text: str) -> Optional[List[Dict]]:
    """Recover the valid leading records of a truncated JSON list.

    A writer that died mid-``write`` leaves a prefix of the intended
    content: ``[`` followed by zero or more complete records and then a
    torn one. Decode records one by one and keep what parses.
    """
    stripped = text.lstrip()
    if not stripped.startswith("["):
        return None
    decoder = json.JSONDecoder()
    pos = text.find("[") + 1
    records: List[Dict] = []
    while True:
        while pos < len(text) and text[pos] in " \t\r\n,":
            pos += 1
        if pos >= len(text) or text[pos] == "]":
            break
        try:
            value, pos = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            break
        records.append(value)
    return records


def _load(path: Path) -> Tuple[Optional[List[Dict]], bool]:
    """The log's records plus whether salvage dropped corrupt content.

    Returns ``(None, False)`` for unreadable or foreign content that
    must be preserved untouched.
    """
    if not path.exists():
        return [], False
    try:
        text = path.read_text()
    except OSError:
        return None, False
    if not text.strip():
        return [], False
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        salvaged = _salvage(text)
        if salvaged is None:
            return None, False
        return salvaged, True
    return (data, False) if isinstance(data, list) else (None, False)


def read_records(path: Optional[Path] = None) -> List[Dict]:
    """The log's records for read-only consumers (``python -m
    repro.obs``); unreadable/foreign content reads as empty."""
    records, _salvaged = _load(path or log_path())
    return records or []


def append_record(
    name: str,
    wall_s: float,
    metrics: Optional[Dict] = None,
    mode: str = DEFAULT_MODE,
    counters: Optional[Dict] = None,
) -> bool:
    """Append one perf record; returns False when the log is unwritable
    or holds something that is not (a salvageable prefix of) a JSON
    list — foreign content is never clobbered. Each record carries the
    recording environment (:func:`environment`), so the regression gate
    never compares timings across machines.

    ``counters`` (a metrics-registry snapshot) is stored under
    ``metrics.counters`` — opt-in, so callers recording pure
    measurements keep schema-stable records — where the regression
    gate's efficiency rules read it."""
    path = log_path()
    with locked(path):
        records, salvaged = _load(path)
        if records is None:
            return False
        if salvaged:
            # Quarantine the corrupt original before rewriting.
            try:
                quarantine = path.with_name(path.name + ".corrupt")
                quarantine.write_text(path.read_text())
            except OSError:
                return False
        record = {
            "name": name,
            "wall_s": round(float(wall_s), 4),
            "timestamp": int(time.time()),
            "env": environment(mode),
        }
        if metrics:
            record["metrics"] = dict(metrics)
        if counters:
            record.setdefault("metrics", {})["counters"] = dict(counters)
        records.append(record)
        return write_atomic(path, json.dumps(records, indent=1) + "\n")
