"""Perf-regression gate over the ``BENCH_simulator.json`` trajectory.

``python -m repro.bench.regression --baseline OLD.json`` compares the
*latest* record of every tracked name in the current perf log against
the latest record of the same name in a baseline log (CI uses the
last committed trajectory, snapshotted before the benchmark run
appends to it). A name regresses when its wall-clock grew by more than
``--threshold`` (default 25%) *and* by more than ``--min-seconds``
(default 0.05 s — sub-tick timings jitter far above 25% without
meaning anything). Names present only in one log are reported but
never fail the gate; exit status is 1 iff at least one tracked timing
or efficiency counter regressed.

Records carrying a metrics snapshot (``metrics.counters``, written by
``append_record(..., counters=...)``) are additionally compared on the
efficiency rules of :func:`compare_counters` — regressions wall-clock
noise hides, like serving workers starting to crash or a replay hit
rate collapsing. A baseline record that predates the metrics schema
(no counters) is *reported*, never failed: old trajectories stay
usable as timing baselines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.perf_log import log_path

#: Defaults of the CI gate.
DEFAULT_THRESHOLD = 0.25
DEFAULT_MIN_SECONDS = 0.05


#: "No environment filter" sentinel — distinct from ``None``, which
#: matches exactly the legacy records that carry no ``env`` block.
ANY_ENV = object()


def latest_by_name(
    records: List[Dict], env: object = ANY_ENV
) -> Dict[str, Dict]:
    """The last record of every name, in trajectory (append) order.

    With ``env`` given (including ``None``), only records whose
    recording environment equals it are considered — wall-clock timings
    from a different machine class (cpu count, python version, executor
    mode) are not comparable, so the gate must never pair them. A
    ``None`` filter matches exactly the legacy records that carry no
    ``env`` block.
    """
    latest: Dict[str, Dict] = {}
    for record in records:
        name = record.get("name")
        if not (isinstance(name, str) and "wall_s" in record):
            continue
        if env is not ANY_ENV and record.get("env") != env:
            continue
        latest[name] = record
    return latest


def load_records(path: Path) -> List[Dict]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"cannot read perf log {path}: {err}")
    if not isinstance(data, list):
        raise SystemExit(f"perf log {path} is not a JSON list")
    return data


def compare(
    baseline: Dict[str, Dict],
    current: Dict[str, Dict],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Tuple[List[Tuple[str, float, float]], List[str], List[str]]:
    """(regressions, names only in baseline, names only in current).

    A regression is ``(name, baseline wall_s, current wall_s)`` where
    the current timing exceeds the baseline by more than both the
    relative threshold and the absolute floor.
    """
    regressions: List[Tuple[str, float, float]] = []
    for name in sorted(set(baseline) & set(current)):
        base = float(baseline[name]["wall_s"])
        cur = float(current[name]["wall_s"])
        if cur > base * (1.0 + threshold) and cur - base > min_seconds:
            regressions.append((name, base, cur))
    missing = sorted(set(baseline) - set(current))
    new = sorted(set(current) - set(baseline))
    return regressions, missing, new


def counters_of(record: Dict) -> Optional[Dict]:
    """A record's ``metrics.counters`` snapshot, or ``None`` when the
    record predates the metrics schema."""
    metrics = record.get("metrics")
    if isinstance(metrics, dict):
        counters = metrics.get("counters")
        if isinstance(counters, dict):
            return counters
    return None


#: Hit/miss-style replay rates: ``(label, numerator, denominator)``
#: where the rate is num / (num + den). A rate that was >= 50% in the
#: baseline and halved in the current run fails the gate — the fast
#: path stopped firing.
RATE_RULES = (
    ("step-price replay", "costmodel.step_price_hits",
     "costmodel.step_price_misses"),
    ("orbit phase replay", "orbit.phase_replays", None),
)

#: Rate-rule thresholds: the baseline rate must be at least MIN_RATE
#: for the rule to arm, and the current rate must drop below half the
#: baseline's to fail.
MIN_RATE = 0.5

#: Zero-stays-zero counters: a benchmark run where one of these was 0
#: in the baseline and nonzero now regressed — a slow or failing path
#: started firing. (The chaos soak triggers them *on purpose*, which
#: is fine: the gate compares like-named records, and the soak's
#: record legitimately carries nonzero values on both sides.)
APPEARANCE_RULES = (
    ("serve.crashes", "serving tune workers started crashing"),
    ("serve.quarantined", "serving requests started being quarantined"),
    ("serve.shed", "serving daemon started shedding load"),
    ("serve.drained", "serving waiters started hitting drain errors"),
)

CounterFinding = Tuple[str, str, float, float, str]


def compare_counters(
    baseline: Dict[str, Dict], current: Dict[str, Dict]
) -> Tuple[List[CounterFinding], List[str]]:
    """(efficiency regressions, baseline names predating the schema).

    Each finding is ``(record name, counter, baseline value, current
    value, rule description)``. Only record pairs where *both* sides
    carry counters are judged; a current-only snapshot marks the
    baseline as pre-schema (reported, never failed).
    """
    findings: List[CounterFinding] = []
    pre_schema: List[str] = []
    for name in sorted(set(baseline) & set(current)):
        cur_c = counters_of(current[name])
        if cur_c is None:
            continue
        base_c = counters_of(baseline[name])
        if base_c is None:
            pre_schema.append(name)
            continue
        for counter, description in APPEARANCE_RULES:
            base_v = base_c.get(counter, 0)
            cur_v = cur_c.get(counter, 0)
            if base_v == 0 and cur_v > 0:
                findings.append((
                    name, counter, base_v, cur_v, description,
                ))
        for label, num_key, den_key in RATE_RULES:
            if den_key is None:
                # Rate against the step count rather than a miss twin.
                base_den = base_c.get("orbit.steps", 0)
                cur_den = cur_c.get("orbit.steps", 0)
            else:
                base_den = base_c.get(num_key, 0) + base_c.get(den_key, 0)
                cur_den = cur_c.get(num_key, 0) + cur_c.get(den_key, 0)
            base_num = base_c.get(num_key, 0)
            cur_num = cur_c.get(num_key, 0)
            if not base_den or not cur_den:
                continue
            base_rate = base_num / base_den
            cur_rate = cur_num / cur_den
            if base_rate >= MIN_RATE and cur_rate < base_rate / 2:
                findings.append((
                    name, num_key, base_rate, cur_rate,
                    f"{label} hit rate collapsed",
                ))
    return findings, pre_schema


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Fail when a tracked benchmark timing regressed "
        "against a baseline perf trajectory.",
    )
    parser.add_argument(
        "--baseline",
        required=True,
        help="baseline perf log (e.g. the last committed "
        "BENCH_simulator.json, snapshotted before the run)",
    )
    parser.add_argument(
        "--log",
        default=None,
        help="current perf log (default: the repository trajectory, "
        "honouring REPRO_BENCH_LOG)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative slowdown that counts as a regression "
        "(default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="absolute slowdown floor; smaller deltas are noise",
    )
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    current_path = Path(args.log) if args.log else log_path()
    current_all = latest_by_name(load_records(current_path))
    # Pair records per name only when both sides were recorded in the
    # same environment: the current run's environment (per name) picks
    # the comparable baseline record, so a CI runner never false-flags
    # a laptop-recorded baseline.
    baseline_records = load_records(baseline_path)
    baseline: Dict[str, Dict] = {}
    incomparable: List[str] = []
    for name, record in current_all.items():
        env = record.get("env")
        matched = latest_by_name(baseline_records, env).get(name)
        if matched is not None:
            baseline[name] = matched
        elif name in latest_by_name(baseline_records):
            incomparable.append(name)
    current = current_all
    regressions, _filtered_missing, new = compare(
        baseline, current, args.threshold, args.min_seconds
    )
    # "Not re-measured" must consider every baseline name, not just the
    # env-comparable subset, so a benchmark silently vanishing from the
    # trajectory is still reported.
    missing = sorted(
        set(latest_by_name(baseline_records)) - set(current)
    )

    tracked = sorted(set(baseline) & set(current))
    print(
        f"comparing {len(tracked)} tracked timing(s) against "
        f"{baseline_path}"
    )
    if incomparable:
        print(
            "baseline recorded in a different environment (not "
            "compared): " + ", ".join(sorted(incomparable))
        )
    for name in tracked:
        base = float(baseline[name]["wall_s"])
        cur = float(current[name]["wall_s"])
        delta = cur - base
        flag = "REGRESSED" if any(r[0] == name for r in regressions) else "ok"
        print(
            f"  {name:<44s} {base:9.3f}s -> {cur:9.3f}s "
            f"({delta:+.3f}s) {flag}"
        )
    if new:
        print(f"new (untracked) names: {', '.join(new)}")
    if missing:
        print(f"not re-measured this run: {', '.join(missing)}")
    counter_findings, pre_schema = compare_counters(baseline, current)
    if pre_schema:
        print(
            "baseline predates the metrics schema (counters not "
            "compared): " + ", ".join(pre_schema)
        )
    for name, counter, base, cur, rule in counter_findings:
        print(
            f"  {name}: {rule} ({counter}: {base:g} -> {cur:g}) "
            "EFFICIENCY REGRESSED"
        )
    if regressions or counter_findings:
        if regressions:
            print(
                f"{len(regressions)} timing(s) regressed more than "
                f"{args.threshold:.0%} (+{args.min_seconds}s floor)",
                file=sys.stderr,
            )
        if counter_findings:
            print(
                f"{len(counter_findings)} efficiency counter(s) "
                "regressed",
                file=sys.stderr,
            )
        return 1
    print("no tracked timing regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
