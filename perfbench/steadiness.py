"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--workloads sim-weak,tune-cold,serve-mixed]
        [--seeds 1-10] [--seconds 30]

For every workload and end-to-end metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median``, next to the metric's bound in
``BENCHMARK.json``. Raw results go to ``.perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="sim-weak,tune-cold,serve-mixed")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        raw[workload] = runs
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':<18s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<18s} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {spread:>8.3f} {bounds[name]:>6}")
    out = Path(".perfbench/steadiness.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
