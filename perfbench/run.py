"""The repository's benchmark: ``python3 perfbench/run.py``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-weak|tune-cold|serve-mixed \
        --seed N --seconds S --trace 0|1

Builds every input from ``--seed``, measures for about ``--seconds``
seconds, checks every output, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``. A traced run
also writes its spans to ``.perfbench/trace-<workload>-<seed>.json``.

The workload runs in a process with a fixed ``PYTHONHASHSEED`` (the
script re-executes itself once to set it) and imports the program from
``src/``. Without the program's sources the script exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HASH_SEED = "0"
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROCESSES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim-weak", "tune-cold", "serve-mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_seconds(args, harness):
    """Wall times of fresh processes that import the program and build
    the workload's inputs (``setup()``), and then exit; and the
    machine-speed probes taken before, between and after them."""
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe",
    ]
    out, probes = [], [harness.probe()]
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
        probes.append(harness.probe())
    return out, probes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout holding src/repro",
              file=sys.stderr)
        return 2
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        print("perfbench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )

    import harness

    module = importlib.import_module(args.workload.replace("-", "_"))
    if args.setup_probe:
        module.setup(args.seed)
        return 0

    spec = json.loads(spec_path.read_text())
    bench = harness.Bench(args.seconds, bool(args.trace), module.REP_SECONDS)
    state = module.setup(args.seed)
    outcome = module.run(state, bench)
    bench.deterministic(outcome)
    for reason in outcome.reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    if args.trace:
        layers = bench.per_layer()
        layers.update(module.per_layer(state, bench))
        wanted = spec["per_layer"]
        unknown = set(layers) - {m["name"] for m in wanted}
        if unknown:
            raise KeyError(f"per-layer metrics not in BENCHMARK.json: "
                           f"{sorted(unknown)}")
        # A layer the workload never calls reports 0.
        metrics = {
            m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in wanted
        }
        bench.write_trace(
            harness.SCRATCH / f"trace-{args.workload}-{args.seed}.json"
        )
    else:
        e2e = bench.end_to_end()
        setup_s, probes = setup_seconds(args, harness)
        setup_s = harness.median(setup_s)
        if state.get("daemon_start_s"):
            setup_s += harness.median(state["daemon_start_s"])
        e2e["setup_s"] = harness.at_reference_speed(setup_s, probes)
        e2e["peak_rss_mb"] = harness.peak_rss_mb()
        metrics = {
            m["name"]: (e2e[m["name"]], m["unit"])
            for m in spec["end_to_end"]
        }
    harness.emit(
        outcome.failed == 0, outcome.attempted, outcome.failed, metrics
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
