"""``python -m repro.obs`` — the observability layer's front door.

Subcommands:

* ``export`` — build a workload (same builders the weak-scaling sweeps
  use), simulate it with a per-phase breakdown, and write a Chrome
  trace-event JSON any trace viewer opens; ``--spans`` merges in
  wall-clock span lanes.
* ``--demo`` — the CI smoke path: export a 64-node weak-scaled Cannon
  trace with span tracing on, validate it against the minimal
  trace-event schema, and fail non-zero on any defect.

Every subcommand takes ``--json`` (the shared :mod:`repro.cli` flag)
to emit one machine-readable summary object instead of the human
report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from repro import cli
from repro.obs.export import (
    breakdown_to_chrome,
    merge_traces,
    spans_to_chrome,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.spans import (
    format_profile,
    set_tracing,
    span_records,
)

#: Workloads the exporter knows how to build (the weak-scaling set).
WORKLOADS = ("cannon", "summa", "pumma", "johnson")


def _build_kernel(workload: str, nodes: int, size: Optional[int],
                  gpu: bool):
    from repro.algorithms import matmul
    from repro.bench.weak_scaling import (
        cube_grid,
        square_grid,
        weak_matrix_size,
    )
    from repro.machine.cluster import Cluster, MemoryKind
    from repro.machine.grid import Grid
    from repro.machine.machine import Machine

    cluster = (
        Cluster.gpu_cluster(nodes) if gpu else Cluster.cpu_cluster(nodes)
    )
    p = cluster.num_processors
    grid = cube_grid(p) if workload == "johnson" else square_grid(p)
    machine = Machine(cluster, Grid(*grid))
    n = size or weak_matrix_size(8192, nodes)
    memory = MemoryKind.GPU_FB if gpu else MemoryKind.SYSTEM_MEM
    builder = getattr(matmul, workload)
    return builder(machine, n, memory=memory), n


def _export(args, say):
    """Shared export pass; returns ``(exit_code, payload)``."""
    from repro.sim.params import LASSEN

    if args.spans:
        set_tracing(True)
    t0 = time.perf_counter()
    kern, n = _build_kernel(args.workload, args.nodes, args.size, args.gpu)
    report = kern.simulate(LASSEN, breakdown=True)
    wall = time.perf_counter() - t0
    title = f"{args.workload} n={n} nodes={args.nodes}"
    trace = breakdown_to_chrome(report.breakdown, title=title)
    if args.spans:
        trace = merge_traces(trace, spans_to_chrome(span_records()))
    defect = validate_chrome_trace(trace)
    if defect is not None:
        print(f"exported trace is invalid: {defect}", file=sys.stderr)
        return 1, {}
    out = args.out or f"trace_{args.workload}_{args.nodes}.json"
    write_trace(trace, out)
    say(f"{title}: {report}")
    say(f"  {len(report.breakdown.phases)} phases, "
        f"{len(trace['traceEvents'])} trace events -> {out}")
    say(f"  (open in Perfetto / chrome://tracing; built in {wall:.2f}s)")
    top = report.breakdown.top(3)
    for phase in top:
        say(f"  top: {phase.label:<24s} {phase.total_s:.4f}s "
            f"dominant={phase.dominant}")
    if args.spans:
        say("== Wall-clock profile ==")
        say(format_profile())
    payload = {
        "workload": args.workload,
        "nodes": args.nodes,
        "size": n,
        "out": out,
        "build_wall_s": round(wall, 4),
        "phases": len(report.breakdown.phases),
        "trace_events": len(trace["traceEvents"]),
        "top": [
            {
                "label": phase.label,
                "total_s": phase.total_s,
                "dominant": phase.dominant,
            }
            for phase in top
        ],
    }
    return 0, payload


def cmd_export(args) -> int:
    code, payload = _export(args, cli.reporter(args))
    if code != 0:
        return code
    if not cli.emit(args, payload):
        cli.print_metrics()
    return 0


def cmd_demo(args) -> int:
    """The CI smoke path: export, validate, verify round-trip."""
    say = cli.reporter(args)
    ns = argparse.Namespace(
        workload="cannon", nodes=64, size=None, gpu=False,
        out=args.out or "obs_demo_trace.json", spans=True,
        json=args.json,
    )
    code, payload = _export(ns, say)
    if code != 0:
        return code
    if not args.json:
        cli.print_metrics()
    # Re-read what was written: the artifact CI uploads must itself
    # parse and validate, not just the in-memory object.
    try:
        with open(ns.out) as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"demo trace unreadable: {exc}", file=sys.stderr)
        return 1
    defect = validate_chrome_trace(trace)
    if defect is not None:
        print(f"demo trace invalid on disk: {defect}", file=sys.stderr)
        return 1
    slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    spans = [e for e in slices if e.get("cat") == "span"]
    if not spans:
        print("demo trace has no span lanes", file=sys.stderr)
        return 1
    say(f"demo trace OK: {len(slices)} slices "
        f"({len(spans)} wall-clock spans) in {ns.out}")
    cli.emit(args, {
        **payload,
        "demo": {"slices": len(slices), "spans": len(spans)},
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and export observability data.",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="run the CI smoke path (export + validate a Cannon trace)",
    )
    parser.add_argument("--out", default=None, help="demo output path")
    cli.add_common_args(parser, ledger=False, jobs=False, seed=False)
    sub = parser.add_subparsers(dest="command")

    p_exp = sub.add_parser("export", help="export a simulated-time trace")
    p_exp.add_argument("--workload", choices=WORKLOADS, default="cannon")
    p_exp.add_argument("--nodes", type=int, default=64)
    p_exp.add_argument("--size", type=int, default=None,
                       help="matrix side (default: weak-scaled from 8192)")
    p_exp.add_argument("--gpu", action="store_true")
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--spans", action="store_true",
                       help="enable tracing and merge span lanes in")
    cli.add_common_args(p_exp, ledger=False, jobs=False, seed=False)

    args = parser.parse_args(argv)
    if args.demo:
        return cmd_demo(args)
    if args.command == "export":
        return cmd_export(args)
    parser.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
