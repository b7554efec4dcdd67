"""Command-line static schedule analysis: ``python -m repro.analyze``.

Usage::

    python -m repro.analyze matmul [--nodes 16] [--size N] [--gpu]
        [--json]
    python -m repro.analyze --all-demos

Runs the analyzer's four passes over one workload (or every demo
workload at a seconds-scale size):

* the **legality verifier** over the full enumerated schedule space —
  every candidate the tuner would consider must verify cleanly;
* the **static pruner** — how many candidates the analyzer can decide
  (provable OOMs, dominated leaves) with zero simulations;
* **memory and communication bounds** for the heuristic schedule;
* the **trace sanitizer** over a full symbolic execution of the
  heuristic kernel.

``--json`` (from the shared :mod:`repro.cli` group) replaces the
human report with one machine-readable object: per-workload candidate
counts, violations, pruning rates, and sanitizer findings.

Exit status is non-zero when any enumerated candidate fails the
verifier or the sanitizer reports any finding.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from repro import cli
from repro.analysis import (
    analyze_kernel,
    memory_bounds,
    prune_reason,
    verify_legality,
)
from repro.core.kernel import compile_kernel
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN
from repro.tuner.search import default_seed_grid
from repro.tuner.space import enumerate_space, from_heuristic, realize
from repro.tuner.workloads import WORKLOADS, sized, weak_scaled

#: ``--all-demos`` problem side: big enough for real phase structure,
#: small enough that the whole sweep stays in CI-smoke territory.
DEMO_SIZE = 1024


def analyze_workload(name: str, cluster: Cluster, assignment, say=print):
    """Run every pass over one workload; returns ``(findings,
    summary)`` where ``summary`` is the JSON-payload row."""
    p = cluster.num_processors
    memory = cluster.default_memory
    sizes = {t.name: t.shape for t in assignment.tensors()}
    say(f"analyzing {name} {sizes} on {cluster!r}")

    space = enumerate_space(assignment, p)
    illegal = 0
    for decision in space:
        diags = verify_legality(assignment, decision, num_procs=p)
        for diag in diags:
            illegal += 1
            say(f"  ILLEGAL {decision.encode()}: {diag}")
    say(f"  legality: {len(space)} candidates, {illegal} violations")

    pruned = sum(
        1
        for decision in space
        if prune_reason(
            assignment, decision, cluster, memory, params=LASSEN
        )
        is not None
    )
    say(
        f"  static pruning: {pruned}/{len(space)} candidates decided "
        "without simulation"
    )

    decision = from_heuristic(assignment, default_seed_grid(assignment, p))
    bound = memory_bounds(assignment, decision, cluster, memory)
    say(f"  heuristic {decision.encode()}")
    say(f"    memory:  {bound.describe()}")

    machine = Machine(cluster, Grid(*decision.grid))
    schedule, _formats = realize(
        assignment, machine, decision, memory=memory
    )
    kernel = compile_kernel(schedule, machine)
    report = analyze_kernel(kernel)
    for line in report.describe().splitlines():
        say(f"    {line}")
    summary = {
        "workload": name,
        "sizes": {tensor: list(shape) for tensor, shape in sizes.items()},
        "candidates": len(space),
        "violations": illegal,
        "pruned": pruned,
        "heuristic_decision": decision.encode(),
        "sanitizer_findings": len(report.findings),
    }
    return illegal + len(report.findings), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static legality, bounds, and trace-sanity analysis.",
    )
    parser.add_argument(
        "workload", nargs="?", choices=sorted(WORKLOADS), default=None
    )
    parser.add_argument(
        "--all-demos",
        action="store_true",
        help="every workload at a seconds-scale demo size (the CI job)",
    )
    cli.add_cluster_args(parser, nodes_default=4)
    cli.add_common_args(parser, ledger=False, jobs=False, seed=False)
    args = parser.parse_args(argv)
    if not args.all_demos and args.workload is None:
        parser.error("name a workload or pass --all-demos")

    say = (lambda *a, **k: None) if args.json else print
    cluster = cli.build_cluster(args)
    workloads = []
    try:
        if args.all_demos:
            findings = 0
            for name in sorted(WORKLOADS):
                found, summary = analyze_workload(
                    name,
                    cluster,
                    sized(name, args.size or DEMO_SIZE),
                    say=say,
                )
                findings += found
                workloads.append(summary)
        else:
            assignment = (
                sized(args.workload, args.size)
                if args.size is not None
                else weak_scaled(args.workload, args.nodes)
            )
            findings, summary = analyze_workload(
                args.workload, cluster, assignment, say=say
            )
            workloads.append(summary)
    except Exception:
        traceback.print_exc()
        print("analysis run failed", file=sys.stderr)
        return 1
    if not cli.emit(args, {
        "findings": findings,
        "workloads": workloads,
    }):
        cli.print_metrics()
    if findings:
        print(f"{findings} finding(s)", file=sys.stderr)
        return 1
    say("all passes clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
