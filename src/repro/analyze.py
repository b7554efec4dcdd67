"""Command-line static schedule analysis: ``python -m repro.analyze``.

Usage::

    python -m repro.analyze matmul [--nodes 4] [--size N] [--gpu]
        [--json]

Runs the analyzer's four passes over one workload:

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
``tests/analysis/test_analyze_cli.py`` runs every workload at side
1024 on 4 CPU nodes and pins each row.

Exit status is non-zero when any enumerated candidate fails the
verifier or the sanitizer reports any finding.
"""

from __future__ import annotations

import argparse
import sys

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
from repro.tuner.workloads import WORKLOADS


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


def _run(args) -> int:
    say = cli.reporter(args)
    findings, summary = analyze_workload(
        args.workload, cli.build_cluster(args), cli.workload(args), say=say
    )
    if not cli.emit(args, {
        "findings": findings,
        "workloads": [summary],
    }):
        cli.print_metrics()
    if findings:
        print(f"{findings} finding(s)", file=sys.stderr)
        return 1
    say("all passes clean")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static legality, bounds, and trace-sanity analysis.",
    )
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    cli.add_cluster_args(parser, nodes_default=4)
    cli.add_common_args(parser, ledger=False, jobs=False, seed=False)
    return cli.guarded("analysis run failed", _run, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
