"""Command-line schedule autotuning: ``python -m repro.tune``.

Usage::

    python -m repro.tune --workload matmul --nodes 64 [--gpu]
        [--jobs 8] [--strategy auto|exhaustive|beam] [--seed 0]
        [--beam 8] [--size N] [--ledger PATH] [--max-dims 3]
        [--timeout SECONDS] [--json]
    python -m repro.tune --pipeline chain-matmul --nodes 64 [--top-k 6]
    python -m repro.tune --demo

Searches the schedule space of the named workload on a Lassen-like
cluster, using the orbit-compressed simulator as the cost oracle, and
prints the heuristic-vs-tuned comparison plus the winning decision
vector. ``--pipeline`` tunes a multi-kernel pipeline *jointly* —
per-stage decision vectors plus the handoff format of every
intermediate tensor — and prints the independent-vs-joint comparison
with the per-stage and redistribution breakdown. ``--demo`` runs a
seconds-scale exhaustive tune (the CI smoke test).

The ``--ledger/--jobs/--seed/--json`` group is the shared one from
:mod:`repro.cli`: ``--ledger`` accepts a directory (a root of shards,
the serving daemon's layout) or a ``.json`` file, and ``--json`` replaces
the human report with one machine-readable summary object.

Exit status is non-zero when the tuning run raises, when any oracle
simulation fails (candidate compile/simulation errors — simulated OOMs
are a legitimate outcome and do not count), or when a requested ledger
cannot be written.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import cli
from repro.analysis import comm_lower_bound, memory_bounds, verify_legality
from repro.sim.params import LASSEN
from repro.tuner.workloads import PIPELINES, WORKLOADS


def _fmt_cost(outcome) -> str:
    if outcome is None or not outcome.feasible:
        return "OOM"
    return f"{outcome.cost:.4f}s"


def _cost_or_none(outcome):
    if outcome is None or not outcome.feasible:
        return None
    return outcome.cost


def _tune_unified(args, assignment, cluster, ledger):
    """Tune through the unified API (attaches ``result.answer``)."""
    from repro import api

    request = api.ScheduleRequest.from_assignment(
        assignment, cluster, seed=args.seed
    )
    return api.tune_request(
        request,
        assignment=assignment,
        cluster=cluster,
        strategy=args.strategy,
        beam_width=args.beam,
        jobs=args.jobs,
        max_dims=args.max_dims,
        ledger=ledger,
        timeout_s=args.timeout,
    )


def _run_single(args, cluster, ledger) -> int:
    say = cli.reporter(args)
    assignment = cli.workload(args)
    sizes = cli.workload_sizes(assignment)
    say(
        f"tuning {args.workload} {sizes} on {cluster!r} "
        f"({cluster.num_processors} processors)"
    )
    start = time.monotonic()
    result = _tune_unified(args, assignment, cluster, ledger)
    wall = time.monotonic() - start
    search = result.search

    say(search.describe())
    heuristic = search.seed_outcome
    best = search.best
    say(f"heuristic cost: {_fmt_cost(heuristic)}")
    say(f"tuned cost:     {_fmt_cost(best)}")
    if heuristic.feasible and best.feasible and best.cost > 0:
        say(f"speedup over heuristic: {heuristic.cost / best.cost:.2f}x")
    say(f"wall-clock: {wall:.2f}s "
        f"({search.evaluations} simulations, "
        f"{search.pruned_static} statically pruned, "
        f"strategy {search.strategy})")

    illegal = verify_legality(
        assignment, best.decision, num_procs=cluster.num_processors
    )
    for diag in illegal:
        print(f"ILLEGAL winning decision: {diag}", file=sys.stderr)

    if args.analyze and not args.json:
        bound = memory_bounds(
            assignment, best.decision, cluster, cluster.default_memory
        )
        comm = comm_lower_bound(assignment, cluster, LASSEN)
        say(f"winner memory: {bound.describe()}")
        say(f"winner {comm.describe()}")
        cert = comm.certificate(best.inter_node_bytes)
        if cert is not None:
            say(
                f"winner certified within {cert:.2f}x of the "
                "communication lower bound"
            )

    if not cli.emit(args, {
        "workload": args.workload,
        "nodes": args.nodes,
        "sizes": {name: list(shape) for name, shape in sizes.items()},
        "strategy": search.strategy,
        "space": search.space_size,
        "evaluations": search.evaluations,
        "wall_s": round(wall, 4),
        "decision": best.decision.encode(),
        "tuned_cost_s": _cost_or_none(best),
        "heuristic_cost_s": _cost_or_none(heuristic),
        "errors": search.errors,
        "illegal": len(illegal),
        "answer": (
            None if result.answer is None else result.answer.to_record()
        ),
    }):
        cli.print_metrics()
    if illegal:
        print(
            "the winning candidate fails the legality verifier",
            file=sys.stderr,
        )
        return search.errors + len(illegal)
    return search.errors


def _run_pipeline(args, cluster, ledger) -> int:
    from repro.pipeline import Pipeline
    from repro.tuner.joint import tune_pipeline

    say = cli.reporter(args)
    pipeline = Pipeline(cli.pipeline_stages(args), cluster)
    shapes = {
        t.name: t.shape
        for stage in pipeline.stages
        for t in stage.assignment.tensors()
    }
    say(
        f"jointly tuning pipeline {args.pipeline} {shapes} on {cluster!r} "
        f"({cluster.num_processors} processors)"
    )
    start = time.monotonic()
    result = tune_pipeline(
        pipeline,
        LASSEN,
        top_k=args.top_k,
        strategy=args.strategy,
        beam_width=args.beam,
        seed=args.seed,
        jobs=args.jobs,
        max_dims=args.max_dims,
        ledger=ledger,
        timeout_s=args.timeout,
    )
    wall = time.monotonic() - start

    say(result.describe())
    if result.report is not None:
        say(result.report.describe())
    joint = result.report
    independent = result.independent_report
    if joint is not None and independent is not None:
        saved = (
            independent.combined.total_time - joint.combined.total_time
        )
        say(
            f"joint vs independent: "
            f"{joint.combined.total_time:.4f}s vs "
            f"{independent.combined.total_time:.4f}s "
            f"({saved:+.4f}s from joint scheduling)"
        )
    say(
        f"wall-clock: {wall:.2f}s "
        f"({result.combinations} combinations, "
        f"{result.evaluations} pipeline simulations)"
    )

    joint_cost = None if joint is None else joint.combined.total_time
    independent_cost = (
        None if independent is None else independent.combined.total_time
    )
    if not cli.emit(args, {
        "pipeline": args.pipeline,
        "nodes": args.nodes,
        "sizes": {name: list(shape) for name, shape in shapes.items()},
        "combinations": result.combinations,
        "evaluations": result.evaluations,
        "wall_s": round(wall, 4),
        "joint_cost_s": joint_cost,
        "independent_cost_s": independent_cost,
        "errors": result.errors,
    }):
        cli.print_metrics()
    return result.errors


def _run(args) -> int:
    cluster = cli.build_cluster(args)
    ledger = cli.make_ledger(args)
    if args.pipeline is not None:
        errors = _run_pipeline(args, cluster, ledger)
    else:
        errors = _run_single(args, cluster, ledger)
    status = 0
    if errors:
        print(
            f"{errors} oracle simulation(s) failed (see ledger/errors)",
            file=sys.stderr,
        )
        status = 1
    if cli.ledger_failed(ledger):
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Search-based schedule and format selection.",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="matmul"
    )
    parser.add_argument(
        "--pipeline",
        choices=sorted(PIPELINES),
        default=None,
        help="jointly tune a multi-kernel pipeline instead of a single "
        "kernel (per-stage schedules plus handoff formats)",
    )
    cli.add_cluster_args(parser, nodes_default=16, system_mem=True)
    parser.add_argument(
        "--strategy", choices=["auto", "exhaustive", "beam"], default="auto"
    )
    parser.add_argument("--beam", type=int, default=8)
    parser.add_argument(
        "--top-k",
        type=int,
        default=6,
        help="per-stage candidates the joint pipeline product ranges over",
    )
    parser.add_argument(
        "--max-dims", type=int, default=3, help="max machine-grid rank"
    )
    cli.add_common_args(parser, timeout=True)
    parser.add_argument(
        "--demo",
        action="store_true",
        help="seconds-scale smoke tune (4 nodes, small matmul)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="print the winner's static memory/communication bounds",
    )
    args = parser.parse_args(argv)

    if args.demo:
        args.nodes, args.size = 4, 4096
        args.strategy = "exhaustive"
        if args.pipeline is None:
            args.workload = "matmul"

    return cli.guarded("tuning run failed", _run, args)


if __name__ == "__main__":
    sys.exit(main())
