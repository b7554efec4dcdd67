"""Command-line fault recovery: ``python -m repro.faults``.

Usage::

    python -m repro.faults --workload matmul --nodes 8 [--size N]
        [--phase P] [--node K] [--fault-seed S] [--checkpoint] [--json]
    python -m repro.faults --pipeline chain-matmul --nodes 8
        [--fault-seed S]

Injects a node failure into a simulated execution and replans: the
completed prefix is priced from the partial trace, the remainder is
re-tuned on the surviving cluster (warm-started from the pre-failure
decision), and the migration of every input into the re-tuned layout
is charged through the redistribution planner with the dead node
excluded as a source.

With ``--phase``/``--node`` unset, the kill is drawn deterministically
from ``--fault-seed`` via :meth:`FaultPlan.sample`; ``--pipeline``
mode always samples (kills and inter-stage regrids) from the seed.

Exit status is non-zero when the run raises or when the failure was
not replanned (infinite recovered cost).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro import cli
from repro.faults.events import FaultPlan, KillNode
from repro.faults.replan import replan_kernel, replan_pipeline
from repro.sim.params import LASSEN
from repro.tuner.space import Decision, from_heuristic
from repro.tuner.workloads import PIPELINES, WORKLOADS


def _seed_decision(assignment, cluster, max_dims: int) -> Decision:
    from repro.tuner.space import factorizations

    shapes = factorizations(
        cluster.num_processors,
        min(max_dims, len(assignment.lhs.indices)),
    )
    grid = shapes[0] if shapes else (cluster.num_processors,)
    return from_heuristic(assignment, grid)


def _check_replanned(report) -> int:
    if not math.isfinite(report.total_time):
        print("failure was not replanned (infinite cost)", file=sys.stderr)
        return 1
    return 0


def _run_kernel(args) -> int:
    say = cli.reporter(args)
    cluster = cli.build_cluster(args)
    assignment = cli.workload(args)
    if args.phase is not None or args.node is not None:
        kill = KillNode(
            phase=args.phase if args.phase is not None else 1,
            node=args.node if args.node is not None else 0,
        )
        plan = FaultPlan(events=(kill,), seed=args.fault_seed)
    else:
        plan = FaultPlan.sample(
            args.fault_seed, cluster.num_nodes, max_phase=2
        )
    decision = _seed_decision(assignment, cluster, args.max_dims)
    if args.checkpoint:
        from dataclasses import replace

        decision = replace(
            decision, checkpoint=(assignment.lhs.tensor.name,)
        )
    say(
        f"injecting {plan.encode()} into {args.workload} on {cluster!r}"
    )
    report = replan_kernel(
        assignment,
        cluster,
        LASSEN,
        decision=decision,
        fault_plan=plan,
        jobs=args.jobs,
        max_dims=args.max_dims,
        timeout_s=args.timeout,
        workload=args.workload,
    )
    say(report.describe())
    if not cli.emit(args, {
        "workload": args.workload,
        "fault_plan": plan.encode(),
        "report": json.loads(report.to_json()),
    }):
        cli.print_metrics()
    return _check_replanned(report)


def _run_pipeline(args) -> int:
    from repro.pipeline import Pipeline

    say = cli.reporter(args)
    cluster = cli.build_cluster(args)
    pipeline = Pipeline(cli.pipeline_stages(args), cluster)
    decisions = {
        stage.name: _seed_decision(
            stage.assignment, cluster, args.max_dims
        )
        for stage in pipeline.stages
    }
    names = [s.name for s in pipeline.stages]
    plan = FaultPlan.sample(
        args.fault_seed,
        cluster.num_nodes,
        max_phase=2,
        stages=(names[0],),
        resize_choices=(max(1, cluster.num_nodes - 1),),
    )
    say(
        f"injecting {plan.encode()} into pipeline {args.pipeline} "
        f"on {cluster!r}"
    )
    report = replan_pipeline(
        pipeline,
        decisions,
        LASSEN,
        fault_plan=plan,
        jobs=args.jobs,
        max_dims=args.max_dims,
        timeout_s=args.timeout,
        workload=args.pipeline,
    )
    say(report.describe())
    if not cli.emit(args, {
        "pipeline": args.pipeline,
        "fault_plan": plan.encode(),
        "report": json.loads(report.to_json()),
    }):
        cli.print_metrics()
    return _check_replanned(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Inject simulated node failures and replan.",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="matmul"
    )
    parser.add_argument(
        "--pipeline",
        choices=sorted(PIPELINES),
        default=None,
        help="replan a multi-kernel pipeline under a sampled fault "
        "plan (kills plus inter-stage regrids)",
    )
    cli.add_cluster_args(parser, nodes_default=8)
    parser.add_argument(
        "--phase", type=int, default=None, help="kill at this phase"
    )
    parser.add_argument(
        "--node", type=int, default=None, help="kill this node"
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the sampled fault plan (equal seeds give "
        "byte-identical recovery reports)",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="checkpoint the output tensor each phase (the completed "
        "prefix survives the failure)",
    )
    parser.add_argument("--max-dims", type=int, default=3)
    cli.add_common_args(parser, ledger=False, seed=False, timeout=True)
    args = parser.parse_args(argv)
    if args.max_dims < 1:
        parser.error(f"--max-dims must be at least 1, got {args.max_dims}")
    run = _run_pipeline if args.pipeline is not None else _run_kernel
    return cli.guarded("fault replanning failed", run, args)


if __name__ == "__main__":
    sys.exit(main())
