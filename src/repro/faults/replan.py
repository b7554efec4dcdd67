"""Fault replanning: from a structured failure to a recovered schedule.

When a :class:`~repro.util.errors.NodeFailure` interrupts a simulated
execution, three questions decide the cost of carrying on:

1. **What survives?** The failure carries the dead node's home
   instances; replicated pieces still exist on surviving nodes, and
   checkpointed tensors (``Decision.checkpoint``) are restorable. The
   rest of the completed work is lost.
2. **What does the remaining work cost?** The surviving machine has one
   node fewer, so the old grid no longer exists. The remainder is
   re-tuned with the ordinary tuner, *warm-started* from the
   pre-failure decision vector: its same-rank grid projections join
   the space and survive every beam cut, so the re-tuned schedule can
   only improve on naively replaying the old structure.
3. **What does it cost to get there?** Every input (and checkpointed
   state) must move from its pre-failure layout into the re-tuned one
   — charged exactly through
   :func:`~repro.core.transfer.redistribution_trace` between the old
   and new grids, with the dead node excluded as a source
   (``avoid_src_nodes``): replicated pieces re-source from surviving
   holders, and what only the dead node held is restored over the same
   links.

The node-identity convention: nodes are homogeneous and the cost model
is invariant under node-id bijections (inter- vs. intra-node character
and per-link aggregation only depend on the partition into nodes), so
the dead node is relabelled to the *last* node id. The surviving
machine's grid then occupies the processor prefix by the row-major
placement rule, and ``avoid_src_nodes={num_nodes - 1}`` excludes
exactly the failed hardware — with cost identical to avoiding the
actual dead id.

Everything here is deterministic: equal-seed :class:`FaultPlan`\\ s
produce byte-identical :meth:`RecoveryReport.to_json` payloads
(``tests/faults/test_faults_cli.py`` pins one such payload's digest).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.kernel import compile_kernel
from repro.core.transfer import formats_equivalent, redistribution_trace
from repro.faults.events import FaultPlan, KillNode
from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.costmodel import CostModel
from repro.sim.params import LASSEN, MachineParams
from repro.tuner.space import Decision, realize
from repro.util.errors import NodeFailure


@dataclass(frozen=True)
class RecoveryReport:
    """The full accounting of one kernel-level failure recovery.

    ``phase == -1`` means the planned kill never triggered (the kill
    phase was at or past the end of the run, or the plan had no kill
    for this scope): the run completed fault-free and only
    ``baseline_time``/``total_time`` are meaningful.

    All times are simulated seconds; ``total_time`` is the wall clock
    of the recovered run: work completed before the failure (wasted or
    not), plus migration/restore traffic, plus the re-tuned remainder.
    Serialization (:meth:`to_json`) is key-sorted and free of any
    environment-dependent value, so equal-seed fault plans produce
    byte-identical reports.
    """

    workload: str
    num_nodes: int
    surviving_nodes: int
    phase: int
    dead_node: int
    num_steps: int
    checkpointed: Tuple[str, ...]
    lost_instances: int
    baseline_time: float
    completed_time: float
    lost_time: float
    migration_bytes: int
    migration_time: float
    retuned_time: float
    total_time: float
    pre_decision: str
    retuned_decision: str

    @property
    def failed(self) -> bool:
        return self.phase >= 0

    @property
    def overhead_factor(self) -> float:
        """Recovered wall clock relative to the fault-free baseline."""
        if self.baseline_time <= 0:
            return 1.0
        return self.total_time / self.baseline_time

    def to_json(self) -> str:
        record = asdict(self)
        record["checkpointed"] = list(self.checkpointed)
        return json.dumps(record, sort_keys=True)

    def describe(self) -> str:
        if not self.failed:
            return (
                f"{self.workload}: no failure triggered; "
                f"{self.baseline_time:.4f}s fault-free"
            )
        ckpt = (
            ",".join(self.checkpointed) if self.checkpointed else "none"
        )
        return "\n".join([
            f"{self.workload}: node {self.dead_node} died at phase "
            f"{self.phase}/{self.num_steps} "
            f"({self.num_nodes} -> {self.surviving_nodes} nodes, "
            f"{self.lost_instances} home instances lost, "
            f"checkpoint {ckpt})",
            f"  completed before failure: {self.completed_time:.4f}s"
            + ("  (lost)" if self.lost_time else "  (preserved)"),
            f"  migration/restore: {self.migration_bytes / 2 ** 20:.1f} "
            f"MiB, {self.migration_time:.4f}s",
            f"  re-tuned remainder: {self.retuned_time:.4f}s "
            f"({self.retuned_decision})",
            f"  total {self.total_time:.4f}s vs fault-free "
            f"{self.baseline_time:.4f}s "
            f"({self.overhead_factor:.2f}x)",
        ])


def replan_kernel(
    assignment: Assignment,
    cluster: Cluster,
    params: MachineParams = LASSEN,
    *,
    decision: Decision,
    fault_plan: FaultPlan,
    memory: Optional[MemoryKind] = None,
    strategy: str = "auto",
    jobs: int = 1,
    seed: int = 0,
    max_dims: int = 3,
    timeout_s: Optional[float] = None,
    workload: str = "kernel",
) -> RecoveryReport:
    """Inject the planned failure, replan, and account the recovery.

    Executes ``decision`` on ``cluster`` with ``fault_plan`` armed;
    when the kill fires, prices the completed prefix, re-tunes the
    assignment on the surviving (one-node-smaller) cluster warm-started
    from ``decision``, and charges the migration of every input — plus
    checkpointed state — into the re-tuned layout through
    :func:`redistribution_trace` with the dead node excluded as a
    source. Deterministic for a fixed ``(fault_plan, seed)``.
    """
    from repro.tuner.search import tune  # local: import cycle

    memory = memory if memory is not None else cluster.default_memory
    work = copy.deepcopy(assignment)
    machine = Machine(cluster, Grid(*decision.grid))
    schedule, formats = realize(work, machine, decision, memory=memory)
    kernel = compile_kernel(schedule, machine)
    model = CostModel(cluster, params)
    baseline = kernel.simulate(params)
    steps = max(1, baseline.num_steps)

    failure: Optional[NodeFailure] = None
    try:
        # Orbit, like the baseline: ``Kernel.trace`` defaults to the
        # slower batched interpreter (the kill fires at the same phase).
        kernel.trace(mode="orbit", fault_plan=fault_plan)
    except NodeFailure as err:
        failure = err
    if failure is None:
        return RecoveryReport(
            workload=workload,
            num_nodes=cluster.num_nodes,
            surviving_nodes=cluster.num_nodes,
            phase=-1,
            dead_node=-1,
            num_steps=steps,
            checkpointed=tuple(decision.checkpoint),
            lost_instances=0,
            baseline_time=baseline.total_time,
            completed_time=baseline.total_time,
            lost_time=0.0,
            migration_bytes=0,
            migration_time=0.0,
            retuned_time=0.0,
            total_time=baseline.total_time,
            pre_decision=decision.encode(),
            retuned_decision=decision.encode(),
        )

    completed = model.time_trace(failure.partial_trace).total_time
    surviving = cluster.resized(cluster.num_nodes - 1)
    retune = tune(
        copy.deepcopy(assignment),
        surviving,
        params,
        memory=memory,
        strategy=strategy,
        jobs=jobs,
        seed=seed,
        max_dims=max_dims,
        timeout_s=timeout_s,
        warm_start=decision,
    )
    retuned_total = (
        retune.report.total_time if retune.report is not None
        else float("inf")
    )
    checkpointed = tuple(decision.checkpoint)
    if checkpointed:
        # Per-phase checkpoints preserve the completed prefix: only the
        # remaining phases re-run (under the re-tuned schedule).
        fraction = (steps - min(failure.phase, steps)) / steps
        lost = 0.0
    else:
        fraction = 1.0
        lost = completed

    # Migration: inputs always move into the re-tuned layout (the dead
    # node excluded as a source — replicas re-source from survivors,
    # unreplicated pieces restore over the same links); checkpointed
    # tensors move as well, since their snapshot is what makes the
    # completed prefix worth keeping. The new grid occupies the
    # processor prefix of the old cluster (row-major placement), which
    # avoids the relabelled-dead last node by construction.
    dst_machine = Machine(cluster, Grid(*retune.decision.grid))
    avoid = {cluster.num_nodes - 1}
    output = work.lhs.tensor.name
    migrate = [
        t for t in work.tensors()
        if t.name != output or t.name in checkpointed
    ]
    migration_bytes = 0
    migration_time = 0.0
    for tensor in migrate:
        src_fmt = formats[tensor.name]
        dst_fmt = retune.formats[tensor.name]
        trace = redistribution_trace(
            tensor, src_fmt, machine, dst_fmt, dst_machine,
            avoid_src_nodes=avoid,
        )
        migration_bytes += trace.total_copy_bytes
        migration_time += model.time_trace(trace).total_time
    retuned_time = retuned_total * fraction
    total = completed + migration_time + retuned_time
    return RecoveryReport(
        workload=workload,
        num_nodes=cluster.num_nodes,
        surviving_nodes=failure.surviving_nodes,
        phase=failure.phase,
        dead_node=failure.node,
        num_steps=steps,
        checkpointed=checkpointed,
        lost_instances=len(failure.lost),
        baseline_time=baseline.total_time,
        completed_time=completed,
        lost_time=lost,
        migration_bytes=int(migration_bytes),
        migration_time=migration_time,
        retuned_time=retuned_time,
        total_time=total,
        pre_decision=decision.encode(),
        retuned_decision=retune.decision.encode(),
    )


# ----------------------------------------------------------------------
# Pipeline replanning: kills mid-stage, regrids between stages.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StageRecovery:
    """One pipeline stage's contribution to a recovered run."""

    stage: str
    nodes: int
    decision: str
    retuned: bool
    stage_time: float
    handoff_bytes: int
    handoff_time: float
    recovery: Optional[RecoveryReport] = None


@dataclass(frozen=True)
class PipelineRecoveryReport:
    """The recovered cost of a pipeline under a fault plan."""

    workload: str
    plan: str
    baseline_time: float
    stages: Tuple[StageRecovery, ...] = field(default_factory=tuple)
    total_time: float = 0.0

    @property
    def overhead_factor(self) -> float:
        if self.baseline_time <= 0:
            return 1.0
        return self.total_time / self.baseline_time

    def to_json(self) -> str:
        record = asdict(self)
        return json.dumps(record, sort_keys=True)

    def describe(self) -> str:
        lines = [
            f"pipeline {self.workload} under [{self.plan}]: "
            f"{self.total_time:.4f}s vs fault-free "
            f"{self.baseline_time:.4f}s ({self.overhead_factor:.2f}x)"
        ]
        for s in self.stages:
            marker = " (re-tuned)" if s.retuned else ""
            lines.append(
                f"  stage {s.stage:<12s} @{s.nodes} nodes "
                f"{s.stage_time:8.4f}s, handoff {s.handoff_time:.4f}s"
                + marker
            )
            if s.recovery is not None and s.recovery.failed:
                for line in s.recovery.describe().splitlines():
                    lines.append("    " + line)
        return "\n".join(lines)


def replan_pipeline(
    pipeline,
    decisions: Dict[str, Decision],
    params: MachineParams = LASSEN,
    *,
    fault_plan: FaultPlan,
    strategy: str = "auto",
    jobs: int = 1,
    seed: int = 0,
    max_dims: int = 3,
    timeout_s: Optional[float] = None,
    workload: str = "pipeline",
) -> PipelineRecoveryReport:
    """Walk a pipeline through its fault plan, replanning as events hit.

    Stages execute in topological order on a *current* cluster that
    changes along the way: a :class:`~repro.faults.events.Resize`
    before a stage regrids to the requested node count, and a
    :class:`~repro.faults.events.KillNode` scoped to a stage shrinks it
    by one node mid-stage (handled by :func:`replan_kernel`). After
    either event, downstream stages whose decision no longer matches
    the machine are re-tuned warm-started from their pre-event
    decisions, and intermediates are migrated between grids through
    :func:`redistribution_trace` priced on the union cluster.
    """
    from repro.tuner.search import tune  # local: import cycle

    memory = pipeline.cluster.default_memory
    baseline = (
        pipeline.schedule_with(decisions, memory=memory)
        .simulate(params)
        .total_time
    )

    current = pipeline.cluster
    #: tensor -> (format, grid shape, cluster it lives on)
    layouts: Dict[str, Tuple[object, Tuple[int, ...], Cluster]] = {}
    outcomes: List[StageRecovery] = []
    total = 0.0
    for stage in pipeline.stages:
        resize = fault_plan.resize_before(stage.name)
        if resize is not None and resize.nodes != current.num_nodes:
            current = current.resized(resize.nodes)
        decision = decisions[stage.name]
        retuned = False
        if math.prod(decision.grid) != current.num_processors:
            result = tune(
                copy.deepcopy(stage.assignment),
                current,
                params,
                memory=memory,
                strategy=strategy,
                jobs=jobs,
                seed=seed,
                max_dims=max_dims,
                timeout_s=timeout_s,
                warm_start=decision,
            )
            decision = result.decision
            retuned = True
        machine = Machine(current, Grid(*decision.grid))
        work = copy.deepcopy(stage.assignment)
        schedule, formats = realize(work, machine, decision, memory=memory)
        kernel = compile_kernel(schedule, machine)

        # Handoffs: every upstream intermediate this stage reads moves
        # from the layout its producer left into this stage's expected
        # layout. When the grids live on different-sized clusters
        # (regrid or post-failure), both endpoints are replayed on the
        # union cluster — row-major prefix placement puts each grid on
        # the nodes it actually uses.
        handoff_bytes = 0
        handoff_time = 0.0
        for name in stage.inputs:
            if name not in layouts:
                continue
            src_fmt, src_grid, src_cluster = layouts[name]
            dst_fmt = formats[name]
            union = (
                src_cluster
                if src_cluster.num_nodes >= current.num_nodes
                else current
            )
            src_m = Machine(union, Grid(*src_grid))
            dst_m = Machine(union, Grid(*decision.grid))
            if src_cluster is current and formats_equivalent(
                src_fmt, src_m, dst_fmt, dst_m
            ):
                continue
            tensor = next(
                t for t in work.tensors() if t.name == name
            )
            trace = redistribution_trace(
                tensor, src_fmt, src_m, dst_fmt, dst_m
            )
            handoff_bytes += trace.total_copy_bytes
            handoff_time += CostModel(union, params).time_trace(
                trace
            ).total_time

        kill = fault_plan.kill_for(stage.name)
        recovery = None
        if kill is not None:
            # Re-scope the kill as a single-kernel plan (stage=None) so
            # the executor's unscoped lookup finds it.
            stage_plan = FaultPlan(
                events=(KillNode(phase=kill.phase, node=kill.node),),
                seed=fault_plan.seed,
            )
            recovery = replan_kernel(
                stage.assignment,
                current,
                params,
                decision=decision,
                fault_plan=stage_plan,
                memory=memory,
                strategy=strategy,
                jobs=jobs,
                seed=seed,
                max_dims=max_dims,
                timeout_s=timeout_s,
                workload=stage.name,
            )
            stage_time = recovery.total_time
            if recovery.failed:
                current = current.resized(current.num_nodes - 1)
                decision = Decision.decode(recovery.retuned_decision)
                retuned = True
                # The stage's output materializes in the re-tuned
                # layout on the surviving cluster.
                re_work = copy.deepcopy(stage.assignment)
                re_machine = Machine(current, Grid(*decision.grid))
                _sched, formats = realize(
                    re_work, re_machine, decision, memory=memory
                )
        else:
            stage_time = kernel.simulate(params).total_time

        layouts[stage.output] = (
            formats[stage.output], tuple(decision.grid), current
        )
        total += stage_time + handoff_time
        outcomes.append(StageRecovery(
            stage=stage.name,
            nodes=current.num_nodes,
            decision=decision.encode(),
            retuned=retuned,
            stage_time=stage_time,
            handoff_bytes=int(handoff_bytes),
            handoff_time=handoff_time,
            recovery=recovery,
        ))
    return PipelineRecoveryReport(
        workload=workload,
        plan=fault_plan.encode(),
        baseline_time=baseline,
        stages=tuple(outcomes),
        total_time=total,
    )
