"""Multi-kernel pipelines: DAGs of tensor-algebra stages.

The paper schedules one kernel at a time, but real workloads are chains
— ``(A@B)@C``, TTMc, MTTKRP-then-normalize — where the *output layout*
of one kernel becomes the *input layout* of the next, and the dominant
cost is often the redistribution between kernels. A :class:`Pipeline`
is a DAG of named stages (one :class:`~repro.ir.tensor.Assignment`
each) connected by the tensors they share: a tensor written by one
stage and read by another is an *intermediate* and forms an edge.

Scheduling a pipeline threads formats through the DAG: every stage is
realized from an ordinary tuner decision vector
(:class:`~repro.tuner.space.Decision`), and the producer's realized
output format is compared against each consumer's expected input
format. Where they differ, an explicit redistribution is planned
(:func:`~repro.core.transfer.redistribution_trace`) and priced; where
they agree — or where the consumer is scheduled with a *direct*
handoff, overriding its input format to whatever the producer wrote —
no data moves between the stages at all.

``PipelinePlan.simulate()`` runs every stage through the shared
simulation cache and returns a
:class:`~repro.pipeline.report.PipelineReport`: per-stage reports,
per-handoff costs, and a combined :class:`~repro.sim.report.SimReport`
that is byte-identical to ``Kernel.simulate()`` for single-stage
pipelines.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.kernel import Kernel, compile_kernel
from repro.core.transfer import formats_equivalent
from repro.formats.format import Format
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.pipeline.redistribute import redistribution_report
from repro.pipeline.report import EdgeCost, PipelineReport, StageCost
from repro.scheduling.schedule import Schedule
from repro.sim.params import LASSEN, MachineParams
from repro.tuner.space import Decision, from_heuristic, realize
from repro.util.errors import PipelineError

#: Handoff policies for intermediate tensors.
HANDOFF_REDISTRIBUTE = "redistribute"
HANDOFF_DIRECT = "direct"


class Stage:
    """One pipeline stage: a named tensor-algebra assignment."""

    def __init__(self, name: str, assignment: Assignment):
        if not name:
            raise PipelineError("stage name must be non-empty")
        self.name = name
        self.assignment = assignment
        self.output = assignment.lhs.tensor.name
        seen: List[str] = []
        for access in assignment.rhs.accesses():
            tensor = access.tensor.name
            if tensor not in seen:
                seen.append(tensor)
        if self.output in seen:
            raise PipelineError(
                f"stage {name!r} reads its own output {self.output!r}; "
                f"in-place updates are not part of the pipeline model"
            )
        self.inputs: Tuple[str, ...] = tuple(seen)

    def __repr__(self) -> str:
        return f"Stage({self.name}: {self.assignment!r})"


class PipelineEdge(NamedTuple):
    """One intermediate-tensor handoff between two stages."""

    tensor: str
    producer: str
    consumer: str


StageLike = Union[Stage, Assignment, Tuple[str, Assignment]]


def _as_stage(obj: StageLike) -> Stage:
    if isinstance(obj, Stage):
        return obj
    if isinstance(obj, Assignment):
        return Stage(obj.lhs.tensor.name, obj)
    name, assignment = obj
    return Stage(name, assignment)


class Pipeline:
    """A DAG of kernel stages over a shared cluster.

    Stages may be given as :class:`Stage` objects, bare assignments
    (named after their output tensor), or ``(name, assignment)`` pairs,
    in any order consistent with *some* topological order — the
    constructor sorts them (stably) and rejects cycles, duplicate
    producers, and same-named tensors with mismatched shapes or dtypes.
    """

    def __init__(self, stages: Sequence[StageLike], cluster: Cluster):
        if not stages:
            raise PipelineError("a pipeline needs at least one stage")
        named = [_as_stage(s) for s in stages]
        names = [s.name for s in named]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise PipelineError(f"duplicate stage names {dupes}")
        self.cluster = cluster
        self._check_tensors(named)
        producers: Dict[str, str] = {}
        for stage in named:
            if stage.output in producers:
                raise PipelineError(
                    f"tensor {stage.output!r} is produced by both "
                    f"{producers[stage.output]!r} and {stage.name!r}"
                )
            producers[stage.output] = stage.name
        self.producers = producers
        self.stages: List[Stage] = self._topo_sort(named)
        self.edges: List[PipelineEdge] = [
            PipelineEdge(tensor, producers[tensor], stage.name)
            for stage in self.stages
            for tensor in stage.inputs
            if tensor in producers
        ]
        self.intermediates: Tuple[str, ...] = tuple(
            sorted({e.tensor for e in self.edges})
        )
        self.external_inputs: Tuple[str, ...] = tuple(sorted({
            tensor
            for stage in self.stages
            for tensor in stage.inputs
            if tensor not in producers
        }))

    @staticmethod
    def _check_tensors(stages: Sequence[Stage]):
        seen: Dict[str, TensorVar] = {}
        for stage in stages:
            for tensor in stage.assignment.tensors():
                prior = seen.get(tensor.name)
                if prior is None:
                    seen[tensor.name] = tensor
                elif (
                    prior.shape != tensor.shape
                    or prior.dtype != tensor.dtype
                ):
                    raise PipelineError(
                        f"tensor {tensor.name!r} is {prior.shape}/"
                        f"{prior.dtype} in one stage and {tensor.shape}/"
                        f"{tensor.dtype} in another"
                    )

    def _topo_sort(self, stages: List[Stage]) -> List[Stage]:
        """Stable topological order (Kahn's algorithm over stage deps)."""
        remaining = list(stages)
        ordered: List[Stage] = []
        done: set = set()
        while remaining:
            ready = [
                s for s in remaining
                if all(
                    self.producers[t] in done
                    for t in s.inputs
                    if t in self.producers
                )
            ]
            if not ready:
                cycle = sorted(s.name for s in remaining)
                raise PipelineError(f"pipeline has a cycle among {cycle}")
            for stage in ready:
                ordered.append(stage)
                done.add(stage.name)
                remaining.remove(stage)
        return ordered

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise PipelineError(f"unknown stage {name!r}")

    def consumers_of(self, tensor: str) -> List[str]:
        return [e.consumer for e in self.edges if e.tensor == tensor]

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------

    def autoschedule(self) -> "PipelinePlan":
        """Schedule every stage with the one-shot heuristic.

        Each stage gets the most-balanced grid over its distributable
        variables (the same rule ``Kernel.tune`` seeds with) and the
        cluster's default memory.
        """
        from repro.tuner.search import default_seed_grid

        decisions = {
            stage.name: from_heuristic(
                stage.assignment,
                default_seed_grid(
                    stage.assignment, self.cluster.num_processors
                ),
            )
            for stage in self.stages
        }
        return self.schedule_with(decisions)

    def schedule_with(
        self,
        decisions: Dict[str, Decision],
        memory: Optional[MemoryKind] = None,
        handoffs: Optional[Dict[str, str]] = None,
    ) -> "PipelinePlan":
        """Realize and compile every stage from its decision vector.

        ``handoffs`` maps intermediate tensor names to a policy:
        ``"redistribute"`` (default — the consumer reads its own derived
        format, and a redistribution is planned if the producer wrote a
        different one) or ``"direct"`` (the consumer's input format is
        overridden to the producer's realized output format, so the
        handoff is free by construction; requires both stages to share
        a grid shape).
        """
        memory = memory if memory is not None else self.cluster.default_memory
        handoffs = dict(handoffs or {})
        for tensor, policy in handoffs.items():
            if tensor not in self.intermediates:
                raise PipelineError(
                    f"handoff names {tensor!r}, which is not an "
                    f"intermediate tensor of this pipeline"
                )
            if policy not in (HANDOFF_REDISTRIBUTE, HANDOFF_DIRECT):
                raise PipelineError(
                    f"unknown handoff policy {policy!r} for {tensor!r} "
                    f"(expected 'redistribute' or 'direct')"
                )
        missing = [s.name for s in self.stages if s.name not in decisions]
        if missing:
            raise PipelineError(f"no decision for stages {missing}")

        realized: Dict[str, Tuple[Format, Machine]] = {}
        scheduled: List[ScheduledStage] = []
        for stage in self.stages:
            decision = decisions[stage.name]
            machine = Machine(self.cluster, Grid(*decision.grid))
            overrides: Dict[str, Format] = {}
            for tensor in stage.inputs:
                if handoffs.get(tensor) != HANDOFF_DIRECT:
                    continue
                if tensor not in realized:
                    continue
                fmt, producer_machine = realized[tensor]
                if producer_machine.shape != machine.shape:
                    raise PipelineError(
                        f"direct handoff of {tensor!r} needs matching "
                        f"grids, but the producer uses "
                        f"{producer_machine.shape} and {stage.name!r} "
                        f"uses {machine.shape}"
                    )
                overrides[tensor] = fmt
            # Each stage schedules a private copy of its assignment:
            # stages share TensorVar objects (that is what makes them a
            # pipeline), but a tensor's realized format differs between
            # its producer and its consumers, and compiled plans read
            # ``tensor.format`` at simulation time.
            work = copy.deepcopy(stage.assignment)
            schedule, formats = realize(
                work,
                machine,
                decision,
                memory=memory,
                format_overrides=overrides,
            )
            kernel = compile_kernel(schedule, machine)
            realized[stage.output] = (formats[stage.output], machine)
            scheduled.append(ScheduledStage(
                name=stage.name,
                assignment=work,
                decision=decision,
                machine=machine,
                schedule=schedule,
                formats=formats,
                kernel=kernel,
            ))
        return PipelinePlan(self, scheduled, handoffs)


class ScheduledStage:
    """One realized, compiled pipeline stage."""

    def __init__(
        self,
        name: str,
        assignment: Assignment,
        decision: Decision,
        machine: Machine,
        schedule: Schedule,
        formats: Dict[str, Format],
        kernel: Kernel,
    ):
        self.name = name
        self.assignment = assignment
        self.decision = decision
        self.machine = machine
        self.schedule = schedule
        self.formats = formats
        self.kernel = kernel

    def tensor(self, name: str) -> TensorVar:
        for tensor in self.assignment.tensors():
            if tensor.name == name:
                return tensor
        raise PipelineError(
            f"stage {self.name!r} does not touch tensor {name!r}"
        )


class PipelinePlan:
    """A fully scheduled pipeline: compiled stages plus handoff plan."""

    def __init__(
        self,
        pipeline: Pipeline,
        stages: List[ScheduledStage],
        handoffs: Dict[str, str],
    ):
        self.pipeline = pipeline
        self.stages = stages
        self.handoffs = handoffs
        self._by_name = {s.name: s for s in stages}

    def stage(self, name: str) -> ScheduledStage:
        try:
            return self._by_name[name]
        except KeyError:
            raise PipelineError(f"unknown stage {name!r}") from None

    def handoff_formats(
        self, edge: PipelineEdge
    ) -> Tuple[Format, Machine, Format, Machine]:
        """(producer format+machine, consumer format+machine) of an edge."""
        producer = self.stage(edge.producer)
        consumer = self.stage(edge.consumer)
        return (
            producer.formats[edge.tensor],
            producer.machine,
            consumer.formats[edge.tensor],
            consumer.machine,
        )

    def simulate(self, params: MachineParams = LASSEN) -> PipelineReport:
        """Simulate every stage plus every unmatched handoff.

        Stage simulations go through the shared
        :data:`~repro.bench.cache.SIM_CACHE`; redistribution reports are
        memoized per layout pair. Raises
        :class:`~repro.util.errors.OutOfMemoryError` when any stage
        exceeds capacity.
        """
        from repro.bench.cache import SIM_CACHE

        stage_costs = [
            StageCost(
                name=stage.name,
                report=SIM_CACHE.simulate(stage.kernel, params),
            )
            for stage in self.stages
        ]
        edge_costs = []
        for edge in self.pipeline.edges:
            src_fmt, src_machine, dst_fmt, dst_machine = (
                self.handoff_formats(edge)
            )
            if formats_equivalent(src_fmt, src_machine, dst_fmt, dst_machine):
                edge_costs.append(EdgeCost(
                    tensor=edge.tensor,
                    producer=edge.producer,
                    consumer=edge.consumer,
                    matched=True,
                ))
                continue
            tensor = self.stage(edge.consumer).tensor(edge.tensor)
            report = redistribution_report(
                tensor, src_fmt, src_machine, dst_fmt, dst_machine, params
            )
            edge_costs.append(EdgeCost(
                tensor=edge.tensor,
                producer=edge.producer,
                consumer=edge.consumer,
                matched=False,
                report=report,
            ))
        return PipelineReport.build(
            stage_costs, edge_costs, self.pipeline.cluster.num_nodes
        )

    def pretty(self) -> str:
        """Readable pseudocode of every stage's distributed program."""
        blocks = []
        for stage in self.stages:
            blocks.append(
                f"== stage {stage.name} "
                f"({stage.decision.describe()}) ==\n"
                + stage.kernel.pretty()
            )
        return "\n\n".join(blocks)
