"""Pipeline simulation reports: per-stage + per-handoff breakdown.

A pipeline executes stage by stage (bulk-synchronous, like the steps
inside one kernel), so its cost is the sum of the per-stage
:class:`~repro.sim.report.SimReport`s plus the cost of every inter-stage
redistribution that actually moves data. The combined report is itself
an ordinary :class:`SimReport` — a single-stage pipeline's combined
report is identical to ``Kernel.simulate()`` on that stage (the parity
contract of ``tests/pipeline/test_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.report import SimReport


@dataclass
class StageCost:
    """One stage's simulated summary."""

    name: str
    report: SimReport


@dataclass
class EdgeCost:
    """One producer→consumer handoff of an intermediate tensor.

    ``matched`` means the consumer reads the exact layout the producer
    wrote (equal distribution notation, grid shape and memory kind) —
    no redistribution is planned and ``report`` is ``None``.
    """

    tensor: str
    producer: str
    consumer: str
    matched: bool
    report: Optional[SimReport] = None

    @property
    def time(self) -> float:
        return 0.0 if self.report is None else self.report.total_time

    @property
    def moved_bytes(self) -> float:
        return 0.0 if self.report is None else self.report.total_copy_bytes


@dataclass
class PipelineReport:
    """Timing breakdown of one simulated pipeline execution."""

    stages: List[StageCost]
    edges: List[EdgeCost]
    combined: SimReport

    @staticmethod
    def build(
        stages: List[StageCost], edges: List[EdgeCost], num_nodes: int
    ) -> "PipelineReport":
        reports = [s.report for s in stages] + [
            e.report for e in edges if e.report is not None
        ]
        high_water: Dict[str, int] = {}
        for report in reports:
            for name, used in report.memory_high_water.items():
                if used > high_water.get(name, 0):
                    high_water[name] = used
        combined = SimReport(
            total_time=sum(r.total_time for r in reports),
            comm_time=sum(r.comm_time for r in reports),
            compute_time=sum(r.compute_time for r in reports),
            total_flops=sum(r.total_flops for r in reports),
            bytes_touched=sum(r.bytes_touched for r in reports),
            inter_node_bytes=sum(r.inter_node_bytes for r in reports),
            total_copy_bytes=sum(r.total_copy_bytes for r in reports),
            num_nodes=num_nodes,
            memory_high_water=high_water,
            num_steps=sum(r.num_steps for r in reports),
        )
        return PipelineReport(stages=stages, edges=edges, combined=combined)

    @property
    def total_time(self) -> float:
        return self.combined.total_time

    @property
    def stage_time(self) -> float:
        return sum(s.report.total_time for s in self.stages)

    @property
    def redistribution_time(self) -> float:
        return sum(e.time for e in self.edges)

    @property
    def redistribution_bytes(self) -> float:
        return sum(e.moved_bytes for e in self.edges)

    def describe(self) -> str:
        lines = [f"pipeline: {self.total_time:.4f}s simulated"]
        for stage in self.stages:
            r = stage.report
            lines.append(
                f"  stage {stage.name:<12s} {r.total_time:8.4f}s "
                f"(comm {r.comm_time:.4f}s, compute {r.compute_time:.4f}s)"
            )
        for edge in self.edges:
            label = f"{edge.tensor}: {edge.producer} -> {edge.consumer}"
            if edge.matched:
                lines.append(f"  handoff {label:<24s} matched (no copies)")
            else:
                gib = edge.moved_bytes / 1024 ** 3
                lines.append(
                    f"  handoff {label:<24s} {edge.time:8.4f}s "
                    f"({gib:.2f} GiB redistributed)"
                )
        return "\n".join(lines)
