"""One-call analysis of a compiled kernel (``Kernel.analyze()``).

Bundles the passes that apply to a *compiled* kernel — the trace
sanitizer and the communication lower bound — with the simulated
traffic they certify. (Legality and memory bounds act on decision
vectors; see :mod:`repro.analysis.legality` / ``membound``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.commbound import CommBound, comm_lower_bound
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.sanitizer import sanitize_trace
from repro.sim.params import LASSEN


@dataclass
class AnalysisReport:
    """What the analyzer can prove about one compiled kernel."""

    #: Trace-sanitizer findings (empty for a consistent execution).
    findings: List[Diagnostic]
    #: Schedule-independent communication lower bound.
    comm: CommBound
    #: Simulated cross-node traffic of *this* schedule.
    inter_node_bytes: float
    #: ``inter_node_bytes`` (averaged per node) over the bound — the
    #: "within X× of the lower bound" number; ``None`` when the bound
    #: is vacuous (everything fits locally).
    comm_certificate: Optional[float]
    #: Observed per-memory high-water marks from the symbolic run.
    memory_high_water: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        lines = []
        if self.findings:
            lines.append(f"{len(self.findings)} sanitizer finding(s):")
            lines.extend(f"  {d}" for d in self.findings)
        else:
            lines.append("trace sanitizer: clean")
        lines.append(self.comm.describe())
        mib = 1024 * 1024
        lines.append(
            f"simulated cross-node traffic: "
            f"{self.inter_node_bytes / mib:.2f} MiB"
        )
        if self.comm_certificate is not None:
            lines.append(
                f"certified within {self.comm_certificate:.2f}x of the "
                "communication lower bound"
            )
        return "\n".join(lines)


def analyze_kernel(kernel) -> AnalysisReport:
    """Sanitize one full symbolic execution (no capacity checks) and
    certify its traffic, priced under :data:`~repro.sim.params.LASSEN`."""
    from repro.sim.costmodel import CostModel

    result = kernel.trace(check_capacity=False, mode="batched")
    findings = sanitize_trace(kernel.plan, result.trace)
    cluster = kernel.machine.cluster
    report = CostModel(cluster, LASSEN).time_trace(result.trace)
    comm = comm_lower_bound(kernel.assignment, cluster, LASSEN)
    return AnalysisReport(
        findings=findings,
        comm=comm,
        inter_node_bytes=report.inter_node_bytes,
        comm_certificate=comm.certificate(report.inter_node_bytes),
        memory_high_water=dict(result.memory_high_water),
    )
