"""Trace analysis: classify and summarize communication patterns.

The paper's evaluation discussion reasons about *why* algorithms behave
as they do — systolic vs broadcast traffic, collective fan-outs, 2-D vs
3-D volume, replication memory. This module extracts those
characterizations from execution traces so benchmarks, tests and users
can make the same arguments quantitatively.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.machine.machine import Machine
from repro.runtime.trace import Trace


@dataclass
class StepSummary:
    """Communication character of one lockstep phase."""

    label: str
    copies: int
    nbytes: int
    inter_node_bytes: int
    max_fanout: int
    max_shift: int
    reductions: int


@dataclass
class TraceSummary:
    """Whole-trace communication characterization."""

    steps: List[StepSummary] = field(default_factory=list)
    total_bytes: int = 0
    inter_node_bytes: int = 0
    reduction_bytes: int = 0

    @property
    def pattern(self) -> str:
        """Dominant pattern: systolic / broadcast / mixed / none.

        Classified over steady-state phases (the first communication
        phase is excluded: systolic algorithms begin with an alignment
        shift of unbounded distance, Figure 11).
        """
        steady = [s for s in self.steps if s.copies][1:]
        if not steady:
            return "none"
        shifts = [s for s in steady if s.max_shift <= 1 and s.max_fanout <= 1]
        casts = [s for s in steady if s.max_fanout > 1]
        if len(shifts) == len(steady):
            return "systolic"
        if len(casts) == len(steady):
            return "broadcast"
        return "mixed"

    @property
    def comm_phases(self) -> int:
        return sum(1 for s in self.steps if s.copies)


def summarize(trace: Trace, machine: Machine) -> TraceSummary:
    """Characterize a trace's communication structure.

    Works on full traces and on orbit-compressed ones: a compressed
    step's fan-outs come from its pinned per-member collective columns
    (a class representative's coordinates alone cannot attribute
    fan-out), while the shift distance — translation-invariant across a
    class — comes from the representatives.
    """
    summary = TraceSummary()
    for step in trace.steps:
        compressed = any(c.count > 1 for c in step.copies)
        fanout = Counter()
        max_shift = 0
        reductions = 0
        nbytes = 0
        inter = 0
        for copy in step.copies:
            nbytes += copy.nbytes * copy.count
            if copy.inter_node:
                inter += copy.nbytes * copy.count
            if copy.reduce:
                reductions += copy.count
                summary.reduction_bytes += copy.nbytes * copy.count
                continue
            if not compressed:
                fanout[(copy.tensor, copy.src_coords)] += 1
            if copy.src_coords and copy.dst_coords:
                max_shift = max(
                    max_shift,
                    machine.torus_distance(copy.src_coords, copy.dst_coords),
                )
        if compressed:
            cols = step.columns()
            if cols.n:
                fanout = Counter(cols.group[~cols.reduce].tolist())
        summary.steps.append(
            StepSummary(
                label=step.label,
                copies=sum(c.count for c in step.copies),
                nbytes=nbytes,
                inter_node_bytes=inter,
                max_fanout=max(fanout.values()) if fanout else 0,
                max_shift=max_shift,
                reductions=reductions,
            )
        )
        summary.total_bytes += nbytes
        summary.inter_node_bytes += inter
    return summary


def per_tensor_bytes(trace: Trace) -> Dict[str, int]:
    """Bytes moved per tensor (which operand dominates traffic?)."""
    out: Dict[str, int] = defaultdict(int)
    for copy in trace.copies:
        out[copy.tensor] += copy.nbytes * copy.count
    return dict(out)


def node_traffic_matrix(trace: Trace) -> Dict[Tuple[int, int], int]:
    """Bytes between node pairs — the paper's Figure 9 icon data.

    Orbit-compressed steps are read through their pinned per-member
    columns: the members of a class span many node pairs, which a
    single representative record cannot attribute.
    """
    out: Dict[Tuple[int, int], int] = defaultdict(int)
    for step in trace.steps:
        if any(c.count > 1 for c in step.copies):
            cols = step.columns()
            sel = cols.inter
            for src, dst, nbytes in zip(
                cols.src_node[sel].tolist(),
                cols.dst_node[sel].tolist(),
                cols.nbytes[sel].tolist(),
            ):
                out[(src, dst)] += nbytes
            continue
        for copy in step.copies:
            src, dst = copy.src_proc.node_id, copy.dst_proc.node_id
            if src != dst:
                out[(src, dst)] += copy.nbytes * copy.count
    return dict(out)


def communication_report(trace: Trace, machine: Machine) -> str:
    """A human-readable communication report for a kernel execution."""
    summary = summarize(trace, machine)
    tensors = per_tensor_bytes(trace)
    lines = [
        f"pattern       : {summary.pattern}",
        f"comm phases   : {summary.comm_phases}",
        f"total bytes   : {summary.total_bytes:,}",
        f"inter-node    : {summary.inter_node_bytes:,}",
        f"reduced bytes : {summary.reduction_bytes:,}",
    ]
    for name, nbytes in sorted(tensors.items()):
        lines.append(f"  {name:<12s}: {nbytes:,} bytes")
    return "\n".join(lines)
