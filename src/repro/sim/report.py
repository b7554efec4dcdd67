"""Simulation reports: the units the paper's figures plot.

Besides the scalar :class:`SimReport`, this module defines the
structured per-phase attribution the observability layer exports:
:class:`PhaseCost` (one bulk-synchronous phase's priced breakdown) and
:class:`PhaseBreakdown` (the whole timeline). Both are derived from the
already-priced skeleton columns — requesting a breakdown never changes
a single ``SimReport`` number, and the ``breakdown`` field is excluded
from equality so the orbit parity suite's byte-identical pin is
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class PhaseCost:
    """One priced bulk-synchronous phase of a simulated execution.

    ``class_times`` attributes compute to node classes: one ``(proc_id,
    count, seconds)`` triple per work entry, where ``proc_id`` is the
    class representative's processor and ``count`` the orbit
    multiplicity (1 everywhere in uncompressed traces).
    """

    index: int
    label: str
    comm_s: float
    compute_s: float
    overhead_s: float
    total_s: float
    copy_bytes: int
    inter_node_bytes: int
    flops: float
    class_times: Tuple[Tuple[int, int, float], ...] = ()

    @property
    def dominant(self) -> str:
        """Which resource bounds the phase: comm/compute/overhead."""
        parts = (
            (self.comm_s, "comm"),
            (self.compute_s, "compute"),
            (self.overhead_s, "overhead"),
        )
        return max(parts, key=lambda p: p[0])[1]


@dataclass(frozen=True)
class PhaseBreakdown:
    """The per-phase cost timeline behind one :class:`SimReport`.

    Phase totals reproduce the report's aggregates exactly (same
    floats, same summation order); exporters
    (:mod:`repro.obs.export`) turn this into Chrome trace-event JSON.
    """

    phases: Tuple[PhaseCost, ...]

    @property
    def total_s(self) -> float:
        return sum(p.total_s for p in self.phases)

    def dominated_by(self, resource: str) -> Tuple[PhaseCost, ...]:
        return tuple(p for p in self.phases if p.dominant == resource)

    def top(self, n: int = 5) -> Tuple[PhaseCost, ...]:
        """The ``n`` most expensive phases, by total time."""
        return tuple(
            sorted(self.phases, key=lambda p: -p.total_s)[:n]
        )


@dataclass
class SimReport:
    """Timing and traffic summary of one simulated kernel execution.

    The evaluation's figures plot per-node rates: GFLOP/s per node for
    compute-bound kernels (Figures 15, 16c, 16d) and GB/s per node for
    bandwidth-bound ones (Figures 16a, 16b).
    """

    total_time: float
    comm_time: float
    compute_time: float
    total_flops: float
    bytes_touched: float
    inter_node_bytes: float
    total_copy_bytes: float
    num_nodes: int
    memory_high_water: Dict[str, int] = field(default_factory=dict)
    # Number of bulk-synchronous phases executed. Drives the expected-
    # cost tuning objective: failure exposure and checkpoint overhead
    # both scale with the phase count.
    num_steps: int = 0
    # Optional per-phase attribution (requested via
    # ``SkeletonAccumulator(..., breakdown=True)``). Excluded from
    # equality and repr: two reports of the same steps are equal
    # whether or not either carries the breakdown.
    breakdown: Optional[PhaseBreakdown] = field(
        default=None, compare=False, repr=False
    )

    @property
    def gflops_per_node(self) -> float:
        """GFLOP/s per node (Figures 15a/15b, 16c, 16d)."""
        if self.total_time <= 0:
            return 0.0
        return self.total_flops / self.total_time / self.num_nodes / 1e9

    @property
    def gbytes_per_node(self) -> float:
        """GB/s of tensor data processed per node (Figures 16a, 16b)."""
        if self.total_time <= 0:
            return 0.0
        return self.bytes_touched / self.total_time / self.num_nodes / 1e9

    @property
    def max_memory_bytes(self) -> int:
        """Largest high-water mark across memories."""
        if not self.memory_high_water:
            return 0
        return max(self.memory_high_water.values())

    def __repr__(self) -> str:
        return (
            f"SimReport(t={self.total_time:.4f}s, "
            f"{self.gflops_per_node:.1f} GF/s/node, "
            f"{self.gbytes_per_node:.1f} GB/s/node, "
            f"comm={self.comm_time:.4f}s)"
        )
