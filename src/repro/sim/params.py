"""Machine performance parameters, calibrated to Lassen (Section 7).

Numbers are drawn from the paper and public V100/Power9 specifications:

* Lassen CPU nodes sustain ~700-760 GFLOP/s of dense DGEMM across both
  sockets (Figure 15a's peak-utilization line).
* One V100 sustains ~7 TFLOP/s FP64 GEMM; four per node give Figure 15b's
  ~28 TFLOP/s peak line.
* The node NIC (EDR InfiniBand) moves 25 GB/s from system memory but only
  18 GB/s when data resides in GPU framebuffers — the Legion DMA
  limitation the paper calls out explicitly in Section 7.1.2.
* NVLink 2.0 provides tens of GB/s between GPU pairs inside a node.
* DISTAL dedicates 4 of 40 cores per node to the Legion runtime, a 10%
  CPU tax (the "COSMA (Restricted CPUs)" comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

#: Knobs that may be zero; every other numeric knob (bandwidths,
#: throughputs, efficiencies, the core fraction, the relay factor)
#: divides or scales a cost and must be positive.
_MAY_BE_ZERO = ("latency", "task_overhead")


@dataclass(frozen=True)
class MachineParams:
    """Cost-model knobs. All bandwidths in bytes/s, rates in FLOP/s.

    Construction raises :class:`ValueError` on a non-finite knob, a
    negative ``latency`` or ``task_overhead``, or any other knob that is
    not positive.
    """

    # Compute throughput.
    cpu_socket_gflops: float = 380e9
    gpu_gflops: float = 7000e9
    gemm_efficiency: float = 0.93
    naive_leaf_efficiency: float = 0.40
    cpu_mem_bw: float = 135e9
    gpu_mem_bw: float = 780e9

    # Interconnect.
    nic_bw: float = 25e9
    nic_bw_gpu_direct: float = 18e9
    nvlink_bw: float = 60e9
    pcie_bw: float = 14e9
    latency: float = 4e-6
    task_overhead: float = 12e-6

    # Collective modelling: a tree broadcast relays through receivers, so
    # the source's link carries at most this multiple of the payload.
    bcast_relay_factor: float = 2.0
    # Collectives tuned specifically for GEMM (COSMA's advantage) reduce
    # effective broadcast traffic; 1.0 = generic runtime collectives.
    collective_efficiency: float = 1.0

    # Out-of-core GEMM (host-resident data computed on a GPU, e.g.
    # COSMA's implementation) sustains about half of the resident rate —
    # the paper measures exactly a 2x single-node gap (Section 7.1.2).
    out_of_core_efficiency: float = 0.5

    # Runtime behaviour.
    overlap: bool = True
    runtime_core_fraction: float = 0.9  # 36 of 40 cores compute (DISTAL)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                continue
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name in _MAY_BE_ZERO:
                if value < 0:
                    raise ValueError(
                        f"{f.name} must be non-negative, got {value!r}"
                    )
            elif value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")

    def with_(self, **kwargs) -> "MachineParams":
        """A copy with some knobs replaced."""
        return replace(self, **kwargs)


LASSEN = MachineParams()

# Baseline-system parameter variants (Section 7 comparison targets).

# COSMA: no task runtime tax, tuned GEMM collectives, full overlap.
COSMA_PARAMS = LASSEN.with_(
    runtime_core_fraction=1.0,
    collective_efficiency=0.72,
    task_overhead=2e-6,
)

# COSMA restricted to DISTAL's 36 worker cores (Figure 15a).
COSMA_RESTRICTED_PARAMS = COSMA_PARAMS.with_(runtime_core_fraction=0.9)

# ScaLAPACK: MPI ranks with blocking collectives — no overlap — and the
# library's characteristic fraction of DGEMM peak (4 ranks per node split
# the node problem into small per-rank tiles; PDGEMM sustains ~70% of the
# node's GEMM rate in practice).
SCALAPACK_PARAMS = LASSEN.with_(
    runtime_core_fraction=1.0,
    overlap=False,
    gemm_efficiency=0.70,
    task_overhead=2e-6,
)

# CTF: rank-per-socket/4-rank execution, blocking collectives, generic
# element-wise leaves far below a fused kernel's throughput.
CTF_PARAMS = LASSEN.with_(
    runtime_core_fraction=1.0,
    overlap=False,
    gemm_efficiency=0.68,
    naive_leaf_efficiency=0.22,
    # Generic cyclic-layout element-wise kernels stream at a fraction of
    # a fused kernel's bandwidth (extra index arithmetic and packing).
    cpu_mem_bw=100e9,
    gpu_mem_bw=580e9,
    task_overhead=2e-6,
)
