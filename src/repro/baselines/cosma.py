"""COSMA baseline: the authors' reference implementation, modelled.

COSMA (Kwasniewski et al. 2019) pairs a communication-optimal
decomposition with a heavily tuned implementation. The behaviours the
paper measures, which this model reproduces:

* grid + step counts from the red-blue-pebbling optimizer
  (:mod:`repro.algorithms.cosma_grid` — the same one DISTAL's COSMA
  schedule uses);
* matmul-specialized broadcast/reduce collectives (lower effective
  collective cost than a generic runtime's);
* full use of all CPU cores (no task-runtime core tax), with a
  "restricted CPUs" variant pinned to DISTAL's 36 worker cores
  (Figure 15a);
* on GPU clusters, matrices stay in *host* memory and an out-of-core
  GEMM streams tiles over PCIe (Section 7.1.2): half the single-node
  throughput of framebuffer-resident DISTAL, but full-rate NIC transfers
  and no framebuffer OOM at scale.
"""

from __future__ import annotations

from repro.algorithms.matmul import cosma as distal_cosma
from repro.machine.cluster import Cluster, MemoryKind
from repro.sim.params import COSMA_PARAMS, COSMA_RESTRICTED_PARAMS
from repro.sim.report import SimReport


def cosma_reference_matmul(
    cluster: Cluster,
    n: int,
    restricted_cpus: bool = False,
) -> SimReport:
    """Simulate the reference COSMA on ``n x n`` matrices.

    On GPU clusters, data is host-resident (``MemoryKind.SYSTEM_MEM``):
    inter-node copies run at the full NIC rate and the GEMM pays PCIe
    staging, matching the paper's description of the author
    implementation. ``restricted_cpus`` models the Figure 15a run pinned
    to 36 of 40 cores (:data:`~repro.sim.params.COSMA_RESTRICTED_PARAMS`
    instead of :data:`~repro.sim.params.COSMA_PARAMS`).
    """
    params = COSMA_RESTRICTED_PARAMS if restricted_cpus else COSMA_PARAMS
    # Host-resident data even on GPU machines: out-of-core execution.
    kernel = distal_cosma(cluster, n, memory=MemoryKind.SYSTEM_MEM)
    return kernel.simulate(params)
