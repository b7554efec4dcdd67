"""Pass 3: per-kernel communication lower bounds.

Bounds the bytes the *busiest* node must ingest, independent of the
schedule chosen — the certificate behind "the tuned schedule is within
X× of the lower bound".

Two families, both conditioned on ``local_bytes`` (``L``) — the data a
node may hold without communicating. By default ``L`` is the node's
memory capacity, which makes the bound sound against *any* schedule
this runtime can express (home replicas materialize for free at t=0,
but never beyond capacity). Passing the analyzer's home-byte count for
a concrete decision instead yields the tighter format-conditioned
certificate used in reports.

* **Volume bound** (any kernel): of ``I`` iteration points some node
  executes ``V >= I/nodes``. A dense operand ``T`` whose index set is a
  subset of the iteration variables is touched by exactly ``I/|T|``
  points per element, so those ``V`` points touch at least
  ``V * |T| / I`` distinct elements of ``T``; summed over operands and
  less the ``L`` bytes already local, the rest must arrive over the
  NIC.
* **Irony–Toledo–Tiskin / Loomis–Whitney bound** (matmul-like kernels:
  three index variables, three rank-2 operands): a node performing
  ``V`` multiply-adds with ``M`` words of memory moves at least
  ``V / (2 * sqrt(2 * M)) - M`` words (ITT Theorem 3.1); without the
  memory segmentation, Loomis–Whitney already forces it to touch
  ``3 * V^(2/3)`` operand elements.

The per-node bound divides by the NIC bandwidth for a makespan lower
bound: the busiest node's ingress cannot be overlapped below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster
from repro.sim.params import LASSEN, MachineParams


@dataclass(frozen=True)
class CommBound:
    """Communication lower bound for one kernel on one cluster."""

    model: str
    per_node_bytes: int
    time_s: float
    iterations_per_node: int
    local_bytes: int
    num_nodes: int

    def certificate(self, inter_node_bytes: int) -> Optional[float]:
        """Observed-average-node traffic over the bound (the "within X×"
        number), or ``None`` when the bound is vacuous (0)."""
        if self.per_node_bytes <= 0 or self.num_nodes <= 0:
            return None
        return (inter_node_bytes / self.num_nodes) / self.per_node_bytes

    def describe(self) -> str:
        mib = 1024 * 1024
        return (
            f"comm lower bound ({self.model}): "
            f">= {self.per_node_bytes / mib:.2f} MiB into the busiest "
            f"node (>= {self.time_s * 1e3:.3f} ms at the NIC)"
        )


def comm_lower_bound(
    assignment: Assignment,
    cluster: Cluster,
    params: MachineParams = LASSEN,
    local_bytes: Optional[int] = None,
) -> CommBound:
    """Lower-bound the busiest node's NIC ingress for ``assignment``.

    ``local_bytes`` defaults to the smaller of the node's system-memory
    capacity and the operands' total size.
    """
    nodes = max(1, cluster.num_nodes)
    domains = assignment.domains()
    extents = [e for e in domains.values() if e is not None]
    if len(extents) != len(domains) or not extents:
        return CommBound("volume", 0, 0.0, 0, 0, nodes)
    total_iters = math.prod(extents)
    per_node_iters = -(-total_iters // nodes)  # ceil
    tensors = assignment.tensors()
    itemsize = min(t.itemsize for t in tensors)

    if local_bytes is None:
        local_bytes = min(
            cluster.system_mem_capacity, sum(t.nbytes for t in tensors)
        )

    # Volume bound: distinct operand bytes the busiest node touches.
    touched = 0.0
    for tensor in tensors:
        size = max(1, tensor.nbytes // tensor.itemsize)
        touched += per_node_iters * size / total_iters * tensor.itemsize
    per_node = max(0, math.floor(touched) - local_bytes)
    model = "volume"

    if _matmul_like(assignment):
        words = max(1, local_bytes // itemsize)
        itt = (
            per_node_iters / (2.0 * math.sqrt(2.0 * words)) - words
        ) * itemsize
        lw = 3.0 * per_node_iters ** (2.0 / 3.0) * itemsize - local_bytes
        best = max(itt, lw)
        if best > per_node:
            per_node = math.floor(best)
            model = "itt-loomis-whitney"

    return CommBound(
        model=model,
        per_node_bytes=per_node,
        time_s=per_node / params.nic_bw,
        iterations_per_node=per_node_iters,
        local_bytes=local_bytes,
        num_nodes=nodes,
    )


def _matmul_like(assignment: Assignment) -> bool:
    """Three index variables, three distinct rank-2 dense operands —
    the shape ITT's segment argument applies to."""
    if len(assignment.all_vars) != 3 or not assignment.reduction_vars:
        return False
    tensors = assignment.tensors()
    if len(tensors) != 3:
        return False
    return all(len(a.indices) == 2 for a in assignment.accesses())
