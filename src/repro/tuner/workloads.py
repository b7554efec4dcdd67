"""Named tuning workloads (fresh assignments for the CLI and tests).

Each builder returns a *new* :class:`~repro.ir.tensor.Assignment` with
default (undistributed) formats — the tuner derives formats per
candidate, so workloads carry only shapes and structure. Sizes default
to the paper's weak-scaling rule: matrix sides grow with
``sqrt(nodes)``, 3-tensor sides with ``cbrt(nodes)`` (Section 7.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.bench.weak_scaling import weak_cube_side, weak_matrix_size
from repro.ir.expr import index_vars
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind

GIB = 1024 ** 3


def lean_cluster(nodes: int, mem_gib: int = 1) -> Cluster:
    """One-socket CPU nodes with little memory.

    The pipeline demos and acceptance tests all run on this anatomy:
    replication-heavy schedules OOM, so layout choice (and the handoff
    between stages) decides the race rather than raw flops.
    """
    return Cluster.build(
        num_nodes=nodes,
        procs_per_node=1,
        proc_kind=ProcessorKind.CPU_SOCKET,
        proc_mem_kind=MemoryKind.SYSTEM_MEM,
        proc_mem_capacity=mem_gib * GIB,
        system_mem_capacity=mem_gib * GIB,
    )


def matmul(n: int) -> Assignment:
    """Square GEMM ``A(i,j) = B(i,k) C(k,j)`` (Figure 9's workload)."""
    A = TensorVar("A", (n, n))
    B = TensorVar("B", (n, n))
    C = TensorVar("C", (n, n))
    i, j, k = index_vars("i j k")
    return Assignment(A[i, j], B[i, k] * C[k, j])


def matmul_rect(m: int, k: int, n: int) -> Assignment:
    """Rectangular GEMM — small-k problems favour stationary-output
    pull schedules over systolic rotation."""
    A = TensorVar("A", (m, n))
    B = TensorVar("B", (m, k))
    C = TensorVar("C", (k, n))
    i, j, kk = index_vars("i j k")
    return Assignment(A[i, j], B[i, kk] * C[kk, j])


def ttv(n: int) -> Assignment:
    """Tensor-times-vector ``A(i,j) = B(i,j,k) c(k)``."""
    A = TensorVar("A", (n, n))
    B = TensorVar("B", (n, n, n))
    c = TensorVar("c", (n,))
    i, j, k = index_vars("i j k")
    return Assignment(A[i, j], B[i, j, k] * c[k])


def ttm(n: int, r: Optional[int] = None) -> Assignment:
    """Tensor-times-matrix ``A(i,j,l) = B(i,j,k) C(k,l)``."""
    if r is None:
        r = max(16, n // 4)
    A = TensorVar("A", (n, n, r))
    B = TensorVar("B", (n, n, n))
    C = TensorVar("C", (n, r))
    i, j, k, l = index_vars("i j k l")
    return Assignment(A[i, j, l], B[i, j, k] * C[k, l])


def mttkrp(n: int, r: int = 64) -> Assignment:
    """MTTKRP ``A(i,l) = B(i,j,k) C(j,l) D(k,l)``."""
    A = TensorVar("A", (n, r))
    B = TensorVar("B", (n, n, n))
    C = TensorVar("C", (n, r))
    D = TensorVar("D", (n, r))
    i, j, k, l = index_vars("i j k l")
    return Assignment(A[i, l], B[i, j, k] * C[j, l] * D[k, l])


def sized(workload: str, n: int) -> Assignment:
    """A named workload at an explicit side length ``n``.

    Rectangular matmul derives its contraction dimension from ``n``
    (the small-k regime the workload exists to exercise).
    """
    if workload == "matmul-rect":
        return matmul_rect(n, max(256, n // 64), n)
    builder = WORKLOADS.get(workload)
    if builder is None:
        raise ValueError(f"unknown workload {workload!r}")
    return builder(n)


#: One-node sizes the weak-scaling rule grows from: matrix side and
#: 3-tensor side.
MATRIX_BASE = 8192
CUBE_BASE = 512


def weak_scaled(workload: str, nodes: int) -> Assignment:
    """A named workload at the paper's weak-scaled size for ``nodes``."""
    if workload in ("matmul", "matmul-rect"):
        return sized(workload, weak_matrix_size(MATRIX_BASE, nodes))
    return sized(workload, weak_cube_side(CUBE_BASE, nodes))


WORKLOADS: Dict[str, Callable] = {
    "matmul": matmul,
    "matmul-rect": matmul_rect,
    "ttv": ttv,
    "ttm": ttm,
    "mttkrp": mttkrp,
}


# ----------------------------------------------------------------------
# Pipeline workloads: lists of stages sharing intermediate tensors.
# ----------------------------------------------------------------------


def matmul_chain(n: int, r: Optional[int] = None) -> List[Assignment]:
    """``(A@B)@C``: two chained GEMMs through the intermediate ``T``.

    ``r`` is the width of the trailing matrix (default square). A
    narrow tail (``r << n``) is the projection-style chain where the
    two stages prefer *different* grids — the regime where joint
    tuning of the ``T`` handoff pays off.
    """
    if r is None:
        r = n
    A = TensorVar("A", (n, n))
    B = TensorVar("B", (n, n))
    C = TensorVar("C", (n, r))
    T = TensorVar("T", (n, n))
    D = TensorVar("D", (n, r))
    i, j, k, l = index_vars("i j k l")
    return [
        Assignment(T[i, j], A[i, k] * B[k, j]),
        Assignment(D[i, l], T[i, j] * C[j, l]),
    ]


def ttmc(n: int, r: Optional[int] = None) -> List[Assignment]:
    """TTMc: a 3-tensor contracted with two matrices, mode by mode.

    ``T(i,j,l) = B(i,j,k) C(k,l)`` then ``Z(i,m,l) = T(i,j,l) D(j,m)``
    — the Tucker-decomposition building block whose handoff (the dense
    intermediate ``T``) dominates naive implementations.
    """
    if r is None:
        r = max(16, n // 4)
    B = TensorVar("B", (n, n, n))
    C = TensorVar("C", (n, r))
    D = TensorVar("D", (n, r))
    T = TensorVar("T", (n, n, r))
    Z = TensorVar("Z", (n, r, r))
    i, j, k, l, m = index_vars("i j k l m")
    return [
        Assignment(T[i, j, l], B[i, j, k] * C[k, l]),
        Assignment(Z[i, m, l], T[i, j, l] * D[j, m]),
    ]


PIPELINES: Dict[str, Callable] = {
    "chain-matmul": matmul_chain,
    "ttmc": ttmc,
}


def pipeline_stages(name: str, n: int) -> List[Assignment]:
    """A named pipeline workload at an explicit side length ``n``."""
    builder = PIPELINES.get(name)
    if builder is None:
        raise ValueError(f"unknown pipeline workload {name!r}")
    return builder(n)


def weak_scaled_pipeline(name: str, nodes: int) -> List[Assignment]:
    """A named pipeline at the paper's weak-scaled size for ``nodes``."""
    if name == "chain-matmul":
        return pipeline_stages(name, weak_matrix_size(MATRIX_BASE, nodes))
    return pipeline_stages(name, weak_cube_side(CUBE_BASE, nodes))
