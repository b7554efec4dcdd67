"""Cyclops Tensor Framework baseline.

CTF (Solomonik et al. 2014) achieves generality by *folding*: any tensor
contraction is cast into distributed matrix multiplications by grouping
modes, transposing/redistributing the tensors into matrix layouts, running
a hand-tuned matmul (the 2.5-D algorithm), and redistributing results
back. That is exactly the strategy modelled here (Section 8: "CTF casts
tensor contractions into a series of distributed matrix-multiplication
operations and transposes").

Consequences reproduced, per the paper's Section 7.2.2:

* square dense matmul is strong (the native 2.5-D kernel, modulo the
  missing communication/computation overlap);
* TTV collapses past one node — the fold moves the entire 3-tensor
  through the network to perform a bandwidth-bound matvec;
* TTM pays a full redistribution of the 3-tensor;
* MTTKRP needs two folded contractions with a large intermediate;
* Innerprod needs no fold (a pure reduction) and weak-scales flat, just
  slower than a bespoke kernel.

Every kernel below is priced under :data:`~repro.sim.params.CTF_PARAMS`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.algorithms.higher_order import innerprod as distal_innerprod
from repro.algorithms.matmul import solomonik, summa_rect
from repro.bench.weak_scaling import square_grid
from repro.core.kernel import Kernel
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.runtime.trace import Copy, Step
from repro.sim.costmodel import CostModel, SkeletonAccumulator
from repro.sim.params import CTF_PARAMS
from repro.sim.report import SimReport
from repro.util.geometry import Interval, Rect

ITEM = 8  # double precision


# ----------------------------------------------------------------------
# Grid selection.
# ----------------------------------------------------------------------

def best_25d_grid(p: int) -> Tuple[int, int, int]:
    """The largest ``q x q x c`` grid with ``c | q`` and ``q*q*c <= p``.

    CTF virtualizes over whatever processor count it is given; processor
    counts that don't factor nicely leave processors idle — one source of
    its performance variability on non-square machines (Section 7.1.1).
    """
    best = (1, 1, 1)
    best_size = 1
    for c in (1, 2, 4, 8):
        q = int(math.isqrt(p // c)) if p >= c else 0
        while q > 0 and (q * q * c > p or q % c != 0):
            q -= 1
        if q > 0 and q * q * c > best_size:
            best = (q, q, c)
            best_size = q * q * c
    return best


def best_rect_grid(p: int, m: int, n: int) -> Tuple[int, int]:
    """A 2-D grid matched to a rectangular output (gy may be 1)."""
    best = (p, 1)
    best_score = float("inf")
    for gy in range(1, p + 1):
        if p % gy != 0:
            continue
        gx = p // gy
        if gx > m or gy > n:
            continue
        score = abs(math.log((m / gx) / max(n / gy, 1e-9)))
        if score < best_score:
            best_score = score
            best = (gx, gy)
    return best


# ----------------------------------------------------------------------
# Redistribution modelling.
# ----------------------------------------------------------------------

def redistribution_steps(
    cluster: Cluster, total_bytes: float, label: str
) -> List[Step]:
    """Steps modelling an all-to-all tensor redistribution (a CTF fold).

    Every processor exchanges its ``1/p`` share with a distant partner
    (the worst half of an all-to-all crosses the node boundary) and
    repacks it locally. This under-counts a full personalized all-to-all
    slightly and is therefore generous to CTF.
    """
    p = cluster.num_processors
    per_proc = int(total_bytes / p)
    if per_proc <= 0:
        return []
    step = Step(label=label)
    rect = Rect.of(Interval(0, max(per_proc // ITEM, 1)))
    for proc in cluster.processors:
        partner = cluster.processors[
            (proc.proc_id + p // 2) % p if p > 1 else 0
        ]
        if partner.proc_id != proc.proc_id:
            step.copies.append(
                Copy(
                    tensor=f"__redist_{label}__",
                    rect=rect,
                    nbytes=per_proc,
                    src_proc=proc,
                    dst_proc=partner,
                    src_mem=proc.memory,
                    dst_mem=partner.memory,
                )
            )
        # Local repack: read + write each element once.
        work = step.work_for(proc)
        work.add(flops=0.0, bytes_touched=2 * per_proc, kernel=None,
                 parallel=True)
    return [step]


def _compose(cluster: Cluster, *parts) -> SimReport:
    """Time a sequence of kernels / step lists as one execution under
    :data:`~repro.sim.params.CTF_PARAMS`.

    Every part is priced, in order, into one accumulator: step lists
    as they are, kernels streamed through the orbit executor.
    """
    model = CostModel(cluster, CTF_PARAMS)
    acc = SkeletonAccumulator(model)
    high_water: Dict[str, int] = {}
    for part in parts:
        if isinstance(part, Kernel):
            trace = part.trace(mode="orbit", skeleton=acc).trace
            for mem, hw in trace.memory_high_water.items():
                high_water[mem] = max(high_water.get(mem, 0), hw)
        else:
            for step in part:
                acc.add(step)
    return model.price_skeleton(acc, high_water)


# ----------------------------------------------------------------------
# Kernels.
# ----------------------------------------------------------------------

def ctf_matmul(cluster: Cluster, n: int) -> SimReport:
    """CTF's native strength: the 2.5-D matmul, no fold required.

    When the processor count does not factor into a usable ``q x q x c``
    grid, CTF virtualizes down to a 2-D decomposition; we model that as a
    rectangular SUMMA over all processors (the c=1 degenerate case).
    """
    p = cluster.num_processors
    q, q2, c = best_25d_grid(p)
    if q * q2 * c >= 0.75 * p:
        machine = Machine(cluster, Grid(q, q2, c))
        kernel = solomonik(machine, n, leaf="blas_gemm")
    else:
        gx, gy = best_rect_grid(p, n, n)
        machine = Machine(cluster, Grid(gx, gy))
        kernel = summa_rect(
            machine, n, n, n, chunk=max(1, n // 16), leaf="blas_gemm"
        )
    return kernel.simulate(CTF_PARAMS)


def ctf_ttv(cluster: Cluster, n: int) -> SimReport:
    """TTV folded to a distributed matvec.

    ``B(i,j,k) c(k)`` becomes ``Bm((ij), k) @ c(k)``: the whole 3-tensor
    is redistributed into the matmul layout, a bandwidth-bound matvec
    runs, and the (i,j) matrix redistributes back. The redistribution of
    ``n^3`` words is the unnecessary communication the paper describes.
    """
    p = cluster.num_processors
    m_dim = n * n
    gx, gy = best_rect_grid(p, m_dim, 1)
    machine = Machine(cluster, Grid(gx, gy))
    kernel = summa_rect(machine, m_dim, n, 1, chunk=max(1, n // 8), leaf=None)
    pre = redistribution_steps(cluster, float(n) ** 3 * ITEM, "fold-B")
    post = redistribution_steps(cluster, float(n) ** 2 * ITEM, "unfold-A")
    return _compose(cluster, pre, kernel, post)


def ctf_innerprod(cluster: Cluster, n: int) -> SimReport:
    """Innerprod needs no fold: local reductions plus a global tree.

    CTF executes this well (flat weak scaling) but with its generic
    element-wise leaf and blocking collectives.
    """
    gx, gy = square_grid(cluster.num_processors)
    machine = Machine(cluster, Grid(gx, gy))
    return distal_innerprod(machine, n).simulate(CTF_PARAMS)


def ctf_ttm(cluster: Cluster, n: int, r: int) -> SimReport:
    """TTM folded to ``((ij), k) @ (k, l)``: redistribute the 3-tensor
    into matrix layout, one rectangular matmul, fold the result back."""
    p = cluster.num_processors
    m_dim = n * n
    gx, gy = best_rect_grid(p, m_dim, r)
    machine = Machine(cluster, Grid(gx, gy))
    kernel = summa_rect(
        machine, m_dim, n, r, chunk=max(1, n // 8), leaf="blas_gemm"
    )
    pre = redistribution_steps(cluster, float(n) ** 3 * ITEM, "fold-B")
    post = redistribution_steps(cluster, float(n) ** 2 * r * ITEM, "unfold-A")
    return _compose(cluster, pre, kernel, post)


def ctf_mttkrp(cluster: Cluster, n: int, r: int) -> SimReport:
    """MTTKRP as two folded contractions with a large intermediate.

    Stage 1: ``T(i,j,l) = B(i,j,k) D(k,l)`` — a TTM (fold + matmul).
    Stage 2: ``A(i,l) = T(i,j,l) C(j,l)`` — a batched (over l) matvec
    with an element-wise reduction, again through matrix layouts. The
    intermediate ``T`` (``n^2 r`` words) must itself be redistributed.
    """
    p = cluster.num_processors
    m_dim = n * n
    gx, gy = best_rect_grid(p, m_dim, r)
    machine = Machine(cluster, Grid(gx, gy))
    stage1 = summa_rect(
        machine, m_dim, n, r, chunk=max(1, n // 8), leaf="blas_gemm"
    )
    # Stage 2 as a batched matvec: model with a rectangular matmul of the
    # same flop count ((i) x (j) contracted per l slice).
    gx2, gy2 = best_rect_grid(p, n, r)
    machine2 = Machine(cluster, Grid(gx2, gy2))
    stage2 = summa_rect(machine2, n, n, r, chunk=max(1, n // 8), leaf=None)
    pre = redistribution_steps(cluster, float(n) ** 3 * ITEM, "fold-B")
    mid = redistribution_steps(
        cluster, float(n) ** 2 * r * ITEM, "redist-T"
    )
    post = redistribution_steps(cluster, float(n) * r * ITEM, "unfold-A")
    return _compose(cluster, pre, stage1, mid, stage2, post)
