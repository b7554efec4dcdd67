"""ScaLAPACK baseline: SUMMA with blocking MPI collectives.

ScaLAPACK's PDGEMM implements the SUMMA algorithm over a 2-D
block(-cyclic) process grid. Performance-wise the library differs from a
task-based system in exactly the ways the paper measures (Section 7.1.1):
its broadcasts are blocking (no communication/computation overlap) and it
runs on whatever process grid the processor count factors into —
rectangular grids at non-square counts cause its visible variability.
"""

from __future__ import annotations

from repro.algorithms.matmul import summa
from repro.bench.weak_scaling import square_grid
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.costmodel import CostModel
from repro.sim.params import SCALAPACK_PARAMS, MachineParams
from repro.sim.report import SimReport


def scalapack_matmul(
    cluster: Cluster,
    n: int,
    params: MachineParams = SCALAPACK_PARAMS,
) -> SimReport:
    """Simulate PDGEMM on ``n x n`` matrices over the whole cluster."""
    gx, gy = square_grid(cluster.num_processors)
    machine = Machine(cluster, Grid(gx, gy))
    kernel = summa(machine, n, leaf="blas_gemm")
    trace = kernel.trace(check_capacity=True).trace
    return CostModel(cluster, params).time_trace(trace)
