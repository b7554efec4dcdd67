"""Pricing parity at scale: ``CostModel.comm_time`` against the reference.

Usage (from the root of a checkout)::

    PYTHONPATH=src python tests/sim/pricing_parity.py

Traces weak-scaled Cannon, SUMMA and Johnson (8,192-row base) on 1,024
CPU nodes and 256 GPU nodes with the orbit executor, prices every step's
per-member copy columns with ``CostModel.comm_time`` and with the
reference formulation (``reference_pricing.py``), and exits non-zero on
any step whose two prices are not equal. Tier-1 only reaches small
grids; the pricing fast paths matter on large ones.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference_pricing import reference_comm_time  # noqa: E402

from repro.algorithms.matmul import cannon, johnson, summa  # noqa: E402
from repro.bench.weak_scaling import (  # noqa: E402
    cube_grid, square_grid, weak_matrix_size,
)
from repro.machine.cluster import Cluster, MemoryKind  # noqa: E402
from repro.machine.grid import Grid  # noqa: E402
from repro.machine.machine import Machine  # noqa: E402
from repro.sim.costmodel import CostModel  # noqa: E402
from repro.sim.params import LASSEN  # noqa: E402

BASE = 8192
POINTS = ((False, 1024), (True, 256))
KERNELS = {"cannon": cannon, "summa": summa, "johnson": johnson}


def check(name: str, gpu: bool, nodes: int) -> tuple:
    """(steps priced, steps whose prices differ) of one point."""
    cluster = (
        Cluster.gpu_cluster(nodes) if gpu else Cluster.cpu_cluster(nodes)
    )
    p = cluster.num_processors
    grid = cube_grid(p) if name == "johnson" else square_grid(p)
    kernel = KERNELS[name](
        Machine(cluster, Grid(*grid)),
        weak_matrix_size(BASE, nodes),
        memory=MemoryKind.GPU_FB if gpu else MemoryKind.SYSTEM_MEM,
    )
    model = CostModel(cluster, LASSEN)
    steps = kernel.trace(check_capacity=False, mode="orbit").trace.steps
    bad = 0
    for step in steps:
        cols = step.columns()
        got, want = model.comm_time(cols), reference_comm_time(model, cols)
        if got != want:
            bad += 1
            print(f"  {step.label}: {got!r} != {want!r}")
    return len(steps), bad


def main() -> int:
    failed = 0
    for gpu, nodes in POINTS:
        for name in KERNELS:
            steps, bad = check(name, gpu, nodes)
            where = f"{'gpu' if gpu else 'cpu'}{nodes}"
            print(f"{name}@{where}: {steps} steps, {bad} differ")
            failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
