"""Replay parity at scale: the carried replay against ``CarryOff``.

Usage (from the root of a checkout)::

    PYTHONPATH=src python tests/runtime/replay_parity.py

Runs weak-scaled Cannon and SUMMA (8,192-row base) on 1,024 CPU nodes
and 256 GPU nodes twice: with the default orbit executor, which carries
class counts, owners, holders, fetch positions, winners and emission
flags from one phase to the next, and with ``CarryOff``
(``carry_off.py``), which re-derives all of them. Every step's class
representatives and per-member copy columns, the memory high-water
marks and the priced reports must be equal with ``==``; the script
exits non-zero on any difference. Tier-1 only reaches small grids; the
carried quantities matter on large ones.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from carry_off import CarryOff, run_priced  # noqa: E402

from repro.algorithms.matmul import cannon, summa  # noqa: E402
from repro.bench.weak_scaling import (  # noqa: E402
    square_grid, weak_matrix_size,
)
from repro.machine.cluster import Cluster, MemoryKind  # noqa: E402
from repro.machine.grid import Grid  # noqa: E402
from repro.machine.machine import Machine  # noqa: E402
from repro.runtime.orbit import OrbitExecutor  # noqa: E402

BASE = 8192
POINTS = ((False, 1024), (True, 256))
KERNELS = {"cannon": cannon, "summa": summa}
COLUMNS = (
    "n", "num_groups", "nbytes", "src_proc", "dst_proc", "src_node",
    "dst_node", "inter", "reduce", "gpu_resident", "src_gpu", "dst_gpu",
    "group",
)


def differences(on, off) -> list:
    """What differs between two ``run_priced`` outcomes."""
    (_, res_on, rep_on), (_, res_off, rep_off) = on, off
    out = []
    steps_on, steps_off = res_on.trace.steps, res_off.trace.steps
    if len(steps_on) != len(steps_off):
        return [f"{len(steps_on)} steps != {len(steps_off)}"]
    for a, b in zip(steps_on, steps_off):
        if a.copies != b.copies:
            out.append(f"{a.label}: class representatives")
        if (a._columns is None) != (b._columns is None):
            out.append(f"{a.label}: columns on one side only")
            continue
        if a._columns is None:
            continue
        ca, cb = a.columns(), b.columns()
        out += [
            f"{a.label}: {name}" for name in COLUMNS
            if not np.array_equal(getattr(ca, name), getattr(cb, name))
        ]
    if res_on.memory_high_water != res_off.memory_high_water:
        out.append("memory high-water marks")
    if rep_on != rep_off:
        out.append(f"report {rep_on!r} != {rep_off!r}")
    return out


def check(name: str, gpu: bool, nodes: int) -> tuple:
    """(replays, members carried, differences) of one point."""
    cluster = (
        Cluster.gpu_cluster(nodes) if gpu else Cluster.cpu_cluster(nodes)
    )
    kernel = KERNELS[name](
        Machine(cluster, Grid(*square_grid(cluster.num_processors))),
        weak_matrix_size(BASE, nodes),
        memory=MemoryKind.GPU_FB if gpu else MemoryKind.SYSTEM_MEM,
    )
    on = run_priced(OrbitExecutor, kernel)
    off = run_priced(CarryOff, kernel)
    return on[0].phase_replays, on[0].members_carried, differences(on, off)


def main() -> int:
    failed = 0
    for gpu, nodes in POINTS:
        for name in KERNELS:
            replays, carried, bad = check(name, gpu, nodes)
            where = f"{'gpu' if gpu else 'cpu'}{nodes}"
            print(f"{name}@{where}: {replays} replays, {carried} members "
                  f"carried, {len(bad)} differ")
            for line in bad[:10]:
                print(f"  {line}")
            failed += len(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
