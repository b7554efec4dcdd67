"""Acceptance benchmark: tuning the Fig. 9 matmul at 512 nodes.

The tuner must search the 512-node (1024-processor) schedule space
through the shared parallel oracle inside the suite's 240 s budget and
return a schedule that

* costs no more than the Cannon reference schedule
  (:func:`repro.algorithms.matmul.cannon`), and
* strictly beats the one-shot heuristic — node memory is sized so the
  heuristic's replicated row/column panels OOM at this scale, the
  regime automatic schedule selection exists for;
* is an ordinary :class:`Schedule` + formats that replay
  byte-identically from the winning decision vector.
"""

import os
import time

import pytest

from repro.algorithms.matmul import cannon
from repro.bench.cache import SIM_CACHE
from repro.bench.weak_scaling import square_grid, weak_matrix_size
from repro.core.kernel import Kernel, compile_kernel
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN
from repro.tuner.space import realize
from repro.tuner.workloads import matmul
from repro.util.errors import OutOfMemoryError

NODES = 512
#: Node memory sized so fully tiled layouts fit with room to spare but
#: the heuristic's replicated panels (~35 GB/node at this scale) OOM.
MEM_GIB = 16
JOBS = int(os.environ.get("REPRO_TUNE_JOBS", "8"))
BUDGET_S = float(os.environ.get("REPRO_BENCH_BUDGET_S", "240"))


@pytest.fixture(scope="module")
def tuned():
    cluster = Cluster.cpu_cluster(NODES, system_mem_gib=MEM_GIB)
    n = weak_matrix_size(8192, NODES)
    start = time.monotonic()
    result = Kernel.tune(
        matmul(n),
        cluster,
        LASSEN,
        jobs=JOBS,
    )
    wall = time.monotonic() - start
    return cluster, n, result, wall


def test_space_searched_within_budget(tuned):
    _cluster, _n, result, wall = tuned
    assert result.search.space_size > 900  # the 512-node space
    assert wall < BUDGET_S, (
        f"tuning took {wall:.1f}s, budget {BUDGET_S:.0f}s"
    )
    print(
        f"\n512-node tune: {result.search.space_size} candidates, "
        f"{result.search.evaluations} simulations, {wall:.1f}s wall"
    )
    print(result.search.describe())


def test_beats_heuristic_and_matches_cannon(tuned):
    cluster, n, result, _wall = tuned
    # The heuristic OOMs at this scale: the tuner strictly improves.
    assert not result.search.seed_outcome.feasible
    assert result.search.best.feasible
    assert result.search.improved

    # Cross-check the OOM against the real heuristic compile.
    grid = square_grid(cluster.num_processors)
    heuristic = Kernel.autoschedule(
        matmul(n), Machine(cluster, Grid(*grid))
    )
    with pytest.raises(OutOfMemoryError):
        SIM_CACHE.simulate(heuristic, LASSEN)

    # ... and costs no more than the Cannon reference schedule.
    reference = cannon(Machine(cluster, Grid(*grid)), n)
    cannon_report = SIM_CACHE.simulate(reference, LASSEN)
    assert result.report.total_time <= cannon_report.total_time * (
        1 + 1e-9
    )
    print(
        f"\ncannon {cannon_report.total_time:.4f}s vs "
        f"tuned {result.report.total_time:.4f}s "
        f"({result.decision.encode()})"
    )


def test_result_replays_byte_identically(tuned):
    _cluster, n, result, _wall = tuned
    replay_stmt = matmul(n)
    sched, fmts = realize(replay_stmt, result.machine, result.decision)
    plan = compile_kernel(sched, result.machine).plan.pretty()
    assert plan == result.kernel.plan.pretty()
    assert {name: f.notation() for name, f in fmts.items()} == {
        name: f.notation() for name, f in result.formats.items()
    }
