"""The paper's evaluation figures (Section 7's plots) as tables, and the
one driver that runs them.

A figure is a :class:`Figure`: a unit, a weak-scaling size law and a
list of :class:`Series`, one per plotted system, each computing its
report at one node count. :func:`sweep` runs a figure over a node axis
and returns rows ``{"system", "nodes", "value", "unit", "note"}`` — one
per plotted point. ``value`` is ``None`` with ``note="OOM"`` where the
paper's corresponding run exhausted memory.

:data:`FIGURES` holds every table: ``gemm`` (Figure 15a on CPUs, 15b on
GPUs), one per higher-order kernel (Figure 16a–d) and ``weak`` (the
Cannon/SUMMA/Johnson GEMM sweeps beyond the paper's axis).

All simulations go through the process-global plan/trace cache
(:mod:`repro.bench.cache`): identical configurations — the same kernel
fingerprint, machine shape, sizes, and cost-model parameters — are
simulated once per process, so overlapping sweeps (e.g.
:func:`headline_speedups` re-running Figure 15a's top node count) cost
one dictionary lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.higher_order import innerprod, mttkrp, ttm, ttv
from repro.algorithms.matmul import (
    cannon,
    cosma,
    johnson,
    pumma,
    solomonik,
    summa,
)
from repro.baselines.cosma import cosma_reference_matmul
from repro.baselines.ctf import (
    ctf_innerprod,
    ctf_matmul,
    ctf_mttkrp,
    ctf_ttm,
    ctf_ttv,
)
from repro.baselines.scalapack import scalapack_matmul
from repro.bench.cache import SIM_CACHE, cached_baseline
from repro.bench.parallel import register_sweep, run_points
from repro.bench.weak_scaling import (
    cube_grid,
    factor3,
    grid_25d,
    square_grid,
    weak_cube_side,
    weak_matrix_size,
)
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN
from repro.sim.report import SimReport
from repro.util.errors import OutOfMemoryError

#: One plotted point of a figure table.
Row = Dict[str, object]

DEFAULT_NODE_COUNTS = [1, 2, 4, 8, 16, 32, 64, 128, 256]

HIGHER_ORDER = ("ttv", "innerprod", "ttm", "mttkrp")

#: The factor-matrix rank of TTM and MTTKRP (Figure 16c/d).
RANK = 64

GFLOPS = "GFLOP/s/node"
GBYTES = "GB/s/node"


class Point:
    """One node count's setup, shared by every series of a figure: the
    cluster, the memory kind schedules pin data in, and the problem
    size."""

    def __init__(self, nodes: int, gpu: bool, n: int):
        self.cluster = (
            Cluster.gpu_cluster(nodes) if gpu else Cluster.cpu_cluster(nodes)
        )
        self.p = self.cluster.num_processors
        self.memory = self.cluster.default_memory
        self.n = n

    def machine(self, shape: Tuple[int, ...]) -> Machine:
        return Machine(self.cluster, Grid(*shape))


@dataclass(frozen=True)
class Series:
    """One plotted system: its name and its report at a :class:`Point`
    (raising :class:`OutOfMemoryError` where the run does not fit)."""

    system: str
    report: Callable[[Point], SimReport]
    #: The paper runs this system on CPUs only.
    cpu_only: bool = False


@dataclass(frozen=True)
class Figure:
    """One weak-scaling table: its unit, its size law
    (``size(base_n, nodes)``), its one-node ``base_n`` on CPUs and on
    GPUs, and its series in display order."""

    unit: str
    size: Callable[[int, int], int]
    base_n: Tuple[int, int]
    series: Tuple[Series, ...]

    def available(self, gpu: bool) -> Dict[str, Series]:
        return {
            s.system: s for s in self.series if not (gpu and s.cpu_only)
        }


def _simulate(build, grid: Callable[[int], Tuple[int, ...]],
              at: Point) -> SimReport:
    """A DISTAL schedule ``build(machine, n, memory=...)`` on the grid
    ``grid(processors)``, simulated."""
    kern = build(at.machine(grid(at.p)), at.n, memory=at.memory)
    return SIM_CACHE.simulate(kern, LASSEN)


def _ours(system: str, build, grid: Callable[[int], Tuple[int, ...]]):
    return Series(system, partial(_simulate, build, grid))


def _pumma(at: Point) -> SimReport:
    """PUMMA, simulated after Cannon on the same machine.

    The two schedules differ only in their rotate relations, which the
    ``SIM_CACHE`` key does not print, so in a sweep PUMMA reads the
    report Cannon cached (on 16+ GPU nodes a fresh PUMMA simulation
    differs). Simulating Cannon first gives a forked point that runs
    PUMMA alone the same report a sequential sweep gives it.
    """
    _simulate(cannon, square_grid, at)
    return _simulate(pumma, square_grid, at)


def _baseline(system: str, model, *args, cpu_only: bool = True, **kwargs):
    """A closed-form baseline ``model(cluster, n, *args, **kwargs)``."""
    return Series(system, lambda at: cached_baseline(
        model, at.cluster, at.n, *args, **kwargs
    ), cpu_only)


def _solomonik(at: Point) -> SimReport:
    """Best 2.5-D configuration: use "extra memory when possible".

    Solomonik's algorithm interpolates between 3-D (large c) and 2-D
    (c=1): we try replication factors from large to small and keep the
    first that fits memory, exactly the algorithm's stated adaptivity
    (Section 7.1.2). Falls back to a 2-D grid when the processor count
    admits no efficient q x q x c factorization, or no factorization
    fits.
    """
    for max_c in (8, 4, 2, 1):
        q, _q, c = grid_25d(at.p, max_c=max_c)
        if q * q * c < 0.75 * at.p:
            continue
        try:
            return _simulate(solomonik, lambda p: (q, q, c), at)
        except OutOfMemoryError:
            continue
    return _simulate(cannon, square_grid, at)


def _cosma_schedule(at: Point) -> SimReport:
    kern = cosma(at.cluster, at.n, memory=at.memory)
    return SIM_CACHE.simulate(kern, LASSEN)


def _higher_order(unit: str, ours: Series, ctf: Series) -> Figure:
    return Figure(unit, weak_cube_side, (700, 900), (ours, ctf))


FIGURES: Dict[str, Figure] = {
    # Figure 15a/b. DISTAL kernels pin data in framebuffer memory on
    # GPUs (and can OOM, like Johnson's and the COSMA schedule at 32+
    # nodes); the reference COSMA keeps data host-resident and
    # out-of-core.
    "gemm": Figure(GFLOPS, weak_matrix_size, (8192, 20000), (
        _baseline("COSMA", cosma_reference_matmul, cpu_only=False),
        _baseline("COSMA (Restricted CPUs)", cosma_reference_matmul,
                  restricted_cpus=True),
        _baseline("CTF", ctf_matmul),
        _baseline("ScaLAPACK", scalapack_matmul),
        _ours("Our Cannon", cannon, square_grid),
        _ours("Our SUMMA", summa, square_grid),
        Series("Our PUMMA", _pumma),
        Series("Our Solomonik", _solomonik),
        _ours("Our Johnson", johnson, cube_grid),
        Series("Our COSMA", _cosma_schedule),
    )),
    # Figure 16a-d: Ours vs CTF. Bandwidth-bound kernels report GB/s
    # per node, the rest GFLOP/s per node. The paper reports CTF on
    # CPUs only (its GPU backend does not build); we do the same.
    "ttv": _higher_order(
        GBYTES, _ours("Ours", ttv, square_grid), _baseline("CTF", ctf_ttv)
    ),
    "innerprod": _higher_order(
        GBYTES, _ours("Ours", innerprod, square_grid),
        _baseline("CTF", ctf_innerprod),
    ),
    "ttm": _higher_order(
        GFLOPS, _ours("Ours", partial(ttm, r=RANK), lambda p: (p,)),
        _baseline("CTF", ctf_ttm, RANK),
    ),
    # Ballard's MTTKRP accepts any 3-D grid; use the most balanced full
    # factorization instead of Johnson's strict cube.
    "mttkrp": _higher_order(
        GFLOPS, _ours("Ours", partial(mttkrp, r=RANK), factor3),
        _baseline("CTF", ctf_mttkrp, RANK),
    ),
    # Figure 15's three scaling schedules on the extended axes.
    "weak": Figure(GFLOPS, weak_matrix_size, (8192, 8192), (
        _ours("cannon", cannon, square_grid),
        _ours("summa", summa, square_grid),
        _ours("johnson", johnson, cube_grid),
    )),
}


def sweep(
    figure: str,
    node_counts: Sequence[int],
    gpu: bool = False,
    systems: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[Row]:
    """Run one :data:`FIGURES` table over ``node_counts``.

    ``systems`` picks series by name (default: every series the figure
    plots on this processor kind). Rows come in node-count order, then in
    ``systems`` order. ``jobs > 1`` runs one point per (node count,
    series) on forked workers (:mod:`repro.bench.parallel`), largest
    node counts first, so the most expensive points never serialize
    behind each other in one worker; their cache deltas merge back into
    this process, and the rows equal a sequential run's.
    """
    table = FIGURES[figure]
    available = table.available(gpu)
    systems = list(systems or available)
    unknown = set(systems) - set(available)
    if unknown:
        raise ValueError(f"unknown {figure} systems {sorted(unknown)}")
    if jobs > 1 and len(node_counts) * len(systems) > 1:
        points = [(n, s) for n in node_counts for s in systems]
        return run_points(
            "sweep",
            [
                {"figure": figure, "node_counts": [n], "gpu": gpu,
                 "systems": [s]}
                for n, s in points
            ],
            jobs,
            costs=[n for n, _ in points],
        )
    rows: List[Row] = []
    for nodes in node_counts:
        at = Point(nodes, gpu, table.size(table.base_n[gpu], nodes))
        for system in systems:
            try:
                report = available[system].report(at)
                value = (
                    report.gbytes_per_node if table.unit == GBYTES
                    else report.gflops_per_node
                )
            except OutOfMemoryError:
                value = None
            rows.append({
                "system": system, "nodes": nodes, "value": value,
                "unit": table.unit, "note": "OOM" if value is None else "",
            })
    return rows


register_sweep("sweep", sweep)


# ----------------------------------------------------------------------
# Presentation + summary helpers.
# ----------------------------------------------------------------------

def series(rows: List[Row], system: str) -> Dict[int, Optional[float]]:
    """One system's nodes -> value curve out of a row list."""
    return {
        int(r["nodes"]): (None if r["value"] is None else float(r["value"]))
        for r in rows
        if r["system"] == system
    }


def format_table(rows: List[Row], title: str = "") -> str:
    """Render rows as the paper-style table: systems x node counts."""
    systems: List[str] = []
    for r in rows:
        if r["system"] not in systems:
            systems.append(r["system"])
    node_counts = sorted({int(r["nodes"]) for r in rows})
    unit = rows[0]["unit"] if rows else ""
    width = max(len(s) for s in systems) + 2 if systems else 10
    lines = []
    if title:
        lines.append(f"== {title} ({unit}) ==")
    header = " " * width + "".join(f"{n:>10d}" for n in node_counts)
    lines.append(header)
    for system in systems:
        curve = series(rows, system)
        cells = []
        for n in node_counts:
            v = curve.get(n)
            cells.append(f"{'OOM':>10s}" if v is None else f"{v:>10.1f}")
        lines.append(f"{system:<{width}s}" + "".join(cells))
    return "\n".join(lines)


def headline_speedups(
    node_counts: Optional[List[int]] = None,
) -> Dict[str, float]:
    """The abstract's headline ratios, recomputed from our benches.

    Returns DISTAL-vs-baseline speedups at the largest node count:
    ``vs_scalapack``/``vs_ctf``/``vs_cosma`` for GEMM and per-kernel
    ``higher_order_*`` ratios against CTF.
    """
    node_counts = node_counts or [64]
    top = node_counts[-1]
    cpu = sweep("gemm", [top])
    best_ours = max(
        v
        for name in ("Our Cannon", "Our SUMMA", "Our Solomonik")
        for v in series(cpu, name).values()
        if v is not None
    )
    out = {
        "vs_scalapack": best_ours / series(cpu, "ScaLAPACK")[top],
        "vs_ctf_gemm": best_ours / series(cpu, "CTF")[top],
        "vs_cosma": best_ours / series(cpu, "COSMA")[top],
    }
    for kernel in HIGHER_ORDER:
        rows = sweep(kernel, [top])
        ours = series(rows, "Ours")[top]
        ctf = series(rows, "CTF")[top]
        out[f"higher_order_{kernel}"] = ours / ctf
    return out
