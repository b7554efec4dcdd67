"""sim-weak: weak-scaled GEMM and higher-order kernels at large node counts.

Each op builds one kernel with a ``repro.algorithms`` builder and prices
it through ``SIM_CACHE.simulate`` (orbit executor + cost model), the
path every figure sweep takes. The orbit executor at large grids does
most of the work here; the tuner, the serving daemon and the ledger are
idle.

Each repetition runs the sweep with ``SIM_CACHE`` empty (every op a
miss), then replays a seeded Zipf stream of repeated points against
the full cache (every op a hit). On this workload the warm pass is that
hit stream.

Every report is checked against ``expected_sim.json``, recorded once
from the uncompressed ``mode="batched"`` interpreter by
``record_expected.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness

EXPECTED_PATH = Path(__file__).with_name("expected_sim.json")

GEMMS = ("cannon", "summa", "johnson")
CPU_NODES = (1024, 4096)
GPU_NODES = (256, 1024)
HIGHER = ("ttv", "ttm", "mttkrp")
#: (gpu, nodes) of the higher-order kernels.
HIGHER_AT = ((False, 1024), (True, 256))
#: Figure 16's weak-scaling base sides, and the seeded offsets drawn
#: per higher-order point (each variant has an expected record).
HIGHER_BASE = {False: 700, True: 900}
HIGHER_OFFSETS = (-16, 0, 16)
GEMM_BASE = 8192
RANK = 64

#: Hits replayed per repetition.
HITS = 20000
#: Float sums whose evaluation order differs between interpreters.
FLOP_RTOL = 1e-12


@dataclass(frozen=True)
class Point:
    kernel: str
    nodes: int
    gpu: bool
    base: int

    @property
    def key(self) -> str:
        where = f"{'gpu' if self.gpu else 'cpu'}{self.nodes}"
        return f"{self.kernel}@{where}/n{self.base}"


def catalog() -> List[Point]:
    """Every point any seed can draw (the expected file covers these)."""
    points = [
        Point(k, n, gpu, GEMM_BASE)
        for gpu, counts in ((False, CPU_NODES), (True, GPU_NODES))
        for k in GEMMS
        for n in counts
    ]
    points += [
        Point(k, n, gpu, HIGHER_BASE[gpu] + off)
        for k in HIGHER
        for gpu, n in HIGHER_AT
        for off in HIGHER_OFFSETS
    ]
    return points


def draw(seed: int) -> List[Point]:
    """The seed's sweep: every GEMM point and one size variant per
    higher-order point, in catalog order (a fixed order keeps the
    memory held beside each simulation, and so the peak, the same)."""
    rng = random.Random(seed)
    points = [p for p in catalog() if p.kernel in GEMMS]
    points += [
        Point(k, n, gpu, HIGHER_BASE[gpu] + rng.choice(HIGHER_OFFSETS))
        for k in HIGHER
        for gpu, n in HIGHER_AT
    ]
    return points


def build(point: Point):
    """The point's kernel, compiled by its ``repro.algorithms`` builder."""
    from repro.algorithms.higher_order import mttkrp, ttm, ttv
    from repro.algorithms.matmul import cannon, johnson, summa
    from repro.bench.weak_scaling import (
        cube_grid, factor3, square_grid, weak_cube_side, weak_matrix_size,
    )
    from repro.machine.cluster import Cluster, MemoryKind
    from repro.machine.grid import Grid
    from repro.machine.machine import Machine

    nodes = point.nodes
    cluster = (
        Cluster.gpu_cluster(nodes) if point.gpu
        else Cluster.cpu_cluster(nodes)
    )
    memory = MemoryKind.GPU_FB if point.gpu else MemoryKind.SYSTEM_MEM
    p = cluster.num_processors
    if point.kernel in GEMMS:
        n = weak_matrix_size(point.base, nodes)
        grid = cube_grid(p) if point.kernel == "johnson" else square_grid(p)
        builder = {"cannon": cannon, "summa": summa, "johnson": johnson}
        return builder[point.kernel](
            Machine(cluster, Grid(*grid)), n, memory=memory
        )
    n = weak_cube_side(point.base, nodes)
    if point.kernel == "ttv":
        return ttv(Machine(cluster, Grid(*square_grid(p))), n, memory=memory)
    if point.kernel == "ttm":
        return ttm(Machine(cluster, Grid(p)), n, r=RANK, memory=memory)
    return mttkrp(
        Machine(cluster, Grid(*factor3(p))), n, r=RANK, memory=memory
    )


def summarize(report=None, oom: Optional[Tuple] = None) -> Dict:
    """The checked fields of one outcome, JSON-ready."""
    if oom is not None:
        return {"oom": list(oom)}
    high_water = json.dumps(
        sorted(report.memory_high_water.items()), separators=(",", ":")
    )
    return {
        "total_time": report.total_time,
        "inter_node_bytes": report.inter_node_bytes,
        "total_flops": report.total_flops,
        # Thousands of memories at these grids: pin them by digest.
        "memory_high_water_sha256":
            hashlib.sha256(high_water.encode()).hexdigest(),
        "peak_memory_bytes": max(report.memory_high_water.values()),
    }


def mismatch(got: Dict, want: Optional[Dict]) -> Optional[str]:
    """Why ``got`` differs from the expected record, or ``None``.

    Flops are float sums whose order differs between the batched and
    orbit interpreters, so they compare within ``FLOP_RTOL``; every
    other field must be equal.
    """
    if want is None:
        return "no expected record"
    if ("oom" in got) != ("oom" in want):
        return f"outcome {sorted(got)} != expected {sorted(want)}"
    for name, value in want.items():
        if name == "total_flops":
            if not math.isclose(got[name], value, rel_tol=FLOP_RTOL):
                return f"total_flops {got[name]!r} != {value!r}"
        elif got[name] != value:
            return f"{name} {got[name]!r} != {value!r}"
    return None


def load_expected() -> Dict[str, Dict]:
    return json.loads(EXPECTED_PATH.read_text())


# ----------------------------------------------------------------------
# The workload.
# ----------------------------------------------------------------------


#: Nominal seconds of one repetition on a 2-core machine.
REP_SECONDS = 9.5


def setup(seed: int):
    from repro.bench.cache import SIM_CACHE
    from repro.sim.params import LASSEN
    from repro.util.errors import OutOfMemoryError

    expected = load_expected()
    points = draw(seed)
    # First use of lazily imported modules, off the clock.
    SIM_CACHE.simulate(build(Point("cannon", 4, False, GEMM_BASE)), LASSEN)
    SIM_CACHE.clear()
    return dict(
        cache=SIM_CACHE, params=LASSEN, oom_error=OutOfMemoryError,
        expected=expected, points=points,
        stream=harness.zipf_stream(random.Random(seed + 1), len(points), HITS),
    )


def run(state, bench: harness.Bench) -> harness.Outcome:
    cache = state["cache"]
    params = state["params"]
    oom_error = state["oom_error"]
    points = state["points"]
    out = harness.Outcome()
    tr = bench.tracer

    def simulate(kernel):
        try:
            return cache.simulate(kernel, params), None
        except oom_error as err:
            return None, (err.memory_name, err.needed_bytes,
                          err.capacity_bytes)

    for traced in bench.repetitions():
        cache.clear()
        kernels, outcomes, op_s, hit_s, hits = [], [], [], [], []
        with bench.window(traced):
            for point in points:
                t0 = time.perf_counter()
                with tr.span("op", rid=point.key):
                    with tr.span("algorithms.build"):
                        kernel = build(point)
                    outcome = simulate(kernel)
                op_s.append(time.perf_counter() - t0)
                bench.probe()
                kernels.append(kernel)
                outcomes.append(outcome)
            for i in state["stream"]:
                t0 = time.perf_counter()
                hits.append((i, simulate(kernels[i])))
                hit_s.append(time.perf_counter() - t0)
        inexact = 0
        for point, (report, oom) in zip(points, outcomes):
            got = summarize(report, oom)
            want = state["expected"].get(point.key)
            out.check(mismatch(got, want), point.key)
            if want and got.get("total_flops") != want.get("total_flops"):
                inexact += 1
        state["flops_inexact"] = inexact
        bad = sum(1 for i, hit in hits if hit != outcomes[i])
        out.count(len(hits), bad, "cache hit differs from its cold report")
        if traced:
            state["cache_counts"] = (cache.hits, cache.misses)
        bench.sample(
            traced, op_s=op_s, warm_s=hit_s, hit_s=hit_s,
            cost_s=[r.total_time for r, _oom in outcomes if r is not None],
        )
    return out


def per_layer(state, bench) -> dict:
    hits, misses = state["cache_counts"]
    return {
        "cache.sim_hits": hits,
        "cache.sim_misses": misses,
        "sim.flops_inexact": state["flops_inexact"],
    }
