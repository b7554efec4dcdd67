"""Figure 9 (E7): the matmul algorithm case studies, characterized.

For each of the six algorithms: compile from its data distribution +
schedule, trace it at a representative scale, and check the structural
properties Figure 9's icons depict — communication pattern (systolic vs
broadcast), machine organization, and relative communication volume.
"""

import pytest

from conftest import assert_pinned

from repro import Cluster, Grid, Machine
from repro.algorithms import cannon, cosma, johnson, pumma, solomonik, summa
from repro.sim.params import LASSEN


@pytest.fixture(scope="module")
def cluster():
    return Cluster.cpu_cluster(32)  # 64 processors


def table_row(name, kernel, machine):
    trace = kernel.trace(check_capacity=False).trace
    # Steady state excludes the first communication phase: Cannon's
    # algorithm begins with an explicit long-distance alignment shift
    # (Figure 11's "perform an initial data shift").
    comm_steps = [s for s in trace.steps if any(not c.reduce for c in s.copies)]
    steady = comm_steps[1:] if len(comm_steps) > 1 else comm_steps
    dists = [
        machine.torus_distance(c.src_coords, c.dst_coords)
        for s in steady
        for c in s.copies
        if not c.reduce
    ]
    max_dist = max(dists) if dists else 0
    reduces = sum(1 for c in trace.copies if c.reduce)
    return {
        "name": name,
        "inter_gb": trace.inter_node_bytes / 1e9,
        "max_dist": max_dist,
        "reduces": reduces,
        "high_water_gb": max(trace.memory_high_water.values()) / 1e9,
    }


def test_fig09_case_studies(run_once, cluster):
    n = 32768

    def build_all():
        m2 = Machine(cluster, Grid(8, 8))
        m3 = Machine(cluster, Grid(4, 4, 4))
        m25 = Machine(cluster, Grid(4, 4, 4))
        rows = [
            table_row("Cannon", cannon(m2, n), m2),
            table_row("PUMMA", pumma(m2, n), m2),
            table_row("SUMMA", summa(m2, n), m2),
            table_row("Johnson", johnson(m3, n), m3),
            table_row("Solomonik", solomonik(m25, n), m25),
        ]
        ck = cosma(cluster, n)
        rows.append(table_row("COSMA", ck, ck.machine))
        return rows

    rows = run_once(build_all)
    assert_pinned(
        rows,
        "9e4886de0ef6ad5c27d9d8947d45149c7517cd4fc0029ee84f6646d845063856",
    )
    print()
    print("== Figure 9 case studies (n=32768, 64 processors) ==")
    print(f"{'algorithm':<12s}{'inter-node GB':>15s}{'max shift':>11s}"
          f"{'reductions':>12s}{'high-water GB':>15s}")
    for r in rows:
        print(f"{r['name']:<12s}{r['inter_gb']:>15.2f}{r['max_dist']:>11d}"
              f"{r['reduces']:>12d}{r['high_water_gb']:>15.2f}")

    by_name = {r["name"]: r for r in rows}
    # Systolic algorithms only ever shift to grid neighbours.
    assert by_name["Cannon"]["max_dist"] <= 1
    # 3-D algorithms reduce partial outputs; 2-D ones do not.
    assert by_name["Johnson"]["reduces"] > 0
    assert by_name["Solomonik"]["reduces"] > 0
    assert by_name["Cannon"]["reduces"] == 0
    assert by_name["SUMMA"]["reduces"] == 0
    # Johnson's 3-D communication volume is below SUMMA's 2-D volume.
    assert by_name["Johnson"]["inter_gb"] < by_name["SUMMA"]["inter_gb"]
    # ... at the price of memory (replication).
    assert (
        by_name["Johnson"]["high_water_gb"]
        > by_name["SUMMA"]["high_water_gb"]
    )
