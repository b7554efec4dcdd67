"""The ``weak65536`` axis: out to 256x the paper's largest machine.

The fallback-free orbit executor plus phase replay (translation /
rotation transport — see ``docs/simulator.md``) put five-figure node
counts in reach: 131,072 processors, 512 communication phases whose
steady state replays instead of re-resolving. Like every benchmark
here the default run reduces the axis to fit the suite budget — the
trio through the small counts plus Cannon alone at 32,768 nodes
(23 s on a 2-core VM); set ``REPRO_FULL_SWEEP=1`` to push the top
point to the full 65,536 nodes (98 s there, the
`python -m repro.bench weak65536` axis top). Each simulation prices
its phases as they close, so the top point stays under 1 GB. SUMMA and
Johnson stop at the small counts; the scaling claim checked here is
Cannon's. Both would fit: SUMMA replays its steady phases wherever the
weak-scaled size divides its grid, and only the ragged points (8,192
and 32,768 nodes, n = 5,792.5 per tile) take the multi-piece path that
does not replay; Johnson takes 0.41 s at 65,536 nodes.
"""

import os

from conftest import node_counts

from repro.bench.weak_scaling import matmul_weak_scaling


def series(rows, system):
    return {
        int(r["nodes"]): r["value"] for r in rows if r["system"] == system
    }


def test_weak_scaling_toward_65536_nodes(run_once):
    counts = node_counts(extra=(512,))
    top = 65536 if os.environ.get("REPRO_FULL_SWEEP") else 32768

    def sweep():
        rows = matmul_weak_scaling(
            node_counts=counts,
            algorithms=("cannon", "summa", "johnson"),
            jobs=4,
        )
        rows += matmul_weak_scaling(
            node_counts=[top], algorithms=("cannon",), jobs=1
        )
        return rows

    rows = run_once(sweep)

    print()
    print(f"== Weak scaling to {top} nodes (GFLOP/s/node) ==")
    axis = counts + [top]
    header = f"{'algorithm':<10s}" + "".join(f"{n:>10d}" for n in axis)
    print(header)
    for system in ("cannon", "summa", "johnson"):
        curve = series(rows, system)
        cells = "".join(
            f"{'—':>10s}" if n not in curve
            else f"{'OOM':>10s}" if curve[n] is None
            else f"{curve[n]:>10.1f}"
            for n in axis
        )
        print(f"{system:<10s}" + cells)

    cannon = series(rows, "cannon")
    assert cannon[top] is not None
    # Weak scaling holds to the top count: per-node throughput within
    # 25% of one node.
    assert cannon[top] > 0.75 * cannon[1]
