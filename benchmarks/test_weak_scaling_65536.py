"""The ``weak65536`` axis: out to 256x the paper's largest machine.

The fallback-free orbit executor plus phase replay (translation /
rotation transport — see ``docs/simulator.md``) put five-figure node
counts in reach: 131,072 processors, 512 communication phases whose
steady state replays instead of re-resolving. Like every benchmark
here the default run reduces the axis to fit the suite budget: the
small counts plus 32,768 nodes, with Cannon, SUMMA and Johnson at every
count, as ``python -m repro.bench weak65536`` runs them; set
``REPRO_FULL_SWEEP=1`` to push the top point to the full 65,536 nodes.
Each simulation prices its phases as they close, so the top point
stays under 1 GB. At 32,768 nodes SUMMA is the slowest point (60 s
in a fresh process on a 2-core VM, against 18 s for Cannon and 0.4 s
for Johnson): n = 1,482,880 on a 256x256 grid is 5,792.5 per tile,
so its phases straddle home pieces and take the multi-piece path,
which does not replay. The weak-scaling claim checked here is Cannon's; the other
two must produce a value at every count.
"""

import os

from conftest import node_counts

from repro.bench.figures import sweep


def series(rows, system):
    return {
        int(r["nodes"]): r["value"] for r in rows if r["system"] == system
    }


def test_weak_scaling_toward_65536_nodes(run_once):
    top = 65536 if os.environ.get("REPRO_FULL_SWEEP") else 32768
    axis = node_counts(extra=(512,)) + [top]

    rows = run_once(sweep, "weak", axis, jobs=4)

    print()
    print(f"== Weak scaling to {top} nodes (GFLOP/s/node) ==")
    header = f"{'algorithm':<10s}" + "".join(f"{n:>10d}" for n in axis)
    print(header)
    for system in ("cannon", "summa", "johnson"):
        curve = series(rows, system)
        cells = "".join(
            f"{'OOM':>10s}" if curve[n] is None else f"{curve[n]:>10.1f}"
            for n in axis
        )
        print(f"{system:<10s}" + cells)
        # Every algorithm runs, and fits, at every count.
        assert all(curve[n] is not None for n in axis), system

    cannon = series(rows, "cannon")
    assert cannon[top] is not None
    # Weak scaling holds to the top count: per-node throughput within
    # 25% of one node.
    assert cannon[top] > 0.75 * cannon[1]
