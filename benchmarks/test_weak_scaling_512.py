"""512-node weak scaling: the paper's axis, doubled.

The seed's per-context interpreter made anything past 256 nodes
impractical; the batched executor sweeps 512 nodes (1024 processors,
n ~ 185k) in seconds. Checks that per-node throughput holds up at the
extended scale (weak scaling: the whole point is a flat curve).
"""

import pytest

from conftest import assert_pinned, node_counts

from repro.bench.figures import sweep


def series(rows, system):
    return {
        int(r["nodes"]): r["value"] for r in rows if r["system"] == system
    }


def test_weak_scaling_to_512_nodes(run_once):
    counts = node_counts(extra=(256, 512))

    rows = run_once(
        sweep, "weak", counts, systems=("cannon", "summa", "johnson")
    )
    assert_pinned(
        rows,
        "0ffbc7f2e7aa361fc7f7fd24dbc4ed804e36cb697e0906f4be7c1a85a84eb777",
    )

    print()
    print("== Weak scaling to 512 nodes (GFLOP/s/node) ==")
    header = f"{'algorithm':<10s}" + "".join(f"{n:>10d}" for n in counts)
    print(header)
    for system in ("cannon", "summa", "johnson"):
        curve = series(rows, system)
        cells = "".join(
            f"{'OOM':>10s}" if curve[n] is None else f"{curve[n]:>10.1f}"
            for n in counts
        )
        print(f"{system:<10s}" + cells)

    cannon = series(rows, "cannon")
    assert cannon[512] is not None
    # Weak scaling: 512-node per-node throughput within 25% of 1 node.
    assert cannon[512] > 0.75 * cannon[1]
    # The sweep covers every requested point.
    assert len(rows) == 3 * len(counts)
