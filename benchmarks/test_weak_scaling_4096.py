"""4096-node weak scaling: sixteen times the paper's largest machine.

The batched executor (PR 1) topped out around 512 nodes; the
orbit-compressed executor simulates one representative per symmetry
class, so an 8192-processor sweep is minutes of work. Checks that
per-node throughput stays flat out to 4096 nodes.
"""

from conftest import assert_pinned, node_counts

from repro.bench.figures import sweep


def series(rows, system):
    return {
        int(r["nodes"]): r["value"] for r in rows if r["system"] == system
    }


def test_weak_scaling_to_4096_nodes(run_once):
    counts = node_counts(extra=(512, 4096))

    rows = run_once(
        sweep, "weak", counts, systems=("cannon", "summa", "johnson"),
        jobs=4,
    )
    assert_pinned(
        rows,
        "deb2fd524c7d121ee57e2f56a62100baf9454429e7a91fff9874f6404087b0b2",
    )

    print()
    print("== Weak scaling to 4096 nodes (GFLOP/s/node) ==")
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
    assert cannon[4096] is not None
    # Weak scaling: 4096-node per-node throughput within 25% of 1 node.
    assert cannon[4096] > 0.75 * cannon[1]
    assert len(rows) == 3 * len(counts)
