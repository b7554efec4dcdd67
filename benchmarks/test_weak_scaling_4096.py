"""4096-node weak scaling: sixteen times the paper's largest machine.

The batched executor (PR 1) topped out around 512 nodes; the
orbit-compressed executor simulates one representative per symmetry
class, so an 8192-processor sweep is minutes of work. Checks that
per-node throughput stays flat out to 4096 nodes.
"""

from conftest import node_counts

from repro.bench.weak_scaling import matmul_weak_scaling


def series(rows, system):
    return {
        int(r["nodes"]): r["value"] for r in rows if r["system"] == system
    }


def test_weak_scaling_to_4096_nodes(run_once):
    counts = node_counts(extra=(512, 4096))

    rows = run_once(
        matmul_weak_scaling,
        node_counts=counts,
        algorithms=("cannon", "summa", "johnson"),
        jobs=4,
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
