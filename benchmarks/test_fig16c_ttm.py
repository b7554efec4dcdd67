"""Figure 16c: TTM weak scaling, CPU + GPU (E5).

DISTAL expresses TTM as independent local matmuls (no inter-node
communication, flat scaling at GEMM rates); CTF's fold redistributes
the 3-tensor and drops sharply past one node.
"""

from conftest import assert_pinned, node_counts

from repro.bench.figures import format_table, series, sweep


def test_fig16c_cpu(run_once):
    counts = node_counts()
    rows = run_once(sweep, "ttm", counts, gpu=False)
    print()
    print(format_table(rows, "Figure 16c: TTM weak scaling (CPU)"))
    assert_pinned(
        rows,
        "c255377b1206189d2f72381efd0b404c85659a14b8b78de80622c38bf2f37a38",
    )

    ours = series(rows, "Ours")
    ctf = series(rows, "CTF")
    # Ours holds near-GEMM rates at every count.
    assert min(ours.values()) > 500
    # CTF pays a large inter-node redistribution.
    top = counts[-1]
    assert ctf[top] < 0.65 * ctf[1]
    # The paper's 1.8x-3.7x range over CTF.
    assert 1.8 <= ours[top] / ctf[top] <= 6.0


def test_fig16c_gpu(run_once):
    counts = node_counts()
    rows = run_once(sweep, "ttm", counts, gpu=True)
    print()
    print(format_table(rows, "Figure 16c: TTM weak scaling (GPU)"))
    assert_pinned(
        rows,
        "2b0f5ed0e1fb0c73e5a90c9fdb9f16652354cdd2cfed3cc86a3cf0eda134bb45",
    )
    ours = series(rows, "Ours")
    # Communication-free: high and flat on GPUs as well.
    assert max(ours.values()) / min(ours.values()) < 1.2
