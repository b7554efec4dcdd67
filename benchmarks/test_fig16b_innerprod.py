"""Figure 16b: Innerprod weak scaling, CPU + GPU (E4).

Both systems weak-scale flat here — a pure reduction needs no fold —
but the bespoke kernel's fused leaf streams faster than CTF's generic
element-wise machinery (paper: "CTF achieves good weak scaling ... but
is still slower than our implementation").
"""

from conftest import assert_pinned, node_counts

from repro.bench.figures import format_table, series, sweep


def test_fig16b_cpu(run_once):
    counts = node_counts()
    rows = run_once(sweep, "innerprod", counts, gpu=False)
    print()
    print(format_table(rows, "Figure 16b: Innerprod weak scaling (CPU)"))
    assert_pinned(
        rows,
        "e0fed3084fb8679c68df6cdd7c403f3280e4963053551d36f5921c316039db87",
    )

    ours = series(rows, "Ours")
    ctf = series(rows, "CTF")
    # Both flat.
    assert max(ours.values()) / min(ours.values()) < 1.1
    assert max(ctf.values()) / min(ctf.values()) < 1.1
    # Ours consistently faster.
    for nodes in counts:
        assert ours[nodes] > ctf[nodes]


def test_fig16b_gpu(run_once):
    counts = node_counts()
    rows = run_once(sweep, "innerprod", counts, gpu=True)
    print()
    print(format_table(rows, "Figure 16b: Innerprod weak scaling (GPU)"))
    assert_pinned(
        rows,
        "542989c0db59d65d56dc3344ada3ede306714fdcf17a148777faf93554abc660",
    )
    ours = series(rows, "Ours")
    assert max(ours.values()) / min(ours.values()) < 1.15
