"""Figure 16a: TTV weak scaling, CPU + GPU (E3).

The paper's sharpest generality result: DISTAL schedules TTV with zero
communication and weak-scales flat, while CTF's matmul fold moves the
whole 3-tensor through the network and collapses past one node.
"""

from conftest import assert_pinned, node_counts

from repro.bench.figures import format_table, series, sweep


def test_fig16a_cpu(run_once):
    counts = node_counts()
    rows = run_once(sweep, "ttv", counts, gpu=False)
    print()
    print(format_table(rows, "Figure 16a: TTV weak scaling (CPU)"))
    assert_pinned(
        rows,
        "ef52d3a6e6a0e550e4e2322047549b532b035eca0910590f640a97e162eef54d",
    )

    ours = series(rows, "Ours")
    ctf = series(rows, "CTF")

    # Ours weak-scales flat (zero communication).
    assert max(ours.values()) / min(ours.values()) < 1.1
    # CTF collapses past one node.
    top = counts[-1]
    assert ctf[top] < 0.5 * ctf[1]
    # Large speedup at scale (the paper's biggest higher-order gap).
    assert ours[top] / ctf[top] > 3.0


def test_fig16a_gpu(run_once):
    counts = node_counts()
    rows = run_once(sweep, "ttv", counts, gpu=True)
    print()
    print(format_table(rows, "Figure 16a: TTV weak scaling (GPU)"))
    assert_pinned(
        rows,
        "07f7e09876905af46fac323fb5035225156f78a3e0b4c5fa8e61dee49d5ee643",
    )
    ours = series(rows, "Ours")
    # GPU bandwidth well above CPU bandwidth; flat scaling.
    assert min(ours.values()) > 2 * 270
    assert max(ours.values()) / min(ours.values()) < 1.1
