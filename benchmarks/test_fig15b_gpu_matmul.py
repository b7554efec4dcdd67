"""Figure 15b: GPU matrix-multiplication weak scaling (E2).

Asserts the paper's GPU conclusions:

* on one node, DISTAL's framebuffer-resident kernels achieve ~2x the
  reference COSMA (whose out-of-core GEMM stages over PCIe);
* Johnson's algorithm and DISTAL's COSMA schedule run out of GPU memory
  from 32 nodes on (input replication exhausts the 16 GiB framebuffers);
* 2-D algorithms dip at non-square processor counts; the systolic
  family stays at the front at scale.
"""

from conftest import assert_pinned, node_counts

from repro.bench.figures import format_table, series, sweep


def test_fig15b(run_once):
    counts = node_counts(extra=[32, 256])
    rows = run_once(sweep, "gemm", counts, gpu=True)
    print()
    print(format_table(rows, "Figure 15b: GPU matmul weak scaling"))
    assert_pinned(
        rows,
        "4cc197ec95ba051090b87119a9102e9776daa62145e53ee60470641887c37cf4",
    )

    cosma = series(rows, "COSMA")
    cannon = series(rows, "Our Cannon")
    johnson = series(rows, "Our Johnson")
    our_cosma = series(rows, "Our COSMA")
    summa = series(rows, "Our SUMMA")

    # Single node: DISTAL ~2x reference COSMA (paper: "all of our
    # kernels achieve twice the performance of COSMA").
    assert cannon[1] >= 1.8 * cosma[1]

    # 3-D replication OOMs at 32 nodes (paper, Section 7.1.2).
    assert johnson[32] is None
    assert our_cosma[32] is None
    # ... but not at small node counts.
    assert johnson[1] is not None and our_cosma[1] is not None

    # Reference COSMA is host-resident: it never OOMs.
    assert all(v is not None for v in cosma.values())

    # Systolic Cannon stays within a few percent of peak at scale;
    # broadcast-based SUMMA pays for collective contention.
    top = counts[-1]
    assert cannon[top] >= summa[top]

    # 2-D algorithms dip at non-square machine grids (32 nodes = 128
    # GPUs -> 16x8).
    assert summa[32] <= 0.85 * cannon[32]
