#!/usr/bin/env python
"""Weak-scaling simulation: a slice of the paper's Figure 15.

Simulates GEMM weak scaling on a Lassen-like cluster — DISTAL's Cannon
and SUMMA schedules against the ScaLAPACK, CTF and COSMA baseline
models — and prints the per-node throughput table the paper plots.

Run:  python examples/weak_scaling_simulation.py          (CPU, quick)
      python examples/weak_scaling_simulation.py gpu      (GPU figure)
"""

import sys

from repro.bench.figures import format_table, series, sweep

NODE_COUNTS = [1, 4, 16, 64]


def main():
    gpu = len(sys.argv) > 1 and sys.argv[1] == "gpu"
    if gpu:
        rows = sweep("gemm", NODE_COUNTS, gpu=True)
        print(format_table(rows, "Figure 15b: GPU matmul weak scaling"))
    else:
        rows = sweep("gemm", NODE_COUNTS)
        print(format_table(rows, "Figure 15a: CPU matmul weak scaling"))
        top = NODE_COUNTS[-1]
        ours = series(rows, "Our Cannon")[top]
        scalapack = series(rows, "ScaLAPACK")[top]
        cosma = series(rows, "COSMA")[top]
        print()
        print(f"At {top} nodes: ours/ScaLAPACK = {ours / scalapack:.2f}x, "
              f"ours/COSMA = {ours / cosma:.2f}x")
        print("(The paper reports >=1.25x over ScaLAPACK/CTF and ~0.95x "
              "of COSMA.)")


if __name__ == "__main__":
    main()
