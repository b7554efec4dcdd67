"""Jointly tuning the ``(A@B)@C`` chain: handoffs matter.

Tunes the two GEMM stages of ``D = (A @ B) @ C`` on a
memory-constrained cluster, first independently (each stage's own
winner, redistribution between them) and then jointly (per-stage
decision vectors *plus* the handoff format of the intermediate ``T``),
and prints the per-stage + redistribution cost breakdown of both. On
this configuration the joint schedule reads ``T`` directly in the
layout the first stage writes, eliminating the redistribution
entirely.

Run from the repository root::

    PYTHONPATH=src python examples/pipeline_chain.py [--nodes 64]
"""

import argparse

from repro import LASSEN, Pipeline, tune_pipeline
from repro.bench.weak_scaling import weak_matrix_size
from repro.tuner.workloads import lean_cluster, matmul_chain


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--mem-gib", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    n = weak_matrix_size(4096, args.nodes)
    r = max(256, n // 128)
    cluster = lean_cluster(args.nodes, args.mem_gib)
    stages = matmul_chain(n, r)
    pipeline = Pipeline(stages, cluster)
    print(
        f"(A@B)@C with A,B {n}x{n}, C {n}x{r} on {cluster!r}"
    )

    result = tune_pipeline(
        pipeline,
        LASSEN,
        top_k=4,
        max_dims=2,
        jobs=args.jobs,
    )
    print()
    print(result.describe())

    print()
    print("independent stages + default handoff redistribution:")
    if result.independent_report is not None:
        print(result.independent_report.describe())
    else:
        print("  infeasible (a stage or the handoff exceeds memory)")
    print()
    print("joint schedule:")
    if result.report is not None:
        print(result.report.describe())
        for edge in pipeline.edges:
            src, src_m, dst, dst_m = result.plan.handoff_formats(edge)
            print(
                f"  {edge.tensor}: producer writes {src.notation()} on "
                f"{src_m.shape}, consumer reads {dst.notation()} on "
                f"{dst_m.shape}"
            )
    else:
        print("  infeasible")


if __name__ == "__main__":
    main()
