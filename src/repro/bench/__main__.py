"""Command-line figure regeneration: ``python -m repro.bench <figure>``.

Usage::

    python -m repro.bench fig15a [--nodes 1,4,16,64,256] [--jobs 8]
    python -m repro.bench fig15b
    python -m repro.bench ttv|innerprod|ttm|mttkrp [--gpu]
    python -m repro.bench weak512|weak4096|weak65536 [--gpu]
    python -m repro.bench headline
    python -m repro.bench all [--profile]
    python -m repro.bench --list

Prints the corresponding paper table. Every table runs through one
driver, :func:`repro.bench.figures.sweep`; the weak sweeps run Cannon,
SUMMA and Johnson at every node count of their axis, and ``all`` runs
Figures 15a/b and 16, ``weak512`` and the headline ratios. ``--jobs N``
(from the shared :mod:`repro.cli` group) runs each table as one worker
point per (node count, system), largest node counts first; ``--json``
emits the tables as one machine-readable object instead of formatted
text; ``--profile`` prints per-figure wall-clock, even when a sweep
fails. ``--list`` prints the available sweep names one per line (CI
workflows iterate it instead of hard-coding names). A sweep that
raises produces a non-zero exit code.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import cli
from repro.bench.figures import (
    DEFAULT_NODE_COUNTS,
    HIGHER_ORDER,
    format_table,
    headline_speedups,
    sweep,
)

#: The weak-scaling sweeps' node axes: the paper's 1..256 doubled out
#: to 512, 4,096 and 65,536 nodes (131,072 processors). Every axis runs
#: Cannon, SUMMA and Johnson at every count.
WEAK_AXES = {
    f"weak{top}": [2 ** k for k in range(top.bit_length())]
    for top in (512, 4096, 65536)
}

#: Every invocable sweep, in display order (`--list` prints these).
SWEEPS = (
    "fig15a", "fig15b", *HIGHER_ORDER, *WEAK_AXES, "headline", "all",
)

#: What ``all`` runs: the larger weak axes run only when asked for by
#: name.
ALL = {"fig15a", "fig15b", *HIGHER_ORDER, "weak512", "headline"}


def parse_nodes(text):
    return [int(x) for x in text.split(",") if x]


def _tables(gpu: bool):
    """Every figure table the CLI prints, in display order:
    ``(sweep name, figure, gpu, node axis, title)``. A title's
    ``{top}`` is the largest node count swept."""
    kind = "GPU" if gpu else "CPU"
    return [
        ("fig15a", "gemm", False, DEFAULT_NODE_COUNTS,
         "Figure 15a: CPU matmul weak scaling"),
        ("fig15b", "gemm", True, DEFAULT_NODE_COUNTS,
         "Figure 15b: GPU matmul weak scaling"),
        *(
            (kernel, kernel, gpu, DEFAULT_NODE_COUNTS,
             f"Figure 16: {kernel} weak scaling ({kind})")
            for kernel in HIGHER_ORDER
        ),
        *(
            (name, "weak", gpu, axis,
             f"Weak scaling to {{top}} nodes ({kind})")
            for name, axis in WEAK_AXES.items()
        ),
    ]


def _sweep(args, profile: list) -> int:
    """Run the sweeps ``args.figure`` names, appending each one's
    ``(label, wall)`` to ``profile`` as it finishes."""
    wanted = ALL if args.figure == "all" else {args.figure}
    tables: list = []
    say = cli.reporter(args)

    def timed(label, thunk):
        start = time.monotonic()
        result = thunk()
        profile.append((label, time.monotonic() - start))
        return result

    for label, figure, gpu, axis, title in _tables(args.gpu):
        if label not in wanted:
            continue
        counts = args.nodes or axis
        rows = timed(label, lambda: sweep(
            figure, counts, gpu=gpu, jobs=args.jobs
        ))
        title = title.format(top=counts[-1])
        tables.append({"sweep": label, "title": title, "rows": rows})
        say(format_table(rows, title))
    ratios = None
    if "headline" in wanted:
        top = (args.nodes or DEFAULT_NODE_COUNTS)[-1]
        ratios = timed(
            "headline", lambda: headline_speedups(node_counts=[top])
        )
        say(f"== Headline speedups at {top} nodes ==")
        for key, value in ratios.items():
            say(f"  {key:<28s} {value:6.2f}x")
    cli.emit(args, {
        "figure": args.figure,
        "tables": tables,
        "headline": ratios,
        "profile": {
            label: round(wall, 4) for label, wall in profile
        },
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        nargs="?",
        choices=list(SWEEPS),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available sweep names (one per line) and exit",
    )
    parser.add_argument(
        "--nodes",
        type=parse_nodes,
        default=None,
        help="comma-separated node counts (default: the paper's axis)",
    )
    parser.add_argument(
        "--gpu", action="store_true",
        help="GPU variant of the Figure 16 and weak-scaling sweeps",
    )
    cli.add_common_args(parser, ledger=False, seed=False)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-figure wall-clock",
    )
    args = parser.parse_args(argv)
    if args.list:
        for sweep in SWEEPS:
            if sweep != "all":
                print(sweep)
        return 0
    if args.figure is None:
        parser.error("a sweep name (or --list) is required")
    profile: list = []
    status = cli.guarded("benchmark sweep failed", _sweep, args, profile)
    # The profile prints even when the sweep failed: the figures that
    # *did* finish carry the wall-clock evidence of where the run died.
    if args.profile:
        say = cli.reporter(args)
        say("== Wall-clock profile ==")
        for label, wall in profile:
            say(f"  {label:<10s} {wall:8.2f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())
