"""Command-line figure regeneration: ``python -m repro.bench <figure>``.

Usage::

    python -m repro.bench fig15a [--nodes 1,4,16,64,256] [--jobs 8]
    python -m repro.bench fig15b
    python -m repro.bench ttv|innerprod|ttm|mttkrp [--gpu]
    python -m repro.bench weak512 [--gpu]
    python -m repro.bench weak4096 [--gpu]
    python -m repro.bench weak65536 [--gpu]
    python -m repro.bench headline
    python -m repro.bench all [--profile]
    python -m repro.bench --list

Prints the corresponding paper table. ``--jobs N`` (from the shared
:mod:`repro.cli` group) distributes sweep points over worker
processes; ``--json`` emits the tables as one machine-readable object
instead of formatted text; ``--profile`` prints per-figure wall-clock,
even when a sweep fails. ``--list`` prints the available sweep names
one per line (CI workflows iterate it instead of hard-coding names). A
sweep that raises produces a non-zero exit code.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import cli
from repro.bench.figures import (
    DEFAULT_NODE_COUNTS,
    fig15a_cpu_matmul,
    fig15b_gpu_matmul,
    fig16_higher_order,
    format_table,
    headline_speedups,
)
from repro.bench.weak_scaling import (
    EXTENDED_NODE_COUNTS,
    EXTREME_NODE_COUNTS,
    matmul_weak_scaling,
)

HIGHER_ORDER = ("ttv", "innerprod", "ttm", "mttkrp")

#: Every invocable sweep, in display order (`--list` prints these).
SWEEPS = (
    "fig15a", "fig15b", *HIGHER_ORDER, "weak512", "weak4096",
    "weak65536", "headline", "all",
)


def parse_nodes(text):
    return [int(x) for x in text.split(",") if x]


def _sweep(args, profile: list) -> int:
    """Run the sweeps ``args.figure`` names, appending each one's
    ``(label, wall)`` to ``profile`` as it finishes."""
    nodes = args.nodes or DEFAULT_NODE_COUNTS
    tables: list = []
    say = cli.reporter(args)

    def show(label, rows, title):
        tables.append({"sweep": label, "title": title, "rows": rows})
        say(format_table(rows, title))

    def timed(label, thunk):
        start = time.monotonic()
        result = thunk()
        wall = time.monotonic() - start
        profile.append((label, wall))
        return result

    if args.figure in ("fig15a", "all"):
        show(
            "fig15a",
            timed("fig15a", lambda: fig15a_cpu_matmul(
                node_counts=nodes, jobs=args.jobs)),
            "Figure 15a: CPU matmul weak scaling",
        )
    if args.figure in ("fig15b", "all"):
        show(
            "fig15b",
            timed("fig15b", lambda: fig15b_gpu_matmul(
                node_counts=nodes, jobs=args.jobs)),
            "Figure 15b: GPU matmul weak scaling",
        )
    for kernel in HIGHER_ORDER:
        if args.figure in (kernel, "all"):
            rows = timed(kernel, lambda k=kernel: fig16_higher_order(
                k, gpu=args.gpu, node_counts=nodes, jobs=args.jobs
            ))
            label = "GPU" if args.gpu else "CPU"
            show(
                kernel, rows,
                f"Figure 16: {kernel} weak scaling ({label})",
            )
    # `all` includes the 512-node sweep; the larger axes run only
    # when asked for by name.
    sweep = None
    if args.figure in ("weak512", "all"):
        sweep = ("weak512", EXTENDED_NODE_COUNTS)
    elif args.figure == "weak4096":
        sweep = (
            "weak4096",
            [n for n in EXTREME_NODE_COUNTS if n <= 4096],
        )
    elif args.figure == "weak65536":
        sweep = ("weak65536", EXTREME_NODE_COUNTS)
    if sweep is not None:
        name, axis = sweep
        counts = args.nodes or axis
        label = "GPU" if args.gpu else "CPU"
        trio = [n for n in counts if n <= 4096]
        top = [n for n in counts if n > 4096]

        def run_sweep(trio=trio, top=top):
            rows = []
            if trio:
                rows += matmul_weak_scaling(
                    node_counts=trio, gpu=args.gpu, jobs=args.jobs
                )
            if top:
                # Beyond 4096 nodes the axis runs Cannon alone. SUMMA
                # replays its steady phases wherever the weak-scaled
                # size divides its grid; only the ragged points (8192
                # and 32768 nodes) straddle home pieces and take the
                # multi-piece path, which does not replay. Johnson
                # takes 0.41 s at 65536 nodes.
                rows += matmul_weak_scaling(
                    node_counts=top,
                    algorithms=("cannon",),
                    gpu=args.gpu,
                    jobs=args.jobs,
                )
            return rows

        rows = timed(name, run_sweep)
        suffix = "; cannon-only beyond 4096" if top else ""
        show(
            name, rows,
            f"Weak scaling to {counts[-1]} nodes ({label}{suffix})",
        )
    ratios = None
    if args.figure in ("headline", "all"):
        ratios = timed(
            "headline",
            lambda: headline_speedups(node_counts=[nodes[-1]]),
        )
        say(f"== Headline speedups at {nodes[-1]} nodes ==")
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
        "--gpu", action="store_true", help="GPU variant of Figure 16 kernels"
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
