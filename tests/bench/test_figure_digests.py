"""Every figure table is pinned: a SHA-256 digest of its rows at nodes
1, 2 and 4.

A figure's numbers come from the cost model, not from wall time, so
they are deterministic; a change that moves any cell of Figure 15a/b,
of a Figure 16 kernel on CPUs or GPUs, or of the weak GEMM sweep fails
here by name. The digests were recorded before the figures moved onto
one table-driven sweep driver, and the sequential and forked runs of
that driver must both reproduce them.
"""

import hashlib
import json

import pytest

from repro.bench import figures, parallel
from repro.bench.cache import SimulationCache
from repro.bench.figures import sweep

NODES = [1, 2, 4]

PINNED = {
    ("gemm", False): (
        "23255879e5fb028fa7e1b02990b073de4bcaf4c5da5129bf07053b752149776c"
    ),
    ("gemm", True): (
        "f96833c56d3f5145d2cf871f2fab6da35eed7f6ff19d956110846b9345b11a53"
    ),
    ("ttv", False): (
        "c66ded0abf3e5e9834334450c23b37ddf2667238f64399148893007b128b6b82"
    ),
    ("ttv", True): (
        "22524e18bda8d1b3ec08935059eb6e386b2613dd0cafb254655bc9a36f003101"
    ),
    ("innerprod", False): (
        "a7dea465a10101f88751bd30836da8fff83e61c168ef8687855cdf7db2f99409"
    ),
    ("innerprod", True): (
        "28bc71d59b0e44c679bd749408de3228d42ef35d56aac0af85db0b7e526dbfbb"
    ),
    ("ttm", False): (
        "24c5b7d5f9b0c34483d1de103bfb4d2472c8c93848558e23e2d76d122233b356"
    ),
    ("ttm", True): (
        "53e5a65a432664241edc150f255c73591c3fb8debab0380e7fa81232c4af0909"
    ),
    ("mttkrp", False): (
        "8ebadf4da7f40043d69ad2c6f2af798771dc7b5cb83760bcf2fe1c2a42d28811"
    ),
    ("mttkrp", True): (
        "740e2e13e0c63f328269df8157c0f97015801d02ff0f3d98268c9367a3487644"
    ),
    ("weak", False): (
        "724af5368f7329d171eb8aa277160628388484c1d01e1119822887a4ab103603"
    ),
}


def rows_digest(rows):
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize(
    "figure, gpu", sorted(PINNED),
    ids=[f"{f}-{'gpu' if g else 'cpu'}" for f, g in sorted(PINNED)],
)
def test_figure_rows_are_pinned(figure, gpu):
    assert rows_digest(sweep(figure, NODES, gpu=gpu)) == PINNED[figure, gpu]


def test_forked_sweep_reproduces_the_pins(monkeypatch):
    """One worker point per (node count, series) merges back into the
    sequential rows, baselines and schedules alike."""
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    rows = sweep("gemm", NODES, jobs=2)
    assert rows_digest(rows) == PINNED["gemm", False]


def test_forked_sweep_keeps_oom_cells(monkeypatch):
    """At 32 GPU nodes Johnson and the COSMA schedule run out of
    framebuffer memory; forked points report the same OOM cells."""
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    forked = sweep("gemm", [32], gpu=True, jobs=2)
    assert forked == sweep("gemm", [32], gpu=True)
    assert {r["system"] for r in forked if r["note"] == "OOM"} == {
        "Our Johnson", "Our COSMA",
    }


def test_each_series_alone_reports_what_the_sweep_does(monkeypatch):
    """A forked point may run one series on a cache that holds none of
    the figure's other simulations; it must report what the sequential
    sweep does. PUMMA's ``SIM_CACHE`` key equals Cannon's, and on 32
    GPU nodes a fresh PUMMA simulation differs from Cannon's."""
    sequential = sweep("gemm", [32], gpu=True)
    for row in sequential:
        monkeypatch.setattr(figures, "SIM_CACHE", SimulationCache())
        alone = sweep("gemm", [32], gpu=True, systems=[row["system"]])
        assert alone == [row]
