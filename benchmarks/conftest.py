"""Benchmark configuration.

Node counts default to a short sweep so ``pytest benchmarks/`` finishes
in minutes; set ``REPRO_FULL_SWEEP=1`` for the paper's full 1..256 node
axis. Every benchmark prints its table (run pytest with ``-s`` to see
them live; they are also captured into the report).

The suite self-reports its wall-clock against a budget
(``REPRO_BENCH_BUDGET_S``, default 240 s — sized to cover the
4096-node weak-scaling sweep on the orbit-compressed executor) and
fails the run when over budget if ``REPRO_ENFORCE_BUDGET=1``. Numbers
that a change claims or is gated on come from ``perfbench/run.py``.
"""

import os
import time

import pytest

_BUDGET_S = float(os.environ.get("REPRO_BENCH_BUDGET_S", "240"))
_suite_start = None


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ is a paper-scale sweep."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def node_counts(extra=()):
    """The weak-scaling node axis for benchmarks."""
    if os.environ.get("REPRO_FULL_SWEEP"):
        return [1, 2, 4, 8, 16, 32, 64, 128, 256]
    base = [1, 4, 16, 64]
    for n in extra:
        if n not in base:
            base.append(n)
    return sorted(base)


def pytest_sessionstart(session):
    global _suite_start
    _suite_start = time.monotonic()


def pytest_sessionfinish(session, exitstatus):
    if _suite_start is None:
        return
    wall = time.monotonic() - _suite_start
    if wall > _BUDGET_S and os.environ.get("REPRO_ENFORCE_BUDGET"):
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _suite_start is None:
        return
    wall = time.monotonic() - _suite_start
    status = "OVER" if wall > _BUDGET_S else "within"
    terminalreporter.write_line(
        f"benchmark wall-clock: {wall:.1f}s ({status} budget {_BUDGET_S:.0f}s)"
    )


@pytest.fixture
def run_once(benchmark):
    """Run an expensive figure generator exactly once under timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
