"""Observability overhead: tracing must be free when off, cheap when on.

The observability layer's acceptance bar is that the 512-node Cannon
simulate regresses < 2% with tracing disabled. The tracing-on wall is
printed beside the tracing-off one so the cost of *enabling* spans
stays visible too.
"""

import time

from repro.obs.spans import reset_spans, set_tracing, span
from repro.sim.params import LASSEN


def build_cannon(nodes):
    from repro.algorithms.matmul import cannon
    from repro.bench.weak_scaling import square_grid, weak_matrix_size
    from repro.machine.cluster import Cluster
    from repro.machine.grid import Grid
    from repro.machine.machine import Machine

    cluster = Cluster.cpu_cluster(nodes)
    machine = Machine(cluster, Grid(*square_grid(cluster.num_processors)))
    return cannon(machine, weak_matrix_size(8192, nodes))


def test_disabled_span_is_near_free():
    """The disabled path is one flag check returning a shared no-op."""
    set_tracing(False)
    try:
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            with span("bench.noop"):
                pass
        per_call = (time.perf_counter() - start) / n
    finally:
        set_tracing(None)
        reset_spans()
    print(f"\ndisabled span: {per_call * 1e9:.0f} ns/call")
    # Generous ceiling (the measured path is tens of ns): a regression
    # to per-call allocation or locking would blow through it.
    assert per_call < 5e-6


def test_cannon_512_simulate_tracing_disabled(run_once):
    """512-node simulate wall with tracing off."""
    set_tracing(False)
    try:
        report = run_once(lambda: build_cannon(512).simulate(LASSEN))
    finally:
        set_tracing(None)
    assert report.total_time > 0


def test_tracing_on_vs_off_recorded():
    """Measure the span layer's enabled cost on equal warm runs."""
    kern = build_cannon(512)
    kern.simulate(LASSEN)  # warm the step-price digest cache for both

    set_tracing(False)
    try:
        start = time.perf_counter()
        kern.simulate(LASSEN)
        off_wall = time.perf_counter() - start
    finally:
        set_tracing(None)

    set_tracing(True)
    try:
        start = time.perf_counter()
        kern.simulate(LASSEN)
        on_wall = time.perf_counter() - start
    finally:
        set_tracing(None)
        reset_spans()

    overhead = on_wall / off_wall - 1.0 if off_wall > 0 else 0.0
    print(f"\ntracing off {off_wall:.3f}s, on {on_wall:.3f}s "
          f"({overhead * 100:+.1f}%)")
    # Loose sanity bound: enabled tracing is real work, but it must not
    # multiply the simulate wall.
    assert on_wall < 2.0 * off_wall + 0.05
