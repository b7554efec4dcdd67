"""An orbit executor that carries nothing across a conjugate replay.

``CarryOff`` replays the same phases as :class:`OrbitExecutor` but
re-derives every quantity the replay otherwise carries from the
previous phase:

* each member's source (every member goes through the derivation, so
  no carried winner, class key, chunk row, row filter, inter-node
  flag, class fold or collective group reaches the emission);
* the registration's payloads, processors, memories and charges;
* the previous fetch positions (``prev_row``), rebuilt every time;
* the class member counts, counted again;
* the class owners (pattern, validity, linear index), derived for
  every class of every phase;
* each class's holders, matched by rectangle.

Tests compare it with the default executor: the steps, class
representatives, memory high-water marks and priced reports must be
equal byte for byte.
"""

import numpy as np

from repro.runtime.orbit import OrbitExecutor
from repro.sim.costmodel import CostModel
from repro.sim.params import LASSEN


class CarryOff(OrbitExecutor):
    """Re-derives everything a conjugate replay carries."""

    def _carried_sources(self, memo, sources, region, shift, pr, *args):
        k = pr.size
        empty = np.empty(k, dtype=np.int64)
        return empty, empty.copy(), np.arange(k, dtype=np.int64)

    def _registration(self, *args, prev=None, seam=None):
        return super()._registration(*args)

    def _prev_row(self, memo, region):
        memo.prev_row = None
        return super()._prev_row(memo, region)

    def _class_counts(self, prev, labels, n_classes, seam, lost):
        return np.bincount(labels, minlength=n_classes)

    @staticmethod
    def _carried_owners(prev):
        return None

    def _translated_owners(self, memo, tensor, cols, delta):
        return self._class_owners(tensor, cols)

    @staticmethod
    def _holder_map(prev, classes, moved, held):
        return OrbitExecutor._holder_map(prev, classes, True, held)


def run_priced(executor_cls, kernel):
    """Run ``kernel`` on a fresh ``executor_cls``; return the executor,
    its result and the priced report."""
    executor = executor_cls(kernel.plan)
    result = executor.run()
    report = CostModel(kernel.machine.cluster, LASSEN).time_trace(
        result.trace
    )
    return executor, result, report


def assert_same_steps(trace_on, trace_off):
    """Equal steps: class representatives and every per-member copy
    column, collective groups included."""
    assert len(trace_on.steps) == len(trace_off.steps)
    for a, b in zip(trace_on.steps, trace_off.steps):
        # The class representatives, built from what each run deferred
        # or recorded; a step with copy rows has some, so the
        # comparison is not of two empty lists.
        assert a.copies == b.copies, a.label
        if a._columns is None:
            assert b._columns is None
            continue
        ca, cb = a.columns(), b.columns()
        assert bool(a.copies) == bool(ca.n), a.label
        for name in (
            "n", "num_groups", "nbytes", "src_proc", "dst_proc",
            "src_node", "dst_node", "inter", "reduce", "gpu_resident",
            "src_gpu", "dst_gpu", "group",
        ):
            assert np.array_equal(
                getattr(ca, name), getattr(cb, name)
            ), (a.label, name)


def assert_carry_exact(kernel, executor_cls=OrbitExecutor):
    """The carried replay (``executor_cls``) equals :class:`CarryOff`
    byte for byte: steps, memory high-water marks and the priced
    report. Returns the carrying executor."""
    on, res_on, rep_on = run_priced(executor_cls, kernel)
    off, res_off, rep_off = run_priced(CarryOff, kernel)
    assert off.members_carried == 0
    assert off.phase_deltas == 0
    assert on.members_carried + on.members_rederived == (
        off.members_rederived
    )
    assert_same_steps(res_on.trace, res_off.trace)
    assert res_on.memory_high_water == res_off.memory_high_water
    assert rep_on == rep_off
    return on
