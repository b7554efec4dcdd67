"""The batched bounds memo keeps entries across sequential rebinds.

``CtxBlock.bind``/``unbind`` drop only the memo entries whose derivation
visited the rebound variable. These tests run whole kernels with a
block that re-evaluates every memoized answer on a memo-free block bound
the same way, and check that entries really do survive binds.
"""

import numpy as np
import pytest

import repro.runtime.orbit as orbit_mod
from repro.algorithms.higher_order import mttkrp
from repro.algorithms.matmul import cannon, cosma, solomonik, summa
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.runtime.batchbounds import CtxBlock, _clip_extent
from repro.sim.params import LASSEN


class _CheckedBlock(CtxBlock):
    """Checks every answer against a memo-free evaluation."""

    checked = 0
    survived = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._binds = 0
        self._born = {}

    def bind(self, var, value):
        super().bind(var, value)
        self._binds += 1

    def values_of(self, graph, var, full_env, exact=False):
        key = (var, exact)
        hit = key in self._memo
        if hit and self._born[key] < self._binds:
            _CheckedBlock.survived += 1
        out = super().values_of(graph, var, full_env, exact)
        if not hit:
            self._born[key] = self._binds
        fresh = CtxBlock(dict(self.env), self.n).values_of(
            graph, var, full_env, exact
        )
        for got, want in zip(out, fresh):
            np.testing.assert_array_equal(
                np.broadcast_to(got, (self.n,)),
                np.broadcast_to(want, (self.n,)),
            )
        _CheckedBlock.checked += 1
        return out


def _m(nodes, *grid):
    return Machine(Cluster.cpu_cluster(nodes), Grid(*grid))


@pytest.mark.parametrize(
    "build",
    [
        lambda: cannon(_m(8, 4, 4), 256),
        lambda: summa(_m(8, 4, 4), 200),
        lambda: solomonik(_m(4, 2, 2, 2), 128),
        lambda: cosma(Cluster.cpu_cluster(8), 256),
        lambda: mttkrp(_m(4, 2, 2, 2), 24, r=8),
    ],
    ids=["cannon", "summa", "solomonik", "cosma", "mttkrp"],
)
def test_memo_matches_memo_free_evaluation(build, monkeypatch):
    kernel = build()
    reference = kernel.simulate(LASSEN)
    _CheckedBlock.checked = _CheckedBlock.survived = 0
    monkeypatch.setattr(orbit_mod, "CtxBlock", _CheckedBlock)
    assert kernel.simulate(LASSEN) == reference
    assert _CheckedBlock.checked > 0


def test_entries_survive_sequential_binds(monkeypatch):
    _CheckedBlock.checked = _CheckedBlock.survived = 0
    monkeypatch.setattr(orbit_mod, "CtxBlock", _CheckedBlock)
    cannon(_m(8, 4, 4), 256).simulate(LASSEN)
    assert _CheckedBlock.survived > 0


class TestClipExtent:
    """``_clip_extent`` returns in-range endpoints as the same objects
    and clips the rest, keeping each endpoint's type and dtype."""

    def test_scalars(self):
        lo, hi = np.int64(2), np.int64(5)
        out = _clip_extent(lo, hi, 8)
        assert out[0] is lo and out[1] is hi
        for lo, hi, want in [
            (np.int64(-3), np.int64(5), (0, 5)),
            (np.int64(2), np.int64(11), (2, 8)),
            (np.int64(6), np.int64(4), (6, 6)),
            (np.int64(9), np.int64(12), (9, 9)),
        ]:
            got = _clip_extent(lo, hi, 8)
            assert got == want
            assert all(type(v) is np.int64 for v in got)

    def test_arrays(self):
        lo = np.array([0, 2, 4], dtype=np.int64)
        hi = np.array([1, 5, 8], dtype=np.int64)
        out = _clip_extent(lo, hi, 8)
        assert out[0] is lo and out[1] is hi
        got = _clip_extent(lo - 1, hi + 1, 8)
        assert got[0].tolist() == [0, 1, 3]
        assert got[1].tolist() == [2, 6, 8]
        assert got[0].dtype == got[1].dtype == np.int64

    def test_mixed(self):
        lo = np.array([0, 3], dtype=np.int64)
        out = _clip_extent(lo, np.int64(4), 8)
        assert out[0] is lo
        got = _clip_extent(lo, np.int64(2), 8)
        assert got[1].tolist() == [2, 3]
