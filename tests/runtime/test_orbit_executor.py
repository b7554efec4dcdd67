"""Parity: orbit-compressed execution reproduces the scalar results.

The orbit executor groups contexts into symmetry classes and executes
one representative per class; these tests pin its ``SimReport`` —
total/comm/compute time, flops, bytes, traffic, and the per-memory
high-water dict — to the scalar reference interpreter on every Figure 9
case-study schedule, on higher-order kernels, and on deliberately
non-divisible (prime-extent) problems that defeat the symmetry.
"""

import pickle
import weakref

import numpy as np
import pytest

from repro.algorithms.higher_order import innerprod, mttkrp, ttm, ttv
from repro.algorithms.matmul import (
    cannon,
    cosma,
    johnson,
    pumma,
    solomonik,
    summa,
)
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.runtime import orbit as orbit_module
from repro.runtime.orbit import (
    OrbitExecutor,
    _fold_keys,
    _match_rows,
    fold_groups,
    fold_rows,
)
from repro.sim.costmodel import CostModel, SkeletonAccumulator
from repro.sim.params import LASSEN
from repro.util.errors import OutOfMemoryError


def assert_identical_reports(kernel, check_capacity=False):
    orbit = kernel.simulate(
        LASSEN, check_capacity=check_capacity, mode="orbit"
    )
    scalar = kernel.simulate(
        LASSEN, check_capacity=check_capacity, mode="scalar"
    )
    assert orbit == scalar, f"{orbit!r} != {scalar!r}"
    assert_streamed_matches_full(kernel, check_capacity)
    return orbit


def assert_streamed_matches_full(kernel, check_capacity=False):
    """``simulate`` prices orbit steps as they close; the report must
    equal pricing the full orbit trace afterwards, byte for byte."""
    model = CostModel(kernel.machine.cluster, LASSEN)
    for breakdown in (False, True):
        streamed = kernel.simulate(
            LASSEN, check_capacity=check_capacity, mode="orbit",
            breakdown=breakdown,
        )
        full = model.time_trace(
            kernel.trace(check_capacity=check_capacity, mode="orbit").trace,
            breakdown=breakdown,
        )
        assert pickle.dumps(streamed) == pickle.dumps(full), (
            f"{streamed!r} != {full!r}"
        )


@pytest.fixture
def m44():
    return Machine(Cluster.cpu_cluster(8), Grid(4, 4))


@pytest.fixture
def m222():
    return Machine(Cluster.cpu_cluster(4), Grid(2, 2, 2))


class TestFig9Parity:
    def test_cannon(self, m44):
        assert_identical_reports(cannon(m44, 256))

    def test_summa(self, m44):
        assert_identical_reports(summa(m44, 256))

    def test_pumma(self, m44):
        assert_identical_reports(pumma(m44, 256))

    def test_johnson(self, m222):
        assert_identical_reports(johnson(m222, 256))

    def test_solomonik(self, m222):
        assert_identical_reports(solomonik(m222, 256))

    def test_cosma(self):
        assert_identical_reports(cosma(Cluster.cpu_cluster(8), 256))


class TestHigherOrderParity:
    def test_ttv(self, m44):
        assert_identical_reports(ttv(m44, 64))

    def test_innerprod(self, m44):
        assert_identical_reports(innerprod(m44, 64))

    def test_ttm(self):
        m1 = Machine(Cluster.cpu_cluster(8), Grid(16))
        assert_identical_reports(ttm(m1, 64, r=16))

    def test_mttkrp(self, m222):
        assert_identical_reports(mttkrp(m222, 64, r=16))


class TestSymmetryDefeated:
    """Non-divisible shapes produce boundary classes; results stay exact."""

    def test_prime_extent_cannon(self, m44):
        assert_identical_reports(cannon(m44, 257))

    def test_prime_extent_summa(self, m44):
        assert_identical_reports(summa(m44, 131))

    def test_prime_extent_johnson(self, m222):
        assert_identical_reports(johnson(m222, 101))

    def test_odd_grid_systolic_tie(self):
        # On a 3x3 torus the rotation owner and the cached neighbour can
        # be equidistant; both executors must break the tie identically
        # (holder first — the systolic behaviour).
        m = Machine(Cluster.cpu_cluster(9, sockets_per_node=1), Grid(3, 3))
        assert_identical_reports(cannon(m, 96))


class TestMachinesAndMemories:
    def test_gpu_framebuffer(self):
        m = Machine(Cluster.gpu_cluster(4), Grid(4, 4))
        assert_identical_reports(
            cannon(m, 512, memory=MemoryKind.GPU_FB), check_capacity=True
        )

    def test_hierarchical_machine(self):
        m = Machine(Cluster.gpu_cluster(4), Grid(2, 2), Grid(2, 2))
        assert_identical_reports(cannon(m, 256, memory=MemoryKind.GPU_FB))

    def test_host_resident_tensors_on_gpus(self):
        # Out-of-core mode: tensors stay in system memory while leaves
        # run on GPUs — destination endpoints must still be priced at
        # the receiving processor's framebuffer, as the scalar path does.
        m = Machine(Cluster.gpu_cluster(4, gpus_per_node=2), Grid(4, 2))
        assert_identical_reports(cannon(m, 512, memory=MemoryKind.SYSTEM_MEM))
        assert_identical_reports(summa(m, 512, memory=MemoryKind.SYSTEM_MEM))

    def test_over_decomposition(self):
        m = Machine(Cluster.cpu_cluster(2, sockets_per_node=1), Grid(4, 4))
        assert_identical_reports(cannon(m, 128))

    def test_oom_outcome_matches_exactly(self):
        cluster = Cluster.gpu_cluster(1, gpus_per_node=4, framebuffer_gib=2)
        kernel = cannon(
            Machine(cluster, Grid(2, 2)), 40000, memory=MemoryKind.GPU_FB
        )
        with pytest.raises(OutOfMemoryError) as orbit_err:
            kernel.simulate(LASSEN, mode="orbit")
        with pytest.raises(OutOfMemoryError) as scalar_err:
            kernel.simulate(LASSEN, mode="scalar")
        with pytest.raises(OutOfMemoryError) as traced_err:
            kernel.trace(mode="orbit")
        payloads = [
            (e.memory_name, e.needed_bytes, e.capacity_bytes)
            for e in (orbit_err.value, scalar_err.value, traced_err.value)
        ]
        assert payloads[0] == payloads[1] == payloads[2]


class TestCompression:
    def test_copies_are_compressed_with_counts(self, m44):
        kernel = cannon(m44, 256)
        orbit = kernel.trace(check_capacity=False, mode="orbit").trace
        scalar = kernel.trace(check_capacity=False, mode="scalar").trace
        orbit_records = len(orbit.copies)
        scalar_records = len(scalar.copies)
        assert orbit_records < scalar_records
        # The multiplicities account for every physical copy.
        assert sum(c.count for c in orbit.copies) == scalar_records
        assert orbit.total_copy_bytes == scalar.total_copy_bytes
        assert orbit.inter_node_bytes == scalar.inter_node_bytes

    def test_cannon_steady_state_has_few_classes(self, m44):
        # Every interior Cannon step shifts one tile per tensor by the
        # same offset; classes split only by intra- vs inter-node
        # character, so each tensor compresses to at most two
        # representative copies regardless of grid size.
        kernel = cannon(m44, 256)
        orbit = kernel.trace(check_capacity=False, mode="orbit").trace
        scalar = kernel.trace(check_capacity=False, mode="scalar").trace
        steady = list(zip(orbit.steps, scalar.steps))[2:]
        compressed = [(o, s) for o, s in steady if o.copies]
        assert compressed
        for o_step, s_step in compressed:
            per_tensor = {}
            for c in o_step.copies:
                per_tensor.setdefault(c.tensor, []).append(c)
            for copies in per_tensor.values():
                assert len(copies) <= 2
            assert sum(c.count for c in o_step.copies) == len(s_step.copies)

    def test_work_is_compressed_with_counts(self, m44):
        kernel = cannon(m44, 256)
        orbit = kernel.trace(check_capacity=False, mode="orbit").trace
        scalar = kernel.trace(check_capacity=False, mode="scalar").trace
        for o_step, s_step in zip(orbit.steps, scalar.steps):
            assert sum(w.count for w in o_step.work.values()) == len(
                s_step.work
            )
            assert o_step.total_flops == s_step.total_flops

    def test_pinned_columns_match_scalar_columns(self, m44):
        kernel = summa(m44, 256)
        orbit = kernel.trace(check_capacity=False, mode="orbit").trace
        scalar = kernel.trace(check_capacity=False, mode="scalar").trace
        for o_step, s_step in zip(orbit.steps, scalar.steps):
            oc, sc = o_step.columns(), s_step.columns()
            assert oc.n == sc.n
            assert oc.nbytes.sum() == sc.nbytes.sum()
            assert oc.num_groups == sc.num_groups
            # Same collective structure: fan-out multiset.
            assert sorted(np.bincount(oc.group).tolist()) == sorted(
                np.bincount(sc.group).tolist()
            )


class _Probe(SkeletonAccumulator):
    """Records the executor's live state each time a step is priced."""

    def __init__(self, model, executor):
        super().__init__(model)
        self.executor = executor
        self.builders = []  # weak references to every builder made
        self.samples = []

    def add(self, step):
        super().add(step)
        steps = self.executor.trace.steps
        self.samples.append((
            len(self.executor._builders),
            sum(ref() is not None for ref in self.builders),
            sum(s._columns is not None for s in steps),
        ))


class TestStreamedPricing:
    # SUMMA's steady phases replay the previous phase's chunks, so each
    # builder votes for its predecessor: a builder that kept its votes
    # after finalizing would keep the whole chain alive.
    @pytest.mark.parametrize("build", [cannon, summa])
    def test_state_stays_bounded_over_many_phases(self, build, monkeypatch):
        kernel = build(Machine(Cluster.cpu_cluster(64), Grid(64, 2)), 1024)
        model = CostModel(kernel.machine.cluster, LASSEN)
        executor = OrbitExecutor(kernel.plan)
        probe = _Probe(model, executor)
        executor._skeleton = probe
        make = orbit_module._StepBuilder

        def tracked(step):
            builder = make(step)
            probe.builders.append(weakref.ref(builder))
            return builder

        monkeypatch.setattr(orbit_module, "_StepBuilder", tracked)
        result = executor.run()
        steps = result.trace.steps
        assert len(steps) >= 60
        assert len(probe.samples) == len(steps)
        assert len(probe.builders) >= 60
        # Only the step being priced is open and holds columns; phase
        # memos keep the last builder per tensor alive.
        for open_builders, live_builders, pinned in probe.samples:
            assert open_builders == 0
            assert live_builders <= 4
            assert pinned <= 1
        for step in steps:
            with pytest.raises(RuntimeError, match="released"):
                step.columns()
        skeleton = probe.finish(result.trace.memory_high_water)
        full = kernel.trace(check_capacity=False, mode="orbit").trace
        assert model.price_skeleton(skeleton) == model.time_trace(full)

    def test_unstreamed_trace_keeps_its_columns(self, m44):
        trace = cannon(m44, 256).trace(mode="orbit").trace
        assert all(step.columns() is not None for step in trace.steps)


class TestAnalysisOnCompressedTraces:
    def test_summaries_match_full_traces(self, m44):
        # Trace analyses read compressed steps through the pinned
        # per-member columns, so pattern classification, fan-outs,
        # shifts and node traffic agree with the full record.
        from repro.sim.analysis import node_traffic_matrix, summarize

        for kernel in (cannon(m44, 256), summa(m44, 256)):
            full = kernel.trace(check_capacity=False, mode="batched").trace
            orbit = kernel.trace(check_capacity=False, mode="orbit").trace
            s_full, s_orbit = summarize(full, m44), summarize(orbit, m44)
            assert s_full.pattern == s_orbit.pattern
            assert [s.max_fanout for s in s_full.steps] == [
                s.max_fanout for s in s_orbit.steps
            ]
            assert [s.max_shift for s in s_full.steps] == [
                s.max_shift for s in s_orbit.steps
            ]
            assert s_full.total_bytes == s_orbit.total_bytes
            assert node_traffic_matrix(full) == node_traffic_matrix(orbit)


class TestModeSelection:
    def test_unknown_mode_rejected(self, m44):
        with pytest.raises(ValueError):
            cannon(m44, 64).trace(mode="not-a-mode")

    def test_orbit_executor_is_symbolic(self, m44):
        executor = OrbitExecutor(cannon(m44, 64).plan)
        assert executor.materialize is False and executor.batched is True


class TestFoldRows:
    def test_fold_is_collision_free(self):
        rng = np.random.default_rng(0)
        mat = rng.integers(-(2**40), 2**40, size=(500, 6))
        mat[100:200] = mat[:100]  # force duplicates
        keys = fold_rows(mat)
        by_key = {}
        for row, key in zip(map(tuple, mat), keys):
            assert by_key.setdefault(int(key), row) == row
        # equal rows -> equal keys
        assert np.array_equal(keys[100:200], keys[:100])

    @pytest.mark.parametrize("high", [50, 2**40])
    def test_key_fold_matches_row_fold(self, high):
        # Dense key ranges fold by counting, sparse ones by sorting;
        # both must give fold_groups' groups in fold_groups' order.
        rng = np.random.default_rng(1)
        key = rng.integers(0, high, size=400)
        first, counts = _fold_keys(key)
        ref_first, ref_counts = fold_groups(key[:, None])
        assert np.array_equal(first, ref_first)
        assert np.array_equal(counts, ref_counts)

    def test_match_rows_finds_equal_rows(self):
        rng = np.random.default_rng(2)
        b = np.unique(rng.integers(0, 6, size=(40, 4)), axis=0)
        for a in (b[::3], np.vstack([b, b + 100])):
            out = _match_rows(a, b)
            for row, hit in zip(a, out):
                found = np.flatnonzero(np.all(b == row, axis=1))
                assert hit == (found[0] if found.size else -1)

    def test_degenerate_shapes(self):
        assert fold_rows(np.zeros((0, 3), dtype=np.int64)).size == 0
        assert np.array_equal(
            fold_rows(np.zeros((4, 0), dtype=np.int64)),
            np.zeros(4, dtype=np.int64),
        )


@pytest.mark.slow
class TestLargeGridParity:
    def test_64_node_cannon_parity(self):
        cluster = Cluster.cpu_cluster(64)
        m = Machine(cluster, Grid(8, 16))
        assert_identical_reports(cannon(m, 2048))

    def test_64_node_mixed_grid_summa(self):
        cluster = Cluster.cpu_cluster(64)
        m = Machine(cluster, Grid(16, 8))
        assert_identical_reports(summa(m, 1999))
