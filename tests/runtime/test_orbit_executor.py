"""Parity: orbit-compressed execution reproduces the scalar results.

The orbit executor groups contexts into symmetry classes and executes
one representative per class; these tests pin its ``SimReport`` —
total/comm/compute time, flops, bytes, traffic, and the per-memory
high-water dict — to the scalar reference interpreter on every Figure 9
case-study schedule, on higher-order kernels, and on deliberately
non-divisible (prime-extent) problems that defeat the symmetry.
"""

import hashlib
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
from repro.algorithms.matmul import matmul_assignment
from repro.codegen.plan import LaunchNode, SeqNode
from repro.core.kernel import compile_kernel
from repro.formats.format import Format
from repro.ir.expr import index_vars
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.runtime import orbit as orbit_module
from repro.runtime.orbit import (
    OrbitExecutor,
    _Classes,
    _fold_keys,
    _hash_rows,
    fold_groups,
    fold_rows,
)
from repro.runtime.trace import Step
from repro.sim.costmodel import CostModel, SkeletonAccumulator
from repro.scheduling.schedule import Schedule
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


def _m44():
    return Machine(Cluster.cpu_cluster(8), Grid(4, 4))


def _m222():
    return Machine(Cluster.cpu_cluster(4), Grid(2, 2, 2))


@pytest.fixture
def m44():
    return _m44()


@pytest.fixture
def m222():
    return _m222()


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


def _nested_matmul(machine, n, memory, layout):
    """``A(i,j) = B(i,k) C(k,j)`` with a sequential ``ko`` loop between
    or above index launches.

    ``layout`` picks the plan: ``"flat"`` is Launch(io) -> Seq(ko) ->
    Launch(jo) over the two dimensions of one grid; ``"levels"`` is
    Launch(node grid) -> Seq(ko) -> Launch(processor grid) of a
    hierarchical machine; ``"top"`` is Seq(ko) -> Launch(both levels).
    """
    levels = len(machine.levels)
    f = Format(["xy -> xy"] * levels, memory=memory)
    stmt, _, _, _ = matmul_assignment(n, f, f, f)
    i, j, k = stmt.all_vars
    io, ii, jo, ji, ko, ki = index_vars("io ii jo ji ko ki")
    if layout == "flat":
        gx, gy = machine.shape
        sched = (
            Schedule(stmt)
            .distribute([i], [io], [ii], Grid(gx))
            .divide(j, jo, ji, gy)
            .divide(k, ko, ki, 2)
            .reorder([ko, jo, ii, ji])
            .distribute(jo)
            .communicate(["A", "C"], jo)
            .communicate("B", ko)
        )
        return compile_kernel(sched, machine)
    iio, iii, jio, jii = index_vars("iio iii jio jii")
    sched = (
        Schedule(stmt)
        .distribute([i, j], [io, jo], [ii, ji], machine.levels[0])
        .distribute(
            [ii, ji], [iio, jio], [iii, jii], machine.levels[1], level=1
        )
        .split(k, ko, ki, n // 4)
    )
    if layout == "top":
        sched.reorder([ko, io, jo, iio, jio, iii, jii])
    else:
        sched.reorder([ko, iio, jio, iii, jii])
    sched.communicate("A", jio).communicate(["B", "C"], ko)
    return compile_kernel(sched, machine)


def _shape(node):
    """The plan tree's Launch/Seq spine, e.g. ``"LSL"``."""
    out = ""
    while isinstance(node, (LaunchNode, SeqNode)):
        out += "L" if isinstance(node, LaunchNode) else "S"
        node = node.body
    return out


def assert_modes_byte_identical(kernel):
    reports = [
        pickle.dumps(kernel.simulate(LASSEN, check_capacity=True, mode=mode))
        for mode in ("scalar", "batched", "orbit")
    ]
    assert reports[0] == reports[1] == reports[2]
    assert_streamed_matches_full(kernel, check_capacity=True)


class TestNestedLaunches:
    """Launches under a multi-context parent or a sequential loop build
    their contexts from the parent's columns; every interpreter must
    agree byte for byte."""

    def test_flat_machine(self, m44):
        kernel = _nested_matmul(m44, 64, MemoryKind.SYSTEM_MEM, "flat")
        assert _shape(kernel.plan.root) == "LSL"
        assert_modes_byte_identical(kernel)

    def test_flat_machine_prime_extent(self, m44):
        kernel = _nested_matmul(m44, 67, MemoryKind.SYSTEM_MEM, "flat")
        assert_modes_byte_identical(kernel)

    def test_hierarchical_machine(self):
        m = Machine(Cluster.gpu_cluster(4), Grid(2, 2), Grid(2, 2))
        kernel = _nested_matmul(m, 64, MemoryKind.GPU_FB, "levels")
        assert _shape(kernel.plan.root) == "LSL"
        assert_modes_byte_identical(kernel)

    def test_sequential_loop_above_launch(self):
        m = Machine(Cluster.gpu_cluster(4), Grid(2, 2), Grid(2, 2))
        kernel = _nested_matmul(m, 64, MemoryKind.GPU_FB, "top")
        # Adjacent distributed loops lower to one launch, whatever
        # their machine levels: plans never nest Launch -> Launch.
        assert _shape(kernel.plan.root) == "SL"
        assert_modes_byte_identical(kernel)

    def test_oom_payloads_match(self):
        # Home pieces fit a 1 GiB framebuffer; the node-level chunk
        # fetches under the sequential loop do not.
        cluster = Cluster.gpu_cluster(4, framebuffer_gib=2)
        m = Machine(cluster, Grid(2, 2), Grid(2, 2))
        kernel = _nested_matmul(m, 16000, MemoryKind.GPU_FB, "levels")
        runs = [
            lambda mode=mode: kernel.simulate(
                LASSEN, check_capacity=True, mode=mode
            )
            for mode in ("scalar", "batched", "orbit")
        ]
        runs.append(lambda: kernel.trace(check_capacity=True, mode="orbit"))
        payloads = []
        for run in runs:
            with pytest.raises(OutOfMemoryError) as err:
                run()
            e = err.value
            payloads.append((e.memory_name, e.needed_bytes, e.capacity_bytes))
        assert payloads == [payloads[0]] * 4
        # Past the three home tiles: the failure is inside the loop.
        assert payloads[0][1] > 3 * (16000 // 4) ** 2 * 8


def _copy_rows_digest(trace) -> str:
    """Digest of every step's ``copies``: order, fields and counts."""
    rows = [
        (step.label, [
            (c.tensor, tuple((iv.lo, iv.hi) for iv in c.rect.intervals),
             c.nbytes, c.src_proc.proc_id, c.dst_proc.proc_id,
             c.src_mem.name, c.dst_mem.name, c.src_coords, c.dst_coords,
             c.reduce, c.count)
            for c in step.copies
        ])
        for step in trace.steps
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: Digests of ``Kernel.trace(mode="orbit")`` step copies as eager
#: per-class ``Copy`` emission produced them; building representatives
#: on first read must reproduce them exactly.
PINNED_COPIES = {
    "cannon": (lambda: cannon(_m44(), 256), "13d0271d966b1f86"),
    "summa": (lambda: summa(_m44(), 256), "94acb7326f7b49a0"),
    "pumma": (lambda: pumma(_m44(), 256), "bb3342bbe58e83b9"),
    "johnson": (lambda: johnson(_m222(), 256), "9b0e78b04a320192"),
    "solomonik": (lambda: solomonik(_m222(), 256), "240e6550b76c3f2c"),
    "cosma": (
        lambda: cosma(Cluster.cpu_cluster(8), 256), "4e2e1e3b7b2985ec"
    ),
    "ttv": (lambda: ttv(_m44(), 64), "59b2c920f2585ff8"),
    "innerprod": (lambda: innerprod(_m44(), 64), "627edc9880b9e4df"),
    "ttm": (lambda: ttm(
        Machine(Cluster.cpu_cluster(8), Grid(16)), 64, r=16
    ), "59b2c920f2585ff8"),
    "mttkrp": (lambda: mttkrp(_m222(), 64, r=16), "8b5762a13af0d809"),
    "cannon-257": (lambda: cannon(_m44(), 257), "2affdddde576c113"),
    "summa-131": (lambda: summa(_m44(), 131), "799ab1a73026adbb"),
    "johnson-101": (lambda: johnson(_m222(), 101), "913320300a0a289f"),
    "systolic-tie": (lambda: cannon(
        Machine(Cluster.cpu_cluster(9, sockets_per_node=1), Grid(3, 3)), 96
    ), "1b82c054f80e4e0f"),
    "gpu-framebuffer": (lambda: cannon(
        Machine(Cluster.gpu_cluster(4), Grid(4, 4)), 512,
        memory=MemoryKind.GPU_FB,
    ), "8b58da0859dfa563"),
    "hierarchical": (lambda: cannon(
        Machine(Cluster.gpu_cluster(4), Grid(2, 2), Grid(2, 2)), 256,
        memory=MemoryKind.GPU_FB,
    ), "549f77e64c2db75e"),
    "host-resident-cannon": (lambda: cannon(
        Machine(Cluster.gpu_cluster(4, gpus_per_node=2), Grid(4, 2)), 512,
        memory=MemoryKind.SYSTEM_MEM,
    ), "33bc11d1e0f9767e"),
    "host-resident-summa": (lambda: summa(
        Machine(Cluster.gpu_cluster(4, gpus_per_node=2), Grid(4, 2)), 512,
        memory=MemoryKind.SYSTEM_MEM,
    ), "0fcd4d3435f5c2cc"),
    "over-decomposition": (lambda: cannon(
        Machine(Cluster.cpu_cluster(2, sockets_per_node=1), Grid(4, 4)), 128
    ), "d7b954270cd1b1a6"),
    "nested-flat": (lambda: _nested_matmul(
        _m44(), 67, MemoryKind.SYSTEM_MEM, "flat"
    ), "f7b8a17735f3e17d"),
    "nested-levels": (lambda: _nested_matmul(
        Machine(Cluster.gpu_cluster(4), Grid(2, 2), Grid(2, 2)), 64,
        MemoryKind.GPU_FB, "levels",
    ), "bd166d3cbd2dddb1"),
}


class TestDeferredRepresentatives:
    """Orbit steps store class representatives as columns and build
    ``Copy`` objects on the first read of ``step.copies``."""

    @pytest.mark.parametrize("case", sorted(PINNED_COPIES))
    def test_copies_match_eager_emission(self, case):
        build, digest = PINNED_COPIES[case]
        trace = build().trace(mode="orbit").trace
        assert _copy_rows_digest(trace) == digest

    @pytest.mark.parametrize("case", ["summa-131", "nested-levels"])
    def test_column_totals_equal_representative_sums(self, case):
        kernel = PINNED_COPIES[case][0]()
        trace = kernel.trace(mode="orbit").trace
        copy_bytes = [step.total_copy_bytes for step in trace.steps]
        inter_bytes = [step.inter_node_bytes for step in trace.steps]
        for step, total, inter_total in zip(
            trace.steps, copy_bytes, inter_bytes
        ):
            cols = step.columns()
            inter = cols.inter
            assert int(cols.nbytes.sum()) == total
            assert int(cols.nbytes[inter].sum()) == inter_total
        # The streamed accumulator prices from the columns alone.
        acc = SkeletonAccumulator(
            CostModel(kernel.machine.cluster, LASSEN), breakdown=True
        )
        streamed = kernel.trace(mode="orbit", skeleton=acc).trace
        assert [p.copy_bytes for p in acc.phases] == copy_bytes
        assert [p.inter_node_bytes for p in acc.phases] == inter_bytes
        assert not any(step._copies for step in streamed.steps)

    def test_deferred_step_pickles_and_compares(self, m44):
        kernel = cannon(m44, 256)
        ours = kernel.trace(mode="orbit").trace.steps
        theirs = kernel.trace(mode="orbit").trace.steps
        pos = next(i for i, s in enumerate(ours) if s._deferred)
        step, twin = ours[pos], theirs[pos]
        eager = Step(
            label=twin.label,
            copies=[c for reps in twin._deferred for c in reps.copies()],
            work=twin.work,
        )
        restored = pickle.loads(pickle.dumps(step))
        assert restored._deferred  # pickled as columns, not copies
        assert restored == twin == step == eager
        assert repr(restored) == repr(twin) == repr(step) == repr(eager)
        assert not step._deferred

    def test_direct_appends_keep_emission_order(self, m44):
        step = next(
            s for s in cannon(m44, 256).trace(mode="orbit").trace.steps
            if s._deferred
        )
        first = list(step._deferred)
        extra = first[0].copies()[0]
        step.copies.append(extra)  # builds the queued representatives
        step.defer_copies(first[-1])
        built = [c for reps in first for c in reps.copies()]
        assert step.copies == built + [extra] + first[-1].copies()


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
        high_water = result.trace.memory_high_water
        full = kernel.trace(check_capacity=False, mode="orbit").trace
        assert model.price_skeleton(probe, high_water) == model.time_trace(
            full
        )

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
        first, counts, _ = _fold_keys(key)
        ref_first, ref_counts = fold_groups(key[:, None])
        assert np.array_equal(first, ref_first)
        assert np.array_equal(counts, ref_counts)

    def test_holder_map_finds_equal_rectangles(self):
        # Translated classes find the previous class with their
        # rectangle through the row hashes both tables carry.
        def classes(cols):
            ones = np.ones(cols.shape[0], dtype=np.int64)
            return _Classes(np.arange(cols.shape[0]), cols, ones,
                            _hash_rows(cols))

        rng = np.random.default_rng(2)
        b = np.unique(rng.integers(0, 6, size=(40, 4)), axis=0)
        prev = classes(b)
        for a in (b[::3], np.vstack([b, b + 100])):
            out = OrbitExecutor._holder_map(prev, classes(a), True, None)
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
