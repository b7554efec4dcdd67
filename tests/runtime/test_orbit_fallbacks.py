"""The orbit executor's class-batched irregular paths — parity pinned.

Requests spanning several home pieces (multi-piece redistribution),
reduction flushes, leaf-level communication and re-requests of held
rectangles all execute as columnar class-level operations. These tests
pin

* byte-identical ``SimReport``s (and ``OutOfMemoryError`` payloads)
  against the scalar reference interpreter on schedules that exercise
  each path, and
* that the batched paths actually ran (coverage counters), so a
  regression cannot silently re-route through an untested path.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    Assignment,
    Format,
    Grid,
    Machine,
    Schedule,
    TensorVar,
    compile_kernel,
    index_vars,
)
from repro.algorithms.higher_order import innerprod, mttkrp
from repro.algorithms.matmul import cannon, cosma, johnson, solomonik, summa
from repro.bench.weak_scaling import square_grid, weak_matrix_size
from repro.core.transfer import transfer_kernel
from repro.faults.events import FaultPlan, KillNode
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.obs.metrics import METRICS
from repro.runtime.batchbounds import batch_bounds
from repro.runtime.orbit import (
    OrbitExecutor, _Chunk, _StepBuilder, machine_tables,
)
from repro.runtime.trace import Step
from repro.sim.costmodel import CostModel
from repro.sim.params import LASSEN
from repro.util.errors import LoweringError, NodeFailure, OutOfMemoryError

from carry_off import (
    CarryOff, assert_carry_exact, assert_same_steps, run_priced,
)


def run_orbit(kernel, check_capacity=False, executor_cls=OrbitExecutor):
    """Execute on a fresh orbit executor; return (executor, report)."""
    executor = executor_cls(kernel.plan, check_capacity=check_capacity)
    result = executor.run()
    model = CostModel(kernel.machine.cluster, LASSEN)
    return executor, model.time_trace(result.trace)


def assert_parity(kernel, check_capacity=False, executor_cls=OrbitExecutor):
    executor, orbit = run_orbit(kernel, check_capacity, executor_cls)
    scalar = kernel.simulate(
        LASSEN, check_capacity=check_capacity, mode="scalar"
    )
    assert orbit == scalar, f"{orbit!r} != {scalar!r}"
    return executor


class _EmitCounter(OrbitExecutor):
    """Records the bulk emissions each straddling batch makes."""

    def run(self, inputs=None):
        self.bulk_emits = 0
        self.multi_piece_emits = []
        self.flush_emits = 0
        return super().run(inputs)

    def _emit_bulk(self, *args, **kwargs):
        self.bulk_emits += 1
        return super()._emit_bulk(*args, **kwargs)

    def _emit_multi_piece(self, *args):
        before = self.bulk_emits
        super()._emit_multi_piece(*args)
        self.multi_piece_emits.append(self.bulk_emits - before)

    def _orbit_flush(self, *args):
        before = self.bulk_emits
        super()._orbit_flush(*args)
        self.flush_emits += self.bulk_emits - before


def johnson_transposed_output(n, cluster=None):
    """Johnson's schedule with the output tiled transposed (``yx``) on a
    2x4x2 grid: the partials straddle several owners' home pieces."""
    A = TensorVar("A", (n, n), Format("xy -> yx0"))
    B = TensorVar("B", (n, n), Format("xz -> x0z"))
    C = TensorVar("C", (n, n), Format("zy -> 0yz"))
    i, j, k = index_vars("i j k")
    io, ii, jo, ji, ko, ki = index_vars("io ii jo ji ko ki")
    sched = (
        Schedule(Assignment(A[i, j], B[i, k] * C[k, j]))
        .distribute([i, j, k], [io, jo, ko], [ii, ji, ki], Grid(2, 4, 2))
        .communicate([A, B, C], ko)
    )
    return compile_kernel(
        sched, Machine(cluster or Cluster.cpu_cluster(8), Grid(2, 4, 2))
    )


def four_socket_cluster(capacity):
    """Four nodes of four CPU sockets sharing one system memory each."""
    return Cluster.build(
        num_nodes=4,
        procs_per_node=4,
        proc_kind=ProcessorKind.CPU_SOCKET,
        proc_mem_kind=MemoryKind.SYSTEM_MEM,
        proc_mem_capacity=capacity,
        system_mem_capacity=capacity,
    )


def outcome(simulate):
    """A simulation's report, or its ``OutOfMemoryError`` payload."""
    try:
        return simulate()
    except OutOfMemoryError as err:
        return (err.memory_name, err.needed_bytes, err.capacity_bytes)


@pytest.fixture
def m44():
    return Machine(Cluster.cpu_cluster(8), Grid(4, 4))


@pytest.fixture
def m222():
    return Machine(Cluster.cpu_cluster(4), Grid(2, 2, 2))


class TestReductionFlushes:
    """Reduction write-backs: columnar flush batches."""

    def test_solomonik_flush(self, m222):
        executor = assert_parity(solomonik(m222, 256))
        assert executor.flush_batches > 0

    def test_mttkrp_flush(self, m222):
        executor = assert_parity(mttkrp(m222, 64, r=16))
        assert executor.flush_batches > 0

    def test_innerprod_flush(self, m44):
        executor = assert_parity(innerprod(m44, 64))
        assert executor.flush_batches > 0

    def test_prime_extent_reduction(self, m222):
        # Ragged partials: per-member rect columns are non-uniform.
        executor = assert_parity(solomonik(m222, 101))
        assert executor.flush_batches > 0

    @pytest.mark.parametrize("n", [256, 257])
    def test_straddling_partials(self, n):
        # Partials that no single owner covers decompose per owner
        # piece, and each flushed tensor still emits once.
        executor = assert_parity(
            johnson_transposed_output(n), executor_cls=_EmitCounter
        )
        assert executor.flush_batches > 0
        assert executor.flush_emits == executor.flush_batches

    @pytest.mark.parametrize("cap_delta,oom", [(0, False), (-1, True)])
    def test_flush_stages_one_piece_at_a_time(self, cap_delta, oom):
        # On four-socket nodes two owner pieces of one straddling
        # partial share a node's system memory, and staging their
        # transient reduction instances (add, release, next piece) sets
        # that memory's high-water mark. A capacity of exactly that mark
        # fits on both interpreters; one byte less fails on both with
        # the same payload. Staging every piece before releasing any
        # would overflow the exact capacity.
        n = 256
        free = johnson_transposed_output(n, four_socket_cluster(2**40))
        peak = max(
            free.simulate(LASSEN, mode="scalar").memory_high_water.values()
        )
        kernel = johnson_transposed_output(
            n, four_socket_cluster(peak + cap_delta)
        )
        executor = OrbitExecutor(kernel.plan, check_capacity=True)
        model = CostModel(kernel.machine.cluster, LASSEN)
        orbit = outcome(lambda: model.time_trace(executor.run().trace))
        scalar = outcome(
            lambda: kernel.simulate(
                LASSEN, check_capacity=True, mode="scalar"
            )
        )
        assert orbit == scalar, f"{orbit!r} != {scalar!r}"
        assert isinstance(scalar, tuple) == oom
        assert executor.flush_batches > 0

    @pytest.mark.parametrize("n,grid,nodes", [
        (64, (2, 4), 4), (101, (4, 4), 8),
    ])
    def test_flush_at_sequential_loop(self, n, grid, nodes):
        # The output is communicated at the k-loop, so each iteration's
        # partials flush at the end of the iteration (a sequential-loop
        # flush, not a task-end one); the transposed output makes them
        # straddle owner pieces.
        A = TensorVar("A", (n, n), Format("xy -> yx"))
        B = TensorVar("B", (n, n), Format("xy -> xy"))
        C = TensorVar("C", (n, n), Format("xy -> xy"))
        i, j, k = index_vars("i j k")
        io, ii, jo, ji, ko, ki = index_vars("io ii jo ji ko ki")
        sched = (
            Schedule(Assignment(A[i, j], B[i, k] * C[k, j]))
            .distribute([i, j], [io, jo], [ii, ji], Grid(*grid))
            .split(k, ko, ki, 16)
            .reorder([ko, ii, ji, ki])
            .communicate([A, B, C], ko)
            .substitute([ii, ji, ki], "blas_gemm")
        )
        kernel = compile_kernel(
            sched, Machine(Cluster.cpu_cluster(nodes), Grid(*grid))
        )
        executor = assert_parity(kernel)
        iterations = -(-n // 16)
        assert executor.flush_batches == iterations
        labels = [s.label for s in executor.trace.steps]
        assert labels.count("ko reduction") == iterations


class TestMultiPieceFetch:
    """Requests spanning several home pieces resolve per rect class."""

    def test_cosma_stays_exact(self):
        # COSMA's recursive splits stress non-uniform phases, and its
        # partials flush through the reduction path.
        executor = assert_parity(
            cosma(Cluster.cpu_cluster(8), 256)
        )
        assert executor.flush_batches > 0

    def test_redistribution_transfer_kernel(self):
        # A pipeline-style redistribution: the identity kernel between
        # mismatched layouts splits nearly every request across owners.
        cluster = Cluster.cpu_cluster(8)
        machine = Machine(cluster, Grid(4, 4))
        src = TensorVar("S", (128, 128), Format("xy -> xy"))
        # Row-replicating the 2-D-tiled source: every destination task
        # reads a full row panel, which spans four source pieces.
        kernel = transfer_kernel(src, Format("xy -> x*"), machine)
        executor = assert_parity(kernel)
        assert executor.multi_piece_batches > 0

    @pytest.mark.parametrize("build,grid,n", [
        (summa, (8, 4), 257), (cannon, (16, 2), 1000),
    ])
    def test_one_emission_per_batch(self, build, grid, n):
        # Task tiles straddling home pieces: every class decomposes in
        # one call and the whole batch emits once.
        kernel = build(Machine(Cluster.cpu_cluster(16), Grid(*grid)), n)
        executor = assert_parity(
            kernel, executor_cls=_EmitCounter
        )
        assert executor.multi_piece_batches > 0
        assert executor.multi_piece_emits == (
            [1] * executor.multi_piece_batches
        )

    def test_class_without_owner_raises(self, m44):
        # Like the scalar decomposition, a request no home piece holds
        # any of (here: empty in one dimension) is a lowering error.
        kernel = summa(m44, 64)
        executor = OrbitExecutor(kernel.plan)
        coords = np.zeros((2, 2), dtype=np.int64)
        lo = np.array([[0, 3], [0, 5]])
        hi = np.array([[8, 3], [8, 9]])
        with pytest.raises(LoweringError, match="no valid instance"):
            executor._owner_rows(
                "B", kernel.plan.tensors["B"], coords, lo, hi
            )


class TestLeafComm:
    """Leaf-level communication phases run the batched orbit path."""

    def _leaf_comm_kernel(self, n=64, k=96):
        f = Format("xy -> xy")
        A = TensorVar("A", (n, n), f)
        B = TensorVar("B", (n, k), f)
        C = TensorVar("C", (k, n), f)
        i, j, kk = index_vars("i j k")
        io, ii, jo, ji = index_vars("io ii jo ji")
        stmt = Assignment(A[i, j], B[i, kk] * C[kk, j])
        sched = Schedule(stmt).distribute(
            [i, j], [io, jo], [ii, ji], Grid(2, 2)
        )
        return compile_kernel(
            sched, Machine(Cluster.cpu_cluster(2), Grid(2, 2))
        )

    def test_default_lowered_matmul(self):
        # Tensors without an explicit communicate tag fetch (and the
        # output flushes) at the leaf — the naive completion.
        executor = assert_parity(self._leaf_comm_kernel())
        assert executor.leaf_comm_phases > 0

    def test_non_divisible_leaf_comm(self):
        executor = assert_parity(self._leaf_comm_kernel(n=67, k=51))
        assert executor.leaf_comm_phases > 0

    def test_staged_partials_are_not_reused(self):
        # A transposed output makes every k-step's leaf stage partials
        # that its own flush drains: the steps' work columns repeat, but
        # replaying a step would skip staging the next step's partials.
        n = 64
        A = TensorVar("A", (n, n), Format("xy -> yx"))
        B = TensorVar("B", (n, n), Format("xy -> xy"))
        C = TensorVar("C", (n, n), Format("xy -> xy"))
        i, j, k = index_vars("i j k")
        io, ii, jo, ji, ko, ki = index_vars("io ii jo ji ko ki")
        sched = (
            Schedule(Assignment(A[i, j], B[i, k] * C[k, j]))
            .distribute([i, j], [io, jo], [ii, ji], Grid(2, 2))
            .split(k, ko, ki, n // 4)
            .reorder([ko, ii, ji, ki])
            .communicate([B, C], ko)
        )
        kernel = compile_kernel(
            sched, Machine(Cluster.cpu_cluster(2), Grid(2, 2))
        )
        executor = assert_parity(kernel)
        assert executor.flush_batches == 4


class _HeldRerequestCounter(OrbitExecutor):
    """Counts full resolves where a member re-requests a rectangle it
    still holds as a cached instance (the holder-local join)."""

    def run(self, inputs=None):
        self.held_rerequests = 0
        return super().run(inputs)

    def _resolve_tensor(self, name, name_pos, n_names, region, block,
                        step):
        mirror = self.env._mirrors.get(name)
        held = set()
        if mirror is not None:
            for r in mirror.snapshot():
                held.add((
                    tuple(mirror.coords[r]),
                    tuple(mirror.lo[r]),
                    tuple(mirror.hi[r]),
                ))
        lo, hi, live = batch_bounds(
            block, self.graph, self.plan.accesses[name], self.full_env
        )
        rerequest = any(
            (tuple(region.coords[m]), tuple(lo[:, m]), tuple(hi[:, m]))
            in held
            for m in np.flatnonzero(live)
        )
        before = self.phase_full
        out = super()._resolve_tensor(
            name, name_pos, n_names, region, block, step
        )
        if rerequest and self.phase_full > before:
            self.held_rerequests += 1
        return out


class TestHolderLocal:
    """A member re-requesting a rectangle it still holds fetches nothing."""

    def test_rerequest_of_held_rectangle(self):
        # B's row panel depends only on the distributed i, so every
        # j-iteration re-requests the panel the previous one fetched
        # (and still holds until this phase commits).
        n = 64
        A = TensorVar("A", (n, n), Format("xy -> x"))
        B = TensorVar("B", (n, n), Format("xy -> y"))
        C = TensorVar("C", (n, n), Format("xy -> x"))
        i, j, k = index_vars("i j k")
        io, ii, jo, ji = index_vars("io ii jo ji")
        sched = (
            Schedule(Assignment(A[i, j], B[i, k] * C[k, j]))
            .distribute([i], [io], [ii], Grid(4))
            .split(j, jo, ji, 16)
            .reorder([jo, ii, ji, k])
            .communicate([B, C], jo)
        )
        kernel = compile_kernel(
            sched, Machine(Cluster.cpu_cluster(2), Grid(4))
        )
        executor = assert_parity(kernel, executor_cls=_HeldRerequestCounter)
        assert executor.held_rerequests > 0


class TestNoFallbackAcrossSuite:
    """The flagship schedules stay byte-identical to scalar."""

    @pytest.mark.parametrize("build,n", [
        (cannon, 256), (summa, 256), (cannon, 257),
    ])
    def test_matmuls(self, m44, build, n):
        assert_parity(build(m44, n))

    def test_rotation_replay_stays_exact(self):
        # Long systolic loops hit the conjugate replay fast path; the
        # reports must stay byte-identical to scalar.
        m = Machine(Cluster.cpu_cluster(64), Grid(16, 8))
        assert_parity(cannon(m, 2048))
        assert_parity(summa(m, 1999))


class _FullResolveCounter(OrbitExecutor):
    """Records, per tensor, the phases that resolved in full."""

    def run(self, inputs=None):
        self.full_by_tensor = Counter()
        return super().run(inputs)

    def _resolve_tensor(self, name, *args):
        before = self.phase_full
        out = super()._resolve_tensor(name, *args)
        self.full_by_tensor[name] += self.phase_full - before
        return out


class _MapChecks(OrbitExecutor):
    """Records, per tensor, how many maps each replay verified."""

    def run(self, inputs=None):
        self.checks = {}
        self._count = 0
        return super().run(inputs)

    def _map_carry(self, *args):
        self._count += 1
        return super()._map_carry(*args)

    def _replay_conjugate(self, memo, name, *args):
        before = self._count
        out = super()._replay_conjugate(memo, name, *args)
        self.checks.setdefault(name, []).append(self._count - before)
        return out


class TestConjugateReplay:
    """Steady systolic phases replay as conjugates of the previous one.

    An 8x4 grid is narrower than Cannon's 8 tiles, so its rotations
    leave a seam of members the torus shift does not explain; SUMMA's
    broadcast roots move every phase, so its phases are shifted and
    translated images of each other.
    """

    @pytest.fixture
    def m84(self):
        return Machine(Cluster.cpu_cluster(16), Grid(8, 4))

    def _replayed(self, kernel):
        executor = _FullResolveCounter(kernel.plan)
        result = executor.run()
        orbit = CostModel(kernel.machine.cluster, LASSEN).time_trace(
            result.trace
        )
        scalar = kernel.simulate(LASSEN, mode="scalar")
        assert orbit == scalar, f"{orbit!r} != {scalar!r}"
        assert executor.phase_replays == (
            executor.phase_conjugate + executor.phase_seam
        )
        assert executor.full_by_tensor
        assert max(executor.full_by_tensor.values()) <= 3
        assert executor.leaf_reused > 0
        return executor

    def test_cannon_seam(self, m84):
        executor = self._replayed(cannon(m84, 2048))
        assert executor.phase_seam > 0

    def test_summa_moving_roots(self, m84):
        executor = self._replayed(summa(m84, 2048))
        assert executor.phase_conjugate > 0

    def test_summa_alternating_maps(self, m84):
        # B's broadcast roots move every other phase, so its maps
        # alternate: its second and third replays verify both of the
        # last two maps. Once a replay took the older one, the next
        # tries that one first, and every later replay verifies one.
        executor = _MapChecks(summa(m84, 2048).plan)
        executor.run()
        assert executor.phase_replays == 14
        assert executor.checks == {
            "B": [1, 2, 2, 1, 1, 1, 1], "C": [1] * 7,
        }

    #: Replays applied as deltas, and replayed members carried /
    #: re-derived, at the weak-scaled points.
    MEMBERS = {
        ("cannon", 64): (30, 2650, 838),
        ("summa", 64): (30, 3480, 0),
        ("cannon", 256): (62, 26314, 3958),
        ("summa", 256): (62, 30256, 0),
    }

    @pytest.mark.parametrize("builder", [cannon, summa])
    @pytest.mark.parametrize(
        "nodes, steps, replays", [(64, 18, 30), (256, 34, 62)]
    )
    def test_weak_scaled_replay_counts(self, builder, nodes, steps, replays):
        # Exact counts at the Fig 15 weak-scaled sizes: a steady phase
        # that stops replaying shows here as fewer replays, and a replay
        # that stops carrying as fewer deltas and carried members.
        cluster = Cluster.cpu_cluster(nodes)
        machine = Machine(cluster, Grid(*square_grid(cluster.num_processors)))
        kernel = builder(machine, weak_matrix_size(8192, nodes))
        before = METRICS.snapshot(sources=False)
        kernel.simulate(LASSEN)
        after = METRICS.snapshot(sources=False)
        names = (
            "orbit.steps", "orbit.phase_replays", "orbit.phase_deltas",
            "orbit.members_carried", "orbit.members_rederived",
        )
        delta = {
            name: after.get(name, 0) - before.get(name, 0) for name in names
        }
        deltas, carried, rederived = self.MEMBERS[builder.__name__, nodes]
        assert delta == dict(zip(
            names, (steps, replays, deltas, carried, rederived)
        ))

    def test_ragged_tiles_not_reused(self, m84):
        # n=257 gives ragged tiles whose leaf work differs between
        # iterations; reusing a previous iteration's would break parity.
        assert_parity(cannon(m84, 257))


class _LeafKeyCounter(OrbitExecutor):
    """Counts leaf calls and the leaf keys they compute."""

    def __init__(self, plan):
        super().__init__(plan)
        self.leaf_calls = 0
        self.keys = 0

    def _orbit_leaf(self, *args, **kwargs):
        self.leaf_calls += 1
        return super()._orbit_leaf(*args, **kwargs)

    def _leaf_key(self, node, block):
        self.keys += 1
        return super()._leaf_key(node, block)


class TestLeafMemoScope:
    """Only leaves a sequential loop repeats within a region compute a
    leaf key; the reports stay equal to the scalar interpreter's."""

    def _run(self, kernel):
        executor = _LeafKeyCounter(kernel.plan)
        result = executor.run()
        orbit = CostModel(kernel.machine.cluster, LASSEN).time_trace(
            result.trace
        )
        assert orbit == kernel.simulate(LASSEN, mode="scalar")
        return executor

    def test_one_shot_leaf_computes_no_key(self):
        machine = Machine(Cluster.cpu_cluster(4), Grid(2, 2, 2))
        executor = self._run(johnson(machine, 512))
        assert executor.leaf_calls > 0
        assert executor.keys == 0
        assert executor.leaf_reused == 0

    def test_sequenced_leaf_keys_every_call(self):
        machine = Machine(Cluster.cpu_cluster(8), Grid(4, 4))
        executor = self._run(cannon(machine, 512))
        assert executor.keys == executor.leaf_calls > 1
        assert executor.leaf_reused > 0


class _WrongGuesses(OrbitExecutor):
    """Feeds the carry a wrong source guess for every member: the grid
    point after its true previous source. The proofs must reject them."""

    def _carried_sources(self, memo, sources, *args):
        wrong = ((sources[0] + 1) % self._mt.size, sources[1])
        return super()._carried_sources(memo, wrong, *args)


class _PayloadLog(OrbitExecutor):
    """Counts replays whose registration has unequal member payloads."""

    def run(self, inputs=None):
        self.ragged_replays = 0
        return super().run(inputs)

    def _registration(self, *args, prev=None, seam=None):
        reg = super()._registration(*args, prev=prev, seam=seam)
        if prev is not None and reg.uniform is None:
            self.ragged_replays += 1
        return reg


class TestCarriedReplay:
    """The carried replay equals the derivation it skips, byte for byte:
    step columns (collective groups included), class representatives,
    memory high-water marks and the priced report."""

    @pytest.mark.parametrize("builder", [cannon, summa])
    @pytest.mark.parametrize("nodes, grid, n", [
        (16, (8, 4), 2048),   # Cannon's seam; SUMMA's moving roots
        (64, (16, 8), 2048),
        (16, (8, 4), 257),    # ragged tiles
    ])
    def test_small_grids(self, builder, nodes, grid, n):
        machine = Machine(Cluster.cpu_cluster(nodes), Grid(*grid))
        on = assert_carry_exact(builder(machine, n))
        assert on.members_carried > 0

    @pytest.mark.parametrize("builder", [cannon, summa])
    def test_gpu_cluster(self, builder):
        machine = Machine(Cluster.gpu_cluster(4), Grid(4, 4))
        assert_carry_exact(builder(machine, 1024))

    @pytest.mark.parametrize("builder", [cannon, summa])
    @pytest.mark.parametrize("nodes", [64, 256])
    def test_weak_scaled(self, builder, nodes):
        cluster = Cluster.cpu_cluster(nodes)
        machine = Machine(cluster, Grid(*square_grid(cluster.num_processors)))
        on = assert_carry_exact(
            builder(machine, weak_matrix_size(8192, nodes))
        )
        assert on.members_carried > on.members_rederived

    @pytest.mark.parametrize("builder", [cannon, summa])
    def test_shared_processors(self, builder):
        # Four grid points per processor: collective roots do not move
        # with the members, so chunk rows and groups are not carried,
        # while classes, sources and payloads still are.
        machine = Machine(Cluster.cpu_cluster(4), Grid(8, 4))
        assert not machine_tables(machine).bijective
        on = assert_carry_exact(builder(machine, 2048))
        assert on.phase_deltas > 0

    @pytest.mark.parametrize("grid, n", [
        ((8, 4), 257),  # every phase has ragged edge tiles
        ((4, 8), 260),  # a phase of equal tiles meets a ragged seam
    ])
    def test_ragged_payloads(self, grid, n):
        # A replay whose members' payloads differ computes and charges
        # them per member, not from the delta.
        machine = Machine(Cluster.cpu_cluster(16), Grid(*grid))
        on = assert_carry_exact(cannon(machine, n), _PayloadLog)
        assert on.phase_deltas > 0
        assert on.ragged_replays > 0

    @pytest.mark.parametrize("builder", [cannon, summa])
    def test_fault_kill_in_steady_loop(self, builder):
        # A kill after several replays: the partial trace keeps the
        # per-member columns of every completed step, so it prices, and
        # equally with and without the carry.
        machine = Machine(Cluster.cpu_cluster(16), Grid(8, 4))
        kernel = builder(machine, 2048)
        steps = len(run_priced(OrbitExecutor, kernel)[1].trace.steps)
        plan = FaultPlan(events=(KillNode(phase=steps - 2, node=3),))
        runs = []
        for executor_cls in (OrbitExecutor, CarryOff):
            executor = executor_cls(kernel.plan, fault_plan=plan)
            with pytest.raises(NodeFailure) as exc:
                executor.run()
            runs.append((executor, exc.value.partial_trace))
        (on, partial_on), (off, partial_off) = runs
        assert on.phase_deltas > 0
        assert len(partial_on.steps) == steps - 2
        assert_same_steps(partial_on, partial_off)
        model = CostModel(kernel.machine.cluster, LASSEN)
        assert model.time_trace(partial_on) == model.time_trace(partial_off)

    def test_sanitize(self):
        # A delta-applied orbit trace kept whole (no skeleton) prices as
        # the fresh run does.
        machine = Machine(Cluster.cpu_cluster(16), Grid(8, 4))
        kernel = cannon(machine, 2048)
        executor = OrbitExecutor(kernel.plan)
        result = executor.run()
        assert executor.phase_deltas > 0
        model = CostModel(kernel.machine.cluster, LASSEN)
        assert model.time_trace(result.trace) == run_priced(
            OrbitExecutor, kernel
        )[2]

    @pytest.mark.parametrize("builder", [cannon, summa])
    def test_wrong_guesses_are_rejected(self, builder):
        # Every carried source is proven, not trusted: corrupted guesses
        # fall back to the derivation and the result does not move.
        machine = Machine(Cluster.cpu_cluster(64), Grid(16, 8))
        kernel = builder(machine, 2048)
        wrong = assert_carry_exact(kernel, _WrongGuesses)
        right = assert_carry_exact(kernel)
        assert wrong.members_rederived > right.members_rederived


def test_carried_groups_equal_the_fold():
    # A step whose rows are an earlier step's rows permuted, with the
    # rectangles translated and the roots moved by a processor
    # bijection, takes that step's group partition through the row map
    # and ranks it as the full fold does. The bijection reverses the
    # roots' order, so two groups of one rectangle swap ranks.
    tables = machine_tables(Machine(Cluster.cpu_cluster(4), Grid(4, 2)))
    lo = np.column_stack([np.arange(8) // 2 * 10, np.zeros(8, np.int64)])
    root = np.array([0, 0, 1, 2, 3, 3, 4, 4])

    def chunk(lo, root):
        ones = np.ones(8, dtype=np.int64)
        return _Chunk(
            tensor_id=0, lo=lo.T, hi=lo.T + 10, nbytes=ones, src_proc=root,
            dst_proc=(root + 1) % 8, src_gpu=ones < 0, dst_gpu=ones < 0,
        )

    prev = _StepBuilder(Step("prev"), [chunk(lo, root)])
    prev.finalize(tables, {"B": 0}, 100)
    rows = np.roll(np.arange(8), 3)
    moved = chunk(lo[rows] + [40, 10], 7 - root[rows])
    folded = _StepBuilder(Step("folded"), [replace(moved)])
    folded.finalize(tables, {"B": 0}, 100)
    moved.carry = (prev, 0, rows, False)
    carried = _StepBuilder(Step("carried"), [moved])
    carried.finalize(tables, {"B": 0}, 100)
    assert carried.columns.num_groups == 5
    assert np.array_equal(carried.columns.group, folded.columns.group)
