"""The schedule space: decision vectors, canonicalization, replay."""

import pytest

from repro import Kernel, Machine, compile_kernel
from repro.tuner.space import (
    Decision,
    canonicalize,
    coarsen,
    enumerate_space,
    factorizations,
    formats_for,
    from_heuristic,
    normalize,
    realize,
    scale_assignment,
)
from repro.tuner.workloads import matmul, mttkrp, ttm, ttv
from repro.util.errors import ScheduleError


def cannon_decision(grid=(2, 2)):
    return Decision(
        grid=grid, dist=("i", "j"), seq="k", steps_dim=0, rotate=(0, 1),
        tiled=("B", "C"), step_comm=("B", "C"), leaf="gemm",
    )


class TestFactorizations:
    def test_all_orderings(self):
        assert sorted(factorizations(8, 3)) == [
            (2, 2, 2), (2, 4), (4, 2), (8,),
        ]

    def test_max_dims_caps_rank(self):
        assert sorted(factorizations(8, 2)) == [(2, 4), (4, 2), (8,)]

    def test_single_processor(self):
        assert factorizations(1, 3) == [(1,)]


class TestCanonicalization:
    def test_grid_dim_permutation_collapses(self):
        a = Decision(grid=(4, 2), dist=("i", "j"))
        b = Decision(grid=(2, 4), dist=("j", "i"))
        assert canonicalize(a) == canonicalize(b)

    def test_permutation_carries_rotation_and_steps(self):
        a = Decision(
            grid=(4, 2), dist=("i", "j"), seq="k", steps_dim=0,
            rotate=(0,), tiled=("B",), step_comm=("B",),
        )
        b = Decision(
            grid=(2, 4), dist=("j", "i"), seq="k", steps_dim=1,
            rotate=(1,), tiled=("B",), step_comm=("B",),
        )
        assert canonicalize(a) == canonicalize(b)

    def test_rotation_sources_are_a_set(self):
        # rotate(k, [io, jo]) == rotate(k, [jo, io]) by construction.
        a = canonicalize(cannon_decision())
        b = canonicalize(
            Decision(
                grid=(2, 2), dist=("i", "j"), seq="k", steps_dim=0,
                rotate=(1, 0), tiled=("B", "C"), step_comm=("B", "C"),
                leaf="gemm",
            )
        )
        assert a == b

    def test_equal_extent_dims_collapse_symmetric_rotations(self):
        # On a square grid, rotating by dim 0 with dist (i, j) is the
        # same class as rotating by dim 1 with dist (j, i).
        a = Decision(
            grid=(2, 2), dist=("i", "j"), seq="k", steps_dim=0,
            rotate=(0,), tiled=("B",), step_comm=("B",),
        )
        b = Decision(
            grid=(2, 2), dist=("j", "i"), seq="k", steps_dim=0,
            rotate=(1,), tiled=("B",), step_comm=("B",),
        )
        assert canonicalize(a) == canonicalize(b)
        # ... but rotating dim 1 with the SAME dist is a different
        # schedule (a different input stays put).
        c = Decision(
            grid=(2, 2), dist=("i", "j"), seq="k", steps_dim=0,
            rotate=(1,), tiled=("B",), step_comm=("B",),
        )
        assert canonicalize(a) != canonicalize(c)

    def test_dead_sequencing_folds_away(self):
        # A sequenced loop nothing communicates at is the one-shot
        # candidate.
        a = Decision(
            grid=(2, 2), dist=("i", "j"), seq="k", steps_dim=0,
            rotate=(0, 1), tiled=("B",), step_comm=(),
        )
        assert canonicalize(a).seq is None
        assert canonicalize(a).rotate == ()

    def test_identity_rotation_dropped(self):
        a = Decision(
            grid=(4, 1), dist=("i", "j"), seq="k", steps_dim=0,
            rotate=(0, 1), tiled=("B",), step_comm=("B",),
        )
        canon = canonicalize(a)
        # Only the extent-4 dimension's rotation survives (rotating an
        # extent-1 dimension is the identity).
        assert len(canon.rotate) == 1
        assert all(canon.grid[d] > 1 for d in canon.rotate)

    def test_normalize_folds_untileable_inputs(self):
        stmt = matmul(64)
        d = Decision(
            grid=(2, 2), dist=("i", "k"), tiled=("B",),
        )
        # B(i, k) is fully indexed by the distributed vars: not tileable.
        assert normalize(stmt, d).tiled == ()

    def test_normalize_folds_gemm_for_elementwise(self):
        stmt = ttv(16)
        d = Decision(grid=(2, 2), dist=("i", "j"), leaf="gemm")
        # TTV *is* a contraction (k reduces), so gemm survives ...
        assert normalize(stmt, d).leaf == "gemm"
        # ... but an elementwise statement folds to loops.
        from repro.ir.expr import index_vars
        from repro.ir.tensor import Assignment, TensorVar

        A = TensorVar("A", (16, 16))
        B = TensorVar("B", (16, 16))
        i, j = index_vars("i j")
        ew = Assignment(A[i, j], B[i, j] * B[i, j])
        assert normalize(ew, d).leaf == "loops"

    def test_encode_decode_roundtrip(self):
        for d in (
            cannon_decision(),
            Decision(grid=(8,), dist=("i",)),
            Decision(grid=(2, 2, 2), dist=("i", "j", "k"),
                     output_style="replicate"),
        ):
            assert Decision.decode(d.encode()) == d


class TestSpaceSizes:
    """Pinned canonical space sizes; changes here are intentional
    search-space changes, not incidental drift."""

    @pytest.mark.parametrize(
        "build,procs,expected",
        [
            (lambda: matmul(64), 4, 76),
            (lambda: matmul(64), 8, 216),
            (lambda: ttm(32, 16), 4, 148),
            (lambda: ttm(32, 16), 8, 544),
            (lambda: mttkrp(32, 16), 4, 488),
            (lambda: ttv(32), 4, 40),
        ],
    )
    def test_pinned_counts(self, build, procs, expected):
        assert len(enumerate_space(build(), procs)) == expected

    def test_space_is_canonical_and_sorted(self):
        stmt = matmul(64)
        space = enumerate_space(stmt, 8)
        assert [d.key() for d in space] == sorted(d.key() for d in space)
        assert all(normalize(stmt, d) == d for d in space)

    def test_space_contains_fig9_families(self):
        space = enumerate_space(matmul(256), 16)
        # Cannon: square grid, both inputs tiled, rotation by both dims.
        assert normalize(matmul(256), cannon_decision((4, 4))) in space
        # SUMMA: same but broadcast steps.
        summa = Decision(
            grid=(4, 4), dist=("i", "j"), seq="k", steps_dim=0,
            rotate=(), tiled=("B", "C"), step_comm=("B", "C"),
            leaf="gemm",
        )
        assert normalize(matmul(256), summa) in space
        # Johnson: 3-D grid, reduction distributed, output on a face.
        johnson = Decision(
            grid=(4, 2, 2), dist=("i", "j", "k"),
            output_style="face", leaf="gemm",
        )
        assert normalize(matmul(256), johnson) in space


class TestFormats:
    def test_cannon_formats_fully_tiled(self):
        fmts = formats_for(matmul(64), cannon_decision())
        assert fmts["A"].notation() == "ab -> ab"
        assert fmts["B"].notation() == "ab -> ab"
        assert fmts["C"].notation() == "ab -> ab"

    def test_pull_formats_replicate(self):
        d = Decision(grid=(2, 2), dist=("i", "j"))
        fmts = formats_for(matmul(64), d)
        assert fmts["B"].notation() == "ab -> a*"
        assert fmts["C"].notation() == "ab -> *b"

    def test_output_face_vs_replicate(self):
        face = Decision(grid=(2, 2), dist=("i", "k"), output_style="face")
        repl = Decision(
            grid=(2, 2), dist=("i", "k"), output_style="replicate"
        )
        assert formats_for(matmul(64), face)["A"].notation() == "ab -> a0"
        assert formats_for(matmul(64), repl)["A"].notation() == "ab -> a*"


class TestRealize:
    def test_replays_byte_identically(self):
        d = normalize(matmul(64), cannon_decision())
        plans, formats = [], []
        for _ in range(2):
            stmt = matmul(64)
            machine = Machine.flat(2, 2)
            sched, fmts = realize(stmt, machine, d)
            plans.append(compile_kernel(sched, machine).plan.pretty())
            formats.append({n: f.notation() for n, f in fmts.items()})
        assert plans[0] == plans[1]
        assert formats[0] == formats[1]

    def test_heuristic_seed_replays_auto_schedule(self):
        """The seed decision realizes to exactly the heuristic's plan."""
        machine = Machine.flat(2, 2)
        seed = from_heuristic(matmul(64), (2, 2))
        stmt = matmul(64)
        sched, fmts = realize(stmt, machine, seed)
        tuned_plan = compile_kernel(sched, machine).plan.pretty()
        ref_stmt = matmul(64)
        ref_plan = Kernel.autoschedule(ref_stmt, machine).plan.pretty()
        assert tuned_plan == ref_plan
        assert {n: f.notation() for n, f in fmts.items()} == {
            t.name: t.format.notation() for t in ref_stmt.tensors()
        }

    def test_realized_cannon_matches_reference_cost(self):
        from repro.algorithms.matmul import cannon

        machine = Machine.flat(4, 4)
        ref = cannon(machine, 256).simulate()
        stmt = matmul(256)
        sched, _ = realize(stmt, machine, cannon_decision((4, 4)))
        rep = compile_kernel(sched, machine).simulate()
        assert rep.total_time == pytest.approx(ref.total_time)
        assert rep.comm_time == pytest.approx(ref.comm_time)
        assert rep.inter_node_bytes == ref.inter_node_bytes

    def test_executes_correctly(self, rng):
        """Tuner-realized schedules stay correct (schedules only ever
        change performance)."""
        for d in (
            cannon_decision(),
            Decision(grid=(2, 2), dist=("i", "j"), seq="k", steps_dim=0,
                     tiled=("B", "C"), step_comm=("B", "C"), leaf="gemm"),
            Decision(grid=(2, 2), dist=("i", "k"),
                     output_style="replicate", leaf="loops"),
            Decision(grid=(4,), dist=("k",), leaf="gemm"),
        ):
            stmt = matmul(16)
            d = normalize(stmt, d)
            machine = Machine.flat(*d.grid)
            sched, _ = realize(stmt, machine, d)
            kern = compile_kernel(sched, machine)
            kern.execute(
                {"B": rng.random((16, 16)), "C": rng.random((16, 16))},
                verify=True,
            )

    def test_grid_mismatch_raises(self):
        stmt = matmul(64)
        with pytest.raises(ScheduleError):
            realize(stmt, Machine.flat(4, 4), cannon_decision((2, 2)))


class TestCoarsen:
    def test_shrinks_toward_target_keeping_shape(self):
        d = Decision(grid=(32, 32), dist=("i", "j"))
        assert coarsen(d, 64).grid == (8, 8)
        skew = Decision(grid=(2, 512), dist=("i", "j"))
        assert coarsen(skew, 64).grid == (2, 32)

    def test_noop_when_small_enough(self):
        d = Decision(grid=(4, 4), dist=("i", "j"))
        assert coarsen(d, 64) is not None
        assert coarsen(d, 64).grid == (4, 4)

    def test_scale_assignment_preserves_structure(self):
        stmt = matmul(1024)
        small = scale_assignment(stmt, 0.25)
        assert small.lhs.tensor.shape == (256, 256)
        assert repr(small) == repr(stmt).replace("1024", "1024")  # structure
        assert [v.name for v in small.all_vars] == ["i", "j", "k"]
        # never upscales
        same = scale_assignment(stmt, 4.0)
        assert same.lhs.tensor.shape == (1024, 1024)
