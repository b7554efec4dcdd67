"""Tests for automatic schedule + format selection (Section 9)."""


from repro import (
    Assignment,
    Kernel,
    Machine,
    TensorVar,
    index_vars,
)
from repro.tuner.space import heuristic_decision


def fresh_gemm(n=16):
    A = TensorVar("A", (n, n))
    B = TensorVar("B", (n, n))
    C = TensorVar("C", (n, n))
    i, j, k = index_vars("i j k")
    return Assignment(A[i, j], B[i, k] * C[k, j])


class TestChoices:
    def test_prefers_output_vars(self):
        stmt = fresh_gemm()
        i, j = stmt.free_vars
        assert heuristic_decision(stmt, (2, 2)).dist == (i.name, j.name)

    def test_falls_back_to_reductions(self):
        stmt = fresh_gemm()
        i, j = stmt.free_vars
        (k,) = stmt.reduction_vars
        assert heuristic_decision(stmt, (2, 2, 2)).dist == (
            i.name, j.name, k.name
        )

    def test_derive_formats_tiles_and_replicates(self):
        stmt = fresh_gemm()
        Kernel.autoschedule(stmt, Machine.flat(2, 2))
        formats = {t.name: t.format for t in stmt.tensors()}
        assert formats["A"].notation() == "ab -> ab"
        # B(i, k): i is distributed dim 0, j (dim 1) doesn't index B.
        assert formats["B"].notation() == "ab -> a*"
        assert formats["C"].notation() == "ab -> *b"


class TestEndToEnd:
    def test_matmul_correct(self, rng):
        stmt = fresh_gemm()
        machine = Machine.flat(2, 2)
        kern = Kernel.autoschedule(stmt, machine)
        kern.execute(
            {"B": rng.random((16, 16)), "C": rng.random((16, 16))},
            verify=True,
        )

    def test_matmul_zero_comm_with_derived_formats(self, rng):
        # The derived formats replicate B and C exactly where needed:
        # owner-computes with no communication.
        stmt = fresh_gemm()
        machine = Machine.flat(2, 2)
        kern = Kernel.autoschedule(stmt, machine)
        res = kern.execute(
            {"B": rng.random((16, 16)), "C": rng.random((16, 16))}
        )
        assert res.trace.total_copy_bytes == 0

    def test_ttv_correct(self, rng):
        n = 12
        A = TensorVar("A", (n, n))
        B = TensorVar("B", (n, n, n))
        c = TensorVar("c", (n,))
        i, j, k = index_vars("i j k")
        stmt = Assignment(A[i, j], B[i, j, k] * c[k])
        machine = Machine.flat(2, 2)
        kern = Kernel.autoschedule(stmt, machine)
        res = kern.execute(
            {"B": rng.random((n, n, n)), "c": rng.random(n)}, verify=True
        )
        # Matches the paper's hand schedule: no communication.
        assert res.trace.total_copy_bytes == 0

    def test_mttkrp_correct(self, rng):
        n, r = 12, 6
        A = TensorVar("A", (n, r))
        B = TensorVar("B", (n, n, n))
        C = TensorVar("C", (n, r))
        D = TensorVar("D", (n, r))
        i, j, k, l = index_vars("i j k l")
        stmt = Assignment(A[i, l], B[i, j, k] * C[j, l] * D[k, l])
        machine = Machine.flat(2, 2, 2)
        kern = Kernel.autoschedule(stmt, machine)
        kern.execute(
            {
                "B": rng.random((n, n, n)),
                "C": rng.random((n, r)),
                "D": rng.random((n, r)),
            },
            verify=True,
        )

    def test_scalar_output(self, rng):
        n = 12
        a = TensorVar("a", ())
        B = TensorVar("B", (n, n))
        i, j = index_vars("i j")
        stmt = Assignment(a[()], B[i, j] * B[i, j])
        machine = Machine.flat(2, 2)
        kern = Kernel.autoschedule(stmt, machine)
        kern.execute({"B": rng.random((n, n))}, verify=True)
