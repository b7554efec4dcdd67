"""Tests for tensor variables, assignments and the einsum oracle."""

import numpy as np
import pytest

from repro import Assignment, TensorVar, index_vars, reference_einsum


class TestTensorVar:
    def test_properties(self):
        A = TensorVar("A", (3, 5))
        assert A.ndim == 2
        assert A.nbytes == 3 * 5 * 8
        assert A.itemsize == 8

    def test_scalar(self):
        a = TensorVar("a", ())
        assert a.ndim == 0
        assert a.nbytes == 8

    def test_hash_pairs_with_equality(self):
        # Tensors are identified by name: equal tensors hash alike, so
        # sets and dict keys treat a re-created tensor as the same one.
        a, again = TensorVar("A", (3, 5)), TensorVar("A", (3, 5))
        assert a == again and hash(a) == hash(again)
        assert {a: 1}[again] == 1
        assert len({a, again, TensorVar("B", (3, 5))}) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            TensorVar("", (2,))
        with pytest.raises(ValueError):
            TensorVar("A", (0, 2))


class TestAssignment:
    def test_reduction_vars(self):
        i, j, k = index_vars("i j k")
        A = TensorVar("A", (4, 4))
        B = TensorVar("B", (4, 4))
        C = TensorVar("C", (4, 4))
        stmt = Assignment(A[i, j], B[i, k] * C[k, j])
        assert stmt.free_vars == [i, j]
        assert stmt.reduction_vars == [k]
        assert stmt.all_vars == [i, j, k]

    def test_domains(self):
        i, j, k = index_vars("i j k")
        A = TensorVar("A", (4, 6))
        B = TensorVar("B", (4, 6, 8))
        c = TensorVar("c", (8,))
        stmt = Assignment(A[i, j], B[i, j, k] * c[k])
        assert stmt.domains() == {i: 4, j: 6, k: 8}

    def test_domain_mismatch(self):
        i, j = index_vars("i j")
        A = TensorVar("A", (4, 4))
        B = TensorVar("B", (5, 4))
        with pytest.raises(ValueError):
            Assignment(A[i, j], B[i, j])

    def test_tensors_output_first(self):
        i, j, k = index_vars("i j k")
        A = TensorVar("A", (4, 4))
        B = TensorVar("B", (4, 4))
        stmt = Assignment(A[i, j], B[i, k] * B[k, j])
        assert [t.name for t in stmt.tensors()] == ["A", "B"]

    def test_flops_per_point(self):
        i, j, k, l = index_vars("i j k l")
        A = TensorVar("A", (4, 4))
        B = TensorVar("B", (4, 4, 4))
        C = TensorVar("C", (4, 4))
        D = TensorVar("D", (4, 4))
        matmul = Assignment(A[i, j], C[i, k] * D[k, j])
        assert matmul.flops_per_point() == 2  # one mul + one add
        mttkrp = Assignment(A[i, l], B[i, j, k] * C[j, l] * D[k, l])
        assert mttkrp.flops_per_point() == 3  # two muls + one add


class TestReferenceEinsum:
    def test_matmul(self, rng):
        i, j, k = index_vars("i j k")
        A = TensorVar("A", (5, 7))
        B = TensorVar("B", (5, 6))
        C = TensorVar("C", (6, 7))
        stmt = Assignment(A[i, j], B[i, k] * C[k, j])
        arrays = {"B": rng.random((5, 6)), "C": rng.random((6, 7))}
        np.testing.assert_allclose(
            reference_einsum(stmt, arrays), arrays["B"] @ arrays["C"]
        )

    def test_sum_of_products(self, rng):
        i, = index_vars("i")
        a = TensorVar("a", (5,))
        b = TensorVar("b", (5,))
        c = TensorVar("c", (5,))
        stmt = Assignment(a[i], b[i] * c[i] + b[i])
        arrays = {"b": rng.random(5), "c": rng.random(5)}
        np.testing.assert_allclose(
            reference_einsum(stmt, arrays),
            arrays["b"] * arrays["c"] + arrays["b"],
        )

    def test_scalar_output(self, rng):
        i, = index_vars("i")
        a = TensorVar("a", ())
        b = TensorVar("b", (5,))
        stmt = Assignment(a[()], b[i] * b[i])
        arrays = {"b": rng.random(5)}
        np.testing.assert_allclose(
            reference_einsum(stmt, arrays), np.dot(arrays["b"], arrays["b"])
        )

    def test_literal_scaling(self, rng):
        i, = index_vars("i")
        a = TensorVar("a", (5,))
        b = TensorVar("b", (5,))
        stmt = Assignment(a[i], 3 * b[i])
        arrays = {"b": rng.random(5)}
        np.testing.assert_allclose(
            reference_einsum(stmt, arrays), 3 * arrays["b"]
        )
