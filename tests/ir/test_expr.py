"""Tests for tensor index notation expressions."""

import pytest

from repro import TensorVar, index_vars
from repro.ir.expr import Access, Add, IndexVar, Literal, Mul


class TestIndexVar:
    def test_identity_by_name(self):
        assert IndexVar("i") == IndexVar("i")
        assert IndexVar("i") != IndexVar("j")
        assert hash(IndexVar("i")) == hash(IndexVar("i"))

    def test_index_vars_helper(self):
        i, j, k = index_vars("i j k")
        assert [v.name for v in (i, j, k)] == ["i", "j", "k"]
        a, b = index_vars("a, b")
        assert [a.name, b.name] == ["a", "b"]

    def test_empty_name(self):
        with pytest.raises(ValueError):
            IndexVar("")


class TestAccess:
    def test_call_and_getitem(self):
        i, j = index_vars("i j")
        A = TensorVar("A", (4, 4))
        assert isinstance(A(i, j), Access)
        assert isinstance(A[i, j], Access)
        assert A[i, j].indices == (i, j)

    def test_arity_check(self):
        i, j = index_vars("i j")
        A = TensorVar("A", (4, 4))
        with pytest.raises(ValueError):
            A(i)
        with pytest.raises(ValueError):
            A(i, j, i)

    def test_no_diagonal_access(self):
        i, = index_vars("i")
        A = TensorVar("A", (4, 4))
        with pytest.raises(ValueError):
            A(i, i)

    def test_scalar_access(self):
        a = TensorVar("a", ())
        acc = a[()]
        assert acc.indices == ()


class TestOperators:
    def test_mul(self):
        i, j, k = index_vars("i j k")
        B = TensorVar("B", (4, 4))
        C = TensorVar("C", (4, 4))
        expr = B[i, k] * C[k, j]
        assert isinstance(expr, Mul)
        assert [a.tensor.name for a in expr.accesses()] == ["B", "C"]

    def test_add_and_literals(self):
        i, = index_vars("i")
        b = TensorVar("b", (4,))
        expr = b[i] + 2
        assert isinstance(expr, Add)
        assert isinstance(expr.rhs, Literal)
        expr2 = 3 * b[i]
        assert isinstance(expr2, Mul)
        expr3 = 2 + b[i]
        assert isinstance(expr3, Add)
        assert isinstance(expr3.lhs, Literal) and expr3.rhs.tensor is b

    def test_index_variables_order(self):
        i, j, k = index_vars("i j k")
        B = TensorVar("B", (4, 4, 4))
        c = TensorVar("c", (4,))
        expr = B[i, j, k] * c[k]
        assert expr.index_variables() == [i, j, k]

    def test_rejects_junk(self):
        i, = index_vars("i")
        b = TensorVar("b", (4,))
        with pytest.raises(TypeError):
            b[i] * "nope"
