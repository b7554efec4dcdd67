"""Printed forms of the objects a user inspects in a REPL or a log."""

from repro import (
    Assignment,
    Format,
    Machine,
    Schedule,
    Stage,
    TensorVar,
    index_vars,
)
from repro.algorithms import summa
from repro.analysis.diagnostics import Diagnostic
from repro.codegen.partitions import derive_partitions
from repro.formats.distribution import Distribution


def _axpy():
    A, b, c = (TensorVar(name, (8,)) for name in "Abc")
    (i,) = index_vars("i")
    product = b[i] * c[i]
    return Assignment(A[i], product), product


def test_format_and_distribution():
    fmt = Format("xy -> x")
    assert repr(fmt) == "Format('xy -> x', memory=sysmem)"
    assert repr(fmt.distributions[0]) == "Distribution('xy -> x')"
    assert repr(Distribution.parse("xy -> yx")) == "Distribution('xy -> yx')"


def test_schedule_and_stage():
    stmt, *_ = _axpy()
    sched = Schedule(stmt).parallelize(index_vars("i")[0])
    assert repr(sched) == f"Schedule({stmt!r}; 1 commands)"
    assert repr(Stage("s", stmt)) == f"Stage(s: {stmt!r})"


def test_precomputed_leaf_prints_both_statements():
    stmt, product = _axpy()
    w = TensorVar("w", (8,))
    text = Schedule(stmt).precompute(product, w, index_vars("i")).pretty()
    assert "w(i) = (b(i) * c(i))" in text
    assert "A(i) = w(i)" in text


def test_partition():
    partitions = derive_partitions(summa(Machine.flat(2, 2), 64).plan)
    assert all(
        repr(p).startswith(f"Partition({p.tensor} at ") for p in partitions
    )
    assert f"{partitions[0].num_colors} colors" in repr(partitions[0])


def test_diagnostic():
    diag = Diagnostic("dist-arity", "dist", "too few variables")
    assert str(diag) == "[dist-arity] dist: too few variables"
