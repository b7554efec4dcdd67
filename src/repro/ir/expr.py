"""Tensor index notation expressions.

An expression is built from *accesses* — a tensor indexed by a list of
index variables, like ``B(i, k)`` — combined with ``+`` and ``*``. Python
operator overloading gives the paper's surface syntax:

    A[i, j] is an Access; B[i, k] * C[k, j] is a Mul of two Accesses.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union


class IndexVar:
    """An index variable (paper's ``IndexVar``).

    Identity is by name: two ``IndexVar("i")`` are the same variable. Index
    variables correspond to loops in concrete index notation; scheduling
    commands derive new variables (``io``, ``ii``, ...) from them.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("index variable name must be non-empty")
        self.name = name

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, IndexVar) and self.name == other.name

    def __repr__(self) -> str:
        return self.name


def index_vars(names: str) -> List[IndexVar]:
    """Create several index variables at once: ``i, j, k = index_vars("i j k")``."""
    return [IndexVar(n) for n in names.replace(",", " ").split()]


class Expr:
    """Base class of index expressions; each defines ``accesses()``,
    its tensor accesses left to right."""

    def __add__(self, other: "ExprLike") -> "Add":
        return Add(self, _as_expr(other))

    def __radd__(self, other: "ExprLike") -> "Add":
        return Add(_as_expr(other), self)

    def __mul__(self, other: "ExprLike") -> "Mul":
        return Mul(self, _as_expr(other))

    def __rmul__(self, other: "ExprLike") -> "Mul":
        return Mul(_as_expr(other), self)

    def index_variables(self) -> List[IndexVar]:
        """All distinct index variables, in first-appearance order."""
        seen: List[IndexVar] = []
        for access in self.accesses():
            for var in access.indices:
                if var not in seen:
                    seen.append(var)
        return seen


class Access(Expr):
    """A tensor access ``T(i, j, ...)``.

    Scalars (0-dimensional tensors) are accesses with no indices.
    """

    def __init__(self, tensor, indices: Sequence[IndexVar]):
        from repro.ir.tensor import TensorVar

        if not isinstance(tensor, TensorVar):
            raise TypeError(f"Access expects a TensorVar, got {tensor!r}")
        if len(indices) != tensor.ndim:
            raise ValueError(
                f"tensor {tensor.name} has {tensor.ndim} dimensions but was "
                f"accessed with {len(indices)} indices"
            )
        if len(set(indices)) != len(indices):
            raise ValueError(
                f"repeated index variable in access to {tensor.name}: "
                f"{indices} (diagonal accesses are not supported)"
            )
        self.tensor = tensor
        self.indices: Tuple[IndexVar, ...] = tuple(indices)

    def accesses(self) -> Iterator["Access"]:
        yield self

    def __repr__(self) -> str:
        inner = ", ".join(v.name for v in self.indices)
        return f"{self.tensor.name}({inner})"


class Literal(Expr):
    """A numeric constant."""

    def __init__(self, value: float):
        self.value = float(value)

    def accesses(self) -> Iterator[Access]:
        return iter(())

    def __repr__(self) -> str:
        return repr(self.value)


class _Binary(Expr):
    op = "?"

    def __init__(self, lhs: Expr, rhs: Expr):
        self.lhs = lhs
        self.rhs = rhs

    def accesses(self) -> Iterator[Access]:
        yield from self.lhs.accesses()
        yield from self.rhs.accesses()

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class Add(_Binary):
    """Pointwise addition of two index expressions."""

    op = "+"


class Mul(_Binary):
    """Pointwise multiplication (contraction when combined with reduction)."""

    op = "*"


ExprLike = Union[Expr, int, float]


def _as_expr(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Literal(value)
    raise TypeError(f"cannot use {value!r} in an index expression")
