"""Tensor variables and tensor index notation assignments."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.formats.format import Format
from repro.ir.expr import Access, Expr, IndexVar, Literal, Mul


class TensorVar:
    """A dense tensor variable with a shape, dtype and format.

    Indexing a :class:`TensorVar` with index variables produces an
    :class:`~repro.ir.expr.Access`; both ``A[i, j]`` and ``A(i, j)`` work,
    mirroring the paper's ``A(i, j) = B(i, k) * C(k, j)``.
    """

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        format: Optional[Format] = None,
        dtype=np.float64,
    ):
        if not name:
            raise ValueError("tensor name must be non-empty")
        if any(int(d) <= 0 for d in shape):
            raise ValueError(f"tensor {name} has non-positive dimension: {shape}")
        self.name = name
        self.shape: Tuple[int, ...] = tuple(int(d) for d in shape)
        self.format = format if format is not None else Format()
        self.dtype = np.dtype(dtype)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        n = self.itemsize
        for d in self.shape:
            n *= d
        return n

    def __call__(self, *indices: IndexVar) -> Access:
        return Access(self, indices)

    def __getitem__(self, indices) -> Access:
        if isinstance(indices, IndexVar):
            indices = (indices,)
        return Access(self, tuple(indices))

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, TensorVar) and self.name == other.name

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"Tensor({self.name}: {dims})"


class Assignment:
    """A tensor index notation statement ``lhs = rhs`` (or ``lhs += rhs``).

    Index variables used only on the right-hand side are *reduction*
    variables: the statement sums over their domains, e.g.
    ``A(i,j) = B(i,j,k) * c(k)`` sums over ``k`` (Section 2).
    """

    def __init__(self, lhs: Access, rhs: Expr, accumulate: bool = False):
        if not isinstance(lhs, Access):
            raise TypeError("assignment left-hand side must be a tensor access")
        self.lhs = lhs
        self.rhs = rhs
        self.accumulate = accumulate
        self._check_domains()
        free = set(lhs.indices)
        #: Variables on the left-hand side, in access order.
        self.free_vars: List[IndexVar] = list(lhs.indices)
        #: Right-hand-side-only variables, in first-appearance order.
        self.reduction_vars: List[IndexVar] = [
            v for v in rhs.index_variables() if v not in free
        ]
        #: Free variables then reduction variables (default loop order).
        self.all_vars: List[IndexVar] = self.free_vars + self.reduction_vars

    def tensors(self) -> List[TensorVar]:
        """All distinct tensors, output first."""
        seen = [self.lhs.tensor]
        for access in self.rhs.accesses():
            if access.tensor not in seen:
                seen.append(access.tensor)
        return seen

    def accesses(self) -> List[Access]:
        """All accesses, output first."""
        return [self.lhs] + list(self.rhs.accesses())

    def domains(self) -> Dict[IndexVar, int]:
        """Extent of every index variable, from the dimensions it indexes."""
        return self._domains

    def flops_per_point(self) -> int:
        """Floating-point operations per iteration-space point.

        Counts one op per multiply and add in the expression plus the
        reduction accumulate; used by the cost model's roofline.
        """
        ops = _count_ops(self.rhs)
        if self.reduction_vars or self.accumulate:
            ops += 1
        return max(ops, 1)

    def _check_domains(self):
        domains: Dict[IndexVar, int] = {}
        for access in self.accesses():
            for var, extent in zip(access.indices, access.tensor.shape):
                if var in domains and domains[var] != extent:
                    raise ValueError(
                        f"index variable {var} ranges over {domains[var]} and "
                        f"{extent} in different accesses"
                    )
                domains[var] = extent
        for var in self.lhs.indices:
            # An output variable must be driven by the rhs or the lhs shape.
            domains.setdefault(var, None)
        self._domains = domains

    def __repr__(self) -> str:
        op = "+=" if self.accumulate or self.reduction_vars else "="
        return f"{self.lhs!r} {op} {self.rhs!r}"


def reference_einsum(
    assignment: Assignment, arrays: Dict[str, np.ndarray]
) -> np.ndarray:
    """Evaluate an assignment with numpy; the correctness oracle.

    Handles sums of products of accesses (the full language of Figure 14's
    expressions, distributed into a sum of einsum terms).
    """
    letters: Dict[IndexVar, str] = {}
    for var in assignment.all_vars:
        letters[var] = chr(ord("a") + len(letters))
    out_shape = assignment.lhs.tensor.shape
    result = np.zeros(out_shape, dtype=assignment.lhs.tensor.dtype)
    reduction = assignment.reduction_vars
    domains = assignment.domains()
    for coeff, accesses in _terms(assignment.rhs):
        if not accesses:
            # A bare constant is accumulated once per iteration point.
            mult = 1
            for var in reduction:
                mult *= domains[var]
            result += coeff * mult
            continue
        subs = ",".join(
            "".join(letters[v] for v in acc.indices) for acc in accesses
        )
        operands = [arrays[acc.tensor.name] for acc in accesses]
        # Output variables that index no operand broadcast over their
        # dimension (e.g. a(i) = sum_j b(j)); reduction variables that
        # index no operand multiply the term by their extent (the loop
        # nest sums the term once per iteration).
        present = {v for acc in accesses for v in acc.indices}
        for var in reduction:
            if var not in present:
                coeff = coeff * domains[var]
        out_sub = "".join(
            letters[v] for v in assignment.lhs.indices if v in present
        )
        term = np.einsum(f"{subs}->{out_sub}", *operands, optimize=True)
        shape = tuple(
            out_shape[d] if v in present else 1
            for d, v in enumerate(assignment.lhs.indices)
        )
        result += coeff * np.asarray(term).reshape(shape)
    return result


def _terms(expr: Expr):
    """Expand an expression into a sum of (coefficient, access-list) terms."""
    from repro.ir.expr import Add

    if isinstance(expr, Add):
        yield from _terms(expr.lhs)
        yield from _terms(expr.rhs)
    elif isinstance(expr, Mul):
        for lc, la in _terms(expr.lhs):
            for rc, ra in _terms(expr.rhs):
                yield lc * rc, la + ra
    elif isinstance(expr, Literal):
        yield expr.value, []
    elif isinstance(expr, Access):
        yield 1.0, [expr]
    else:
        raise TypeError(f"unexpected expression node {expr!r}")


def _count_ops(expr: Expr) -> int:
    from repro.ir.expr import Add

    if isinstance(expr, (Add, Mul)):
        return 1 + _count_ops(expr.lhs) + _count_ops(expr.rhs)
    return 0
