"""Concrete index notation (paper Section 5.1, Figure 14).

A lower-level IR than tensor index notation: an explicit tree of ``forall``
loops around assignments, with ``s.t.`` clauses recording scheduling
relations. Scheduling commands are rewrite rules over this tree (Section
5.2); backends lower it further — here, into a distributed runtime plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.ir.expr import Access, Expr, IndexVar


class Stmt:
    """Base class of concrete index notation statements; each defines
    ``pretty(indent)``."""

    def foralls(self) -> List["Forall"]:
        """All foralls in the tree, outermost first (pre-order)."""
        out: List[Forall] = []
        _collect_foralls(self, out)
        return out


@dataclass
class Assign(Stmt):
    """``lhs op= rhs`` at the bottom of a loop nest.

    ``reduce`` marks accumulation (``+=``); all kernels with reduction
    variables accumulate into a zero-initialized output.
    """

    lhs: Access
    rhs: Expr
    reduce: bool

    def pretty(self, indent: int = 0) -> str:
        op = "+=" if self.reduce else "="
        return " " * indent + f"{self.lhs!r} {op} {self.rhs!r}"


@dataclass
class Forall(Stmt):
    """A loop over an index variable, with scheduling tags.

    Tags (the ``s.t.`` clause contents relevant to distribution):

    * ``distributed`` — this loop's iterations run on different processors
      at the same time (Section 3.3 "Distribute"). ``machine_level`` picks
      the grid level of a hierarchical machine.
    * ``communicated`` — tensors whose data movement is aggregated at this
      loop: one entry per ``communicate(T, i)`` (Section 3.3).
    * ``substituted`` — a leaf-kernel name when the subtree below was
      substituted by an optimized kernel (Figure 2's CuBLAS GeMM leaf).
    """

    var: IndexVar
    body: Stmt
    distributed: bool = False
    machine_level: int = 0
    communicated: List[str] = field(default_factory=list)
    substituted: Optional[str] = None
    parallelized: bool = False
    relations: List[str] = field(default_factory=list)

    def pretty(self, indent: int = 0) -> str:
        tags = []
        if self.distributed:
            level = f"@L{self.machine_level}" if self.machine_level else ""
            tags.append(f"distribute{level}")
        for name in self.communicated:
            tags.append(f"communicate({name})")
        if self.substituted:
            tags.append(f"substitute({self.substituted})")
        tags.extend(self.relations)
        suffix = f"  s.t. {', '.join(tags)}" if tags else ""
        head = " " * indent + f"forall {self.var.name}{suffix}"
        return head + "\n" + self.body.pretty(indent + 2)


@dataclass
class Sequence(Stmt):
    """Sequential composition ``S ; S`` (used by precompute workspaces)."""

    stmts: List[Stmt]

    def pretty(self, indent: int = 0) -> str:
        return "\n".join(s.pretty(indent) for s in self.stmts)


def _collect_foralls(stmt: Stmt, out: List[Forall]):
    if isinstance(stmt, Forall):
        out.append(stmt)
        _collect_foralls(stmt.body, out)
    elif isinstance(stmt, Sequence):
        for child in stmt.stmts:
            _collect_foralls(child, out)


def loop_order(stmt: Stmt) -> List[IndexVar]:
    """The loop variables of a (straight-line) nest, outermost first."""
    return [f.var for f in stmt.foralls()]


def find_forall(stmt: Stmt, var: IndexVar) -> Optional[Forall]:
    """The forall binding ``var``, or None."""
    for forall in stmt.foralls():
        if forall.var == var:
            return forall
    return None


def replace_body(stmt: Stmt, var: IndexVar, new_body: Stmt) -> bool:
    """Replace the body of the forall binding ``var``; True on success."""
    forall = find_forall(stmt, var)
    if forall is None:
        return False
    forall.body = new_body
    return True
