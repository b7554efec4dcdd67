"""Distributed plan: the executable form of a compiled kernel.

A plan is a small tree of three node kinds:

* :class:`LaunchNode` — an index task launch over one or more distributed
  loop variables, mapped onto machine grid dimensions (Legion's index task
  launch; directly nested distributed loops are flattened into one
  multi-dimensional launch, Section 6.2).
* :class:`SeqNode` — a sequential loop inside a task (e.g. SUMMA's ``ko``),
  optionally a communication point for some tensors.
* :class:`LeafNode` — the innermost dense loop block, executed as one
  (possibly substituted) kernel over a hyper-rectangular slice.

Tensors communicated at a node are fetched when the node's iteration (or
task) begins; pending non-owned output writes are flushed (reduced to their
owners) when the iteration ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.concrete import Assign
from repro.ir.expr import Access, IndexVar
from repro.ir.provenance import VarGraph
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.machine import Machine


class PlanNode:
    """Base class of plan tree nodes; each defines ``pretty(indent)``."""

    comm: List[str]
    flush: List[str]


@dataclass
class LaunchNode(PlanNode):
    """An index task launch over distributed loop variables.

    ``machine_dims`` gives, per launched variable, the absolute machine
    grid dimension (index into ``machine.shape``) its iterations map onto.
    """

    vars: List[IndexVar]
    extents: List[int]
    machine_dims: List[int]
    body: PlanNode
    comm: List[str] = field(default_factory=list)
    flush: List[str] = field(default_factory=list)

    def pretty(self, indent: int = 0) -> str:
        pad = " " * indent
        dims = ", ".join(
            f"{v.name}:{e}->m{d}"
            for v, e, d in zip(self.vars, self.extents, self.machine_dims)
        )
        lines = [f"{pad}index_launch({dims})"]
        for t in self.comm:
            lines.append(f"{pad}  fetch {t} at task start")
        lines.append(self.body.pretty(indent + 2))
        for t in self.flush:
            lines.append(f"{pad}  flush {t} at task end")
        return "\n".join(lines)


@dataclass
class SeqNode(PlanNode):
    """A sequential loop, optionally a communication aggregation point."""

    var: IndexVar
    extent: int
    body: PlanNode
    comm: List[str] = field(default_factory=list)
    flush: List[str] = field(default_factory=list)

    def pretty(self, indent: int = 0) -> str:
        pad = " " * indent
        lines = [f"{pad}for {self.var.name} in 0..{self.extent}:"]
        for t in self.comm:
            lines.append(f"{pad}  fetch {t} chunk")
        lines.append(self.body.pretty(indent + 2))
        for t in self.flush:
            lines.append(f"{pad}  flush {t} chunk")
        return "\n".join(lines)


@dataclass
class LeafNode(PlanNode):
    """The innermost dense block: one kernel call over a slice.

    ``loop_vars`` are the loops folded into the block (they span their
    full, clipped ranges); ``assigns`` is usually a single statement but a
    leaf-level ``precompute`` produces a workspace producer followed by the
    consumer.
    """

    loop_vars: List[IndexVar]
    assigns: List[Assign]
    kernel: Optional[str] = None
    parallel: bool = False
    comm: List[str] = field(default_factory=list)
    flush: List[str] = field(default_factory=list)

    def pretty(self, indent: int = 0) -> str:
        pad = " " * indent
        lines = []
        for t in self.comm:
            lines.append(f"{pad}fetch {t} block")
        kernel = self.kernel or "loops"
        over = ", ".join(v.name for v in self.loop_vars) or "(point)"
        for a in self.assigns:
            op = "+=" if a.reduce else "="
            lines.append(
                f"{pad}leaf[{kernel}] over ({over}): {a.lhs!r} {op} {a.rhs!r}"
            )
        for t in self.flush:
            lines.append(f"{pad}flush {t} block")
        return "\n".join(lines)


@dataclass
class DistributedPlan:
    """A fully lowered kernel: plan tree plus the metadata the runtime
    needs to resolve rectangles and place tasks."""

    assignment: Assignment
    machine: Machine
    graph: VarGraph
    root: PlanNode
    # Tensor name -> the accesses that read/write it (rect resolution).
    accesses: Dict[str, List[Access]]
    tensors: Dict[str, TensorVar]
    output: str

    def pretty(self) -> str:
        """Readable pseudocode of the generated distributed program."""
        header = f"// {self.assignment!r} on {self.machine!r}"
        return header + "\n" + self.root.pretty()
