"""Compiler IRs: tensor index notation and concrete index notation.

The computation language (Section 2) is *tensor index notation*: assignments
whose right-hand sides add and multiply tensor accesses, with reductions
implied by variables that appear only on the right. It lowers to *concrete
index notation* (Section 5.1): an explicit loop tree whose ``s.t.`` clauses
record applied scheduling relations. The provenance graph ties the two
together: every derived index variable knows how to reconstruct the value
(or interval of values) of the variables it was derived from, which is the
bounds analysis that drives partitioning, communication and leaf slicing.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ir.expr": (
        "Access", "Add", "Expr", "IndexVar", "Literal", "Mul", "index_vars",
    ),
    "repro.ir.tensor": ("Assignment", "TensorVar", "reference_einsum"),
    "repro.ir.concrete": ("Assign", "Forall", "Sequence", "Stmt"),
    "repro.ir.provenance": ("FuseRel", "RotateRel", "SplitRel", "VarGraph"),
    "repro.ir.lower_tin": ("lower_to_concrete",),
})
