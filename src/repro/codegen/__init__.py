"""Lowering concrete index notation to a distributed runtime plan.

The plan is this reproduction's analogue of the generated Legion program
(Section 6.2): distributed loops become index task launches, ``communicate``
tags become partition + copy points, and the innermost dense loops become
leaf operations (optionally substituted by optimized kernels).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.codegen.plan": (
        "DistributedPlan", "LaunchNode", "LeafNode", "PlanNode", "SeqNode",
    ),
    "repro.codegen.lower": ("lower_to_plan",),
})
