"""The Legion-like distributed runtime substrate (Section 6).

The compiler's output — a :class:`~repro.codegen.plan.DistributedPlan` — is
executed here. The runtime reproduces the Legion behaviours the paper
relies on: implicit communication discovered from data requirements
(per-memory instance tables and nearest-valid-source copies), index task
launches placed by a mapper (the machine's grid->processor map), reduction
write-backs for non-owned outputs, and accounting of instance memory
(which is what makes replication-heavy algorithms run out of framebuffer).

Two modes share one interpreter: *functional* execution moves real numpy
blocks (correctness, verified against ``numpy.einsum``) and *symbolic*
execution records the identical phases without materializing data (used
for the paper-scale weak-scaling benchmarks).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.executor": ("ExecutionResult", "Executor"),
    "repro.runtime.instances": ("DataEnvironment",),
    "repro.runtime.trace": ("Copy", "Step", "Trace", "Work"),
})
