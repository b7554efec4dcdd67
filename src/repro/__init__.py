"""DISTAL reproduced: a distributed tensor algebra compiler in Python.

This package reimplements the system of *DISTAL: The Distributed Tensor
Algebra Compiler* (Yadav, Aiken, Kjolstad — PLDI 2022): a tensor index
notation frontend, the tensor distribution notation format language, the
distributed scheduling language (``distribute`` / ``communicate`` /
``rotate`` on top of classic loop transformations), lowering to a
Legion-like task-based runtime, and a Lassen-calibrated performance model
that regenerates the paper's evaluation figures.

Quickstart::

    import numpy as np
    from repro import (
        Format, Grid, Machine, Schedule, TensorVar, compile_kernel, index_vars,
    )
    from repro.ir.tensor import Assignment

    m = Machine.flat(2, 2)
    f = Format("xy -> xy")
    A = TensorVar("A", (64, 64), f)
    B = TensorVar("B", (64, 64), f)
    C = TensorVar("C", (64, 64), f)
    i, j, k = index_vars("i j k")
    io, ii, jo, ji, ko, ki = index_vars("io ii jo ji ko ki")

    stmt = Assignment(A[i, j], B[i, k] * C[k, j])
    sched = (
        Schedule(stmt)
        .distribute([i, j], [io, jo], [ii, ji], Grid(2, 2))
        .split(k, ko, ki, 32)
        .reorder([ko, ii, ji, ki])
        .communicate(A, jo)
        .communicate([B, C], ko)
    )
    kernel = compile_kernel(sched, m)
    out = kernel.execute(
        {"B": np.random.rand(64, 64), "C": np.random.rand(64, 64)},
        verify=True,
    )
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Access",
    "redistribution_bytes",
    "transfer_kernel",
    "Assignment",
    "Cluster",
    "Decision",
    "Distribution",
    "DistributionError",
    "Format",
    "Grid",
    "IndexVar",
    "Kernel",
    "LASSEN",
    "LoweringError",
    "Machine",
    "MachineParams",
    "Memory",
    "MemoryKind",
    "OutOfMemoryError",
    "Pipeline",
    "PipelineError",
    "PipelinePlan",
    "PipelineReport",
    "PipelineTuneResult",
    "ProcessorKind",
    "ReproError",
    "ScheduleError",
    "Schedule",
    "SimReport",
    "Stage",
    "TensorVar",
    "TuneResult",
    "TuningLedger",
    "compile_kernel",
    "formats_equivalent",
    "index_vars",
    "redistribution_trace",
    "reference_einsum",
    "tune_pipeline",
]

# NOTE: the search entry point is ``Kernel.tune`` / ``repro.tuner.tune``;
# a top-level ``repro.tune`` re-export would be shadowed by the
# ``python -m repro.tune`` CLI module of the same name.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.kernel": ("Kernel", "compile_kernel"),
    "repro.tuner.oracle": ("TuningLedger",),
    "repro.tuner.search": ("TuneResult",),
    "repro.tuner.space": ("Decision",),
    "repro.core.transfer": (
        "formats_equivalent", "redistribution_bytes", "redistribution_trace",
        "transfer_kernel",
    ),
    "repro.pipeline.pipeline": ("Pipeline", "PipelinePlan", "Stage"),
    "repro.pipeline.report": ("PipelineReport",),
    "repro.tuner.joint": ("PipelineTuneResult", "tune_pipeline"),
    "repro.formats.distribution": ("Distribution",),
    "repro.formats.format": ("Format",),
    "repro.ir.expr": ("Access", "IndexVar", "index_vars"),
    "repro.ir.tensor": ("Assignment", "TensorVar", "reference_einsum"),
    "repro.machine.cluster": (
        "Cluster", "Memory", "MemoryKind", "ProcessorKind",
    ),
    "repro.machine.grid": ("Grid",),
    "repro.machine.machine": ("Machine",),
    "repro.scheduling.schedule": ("Schedule",),
    "repro.sim.params": ("LASSEN", "MachineParams"),
    "repro.sim.report": ("SimReport",),
    "repro.util.errors": (
        "DistributionError", "LoweringError", "OutOfMemoryError",
        "PipelineError", "ReproError", "ScheduleError",
    ),
})
