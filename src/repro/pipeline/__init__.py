"""Kernel pipelines: multi-kernel DAGs with inter-stage redistribution.

See :mod:`repro.pipeline.pipeline` for the DAG model and
:mod:`repro.tuner.joint` for joint (format-aware) pipeline tuning.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pipeline.pipeline": (
        "HANDOFF_DIRECT", "HANDOFF_REDISTRIBUTE", "Pipeline", "PipelineEdge",
        "PipelinePlan", "ScheduledStage", "Stage",
    ),
    "repro.pipeline.redistribute": ("redistribution_report",),
    "repro.pipeline.report": ("EdgeCost", "PipelineReport", "StageCost"),
})
