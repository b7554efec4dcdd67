"""Fault injection and recovery replanning for simulated executions.

The package splits into three layers:

* :mod:`repro.faults.events` — the deterministic, seeded fault model
  (:class:`FaultPlan`, :class:`KillNode`, :class:`Resize`) and the
  trace hook that turns a planned kill into a structured
  :class:`~repro.util.errors.NodeFailure`;
* :mod:`repro.faults.replan` — the replanner: price the interrupted
  prefix, re-tune the remainder on the surviving machine warm-started
  from the pre-failure decision, charge migration exactly through
  :func:`~repro.core.transfer.redistribution_trace`
  (:class:`RecoveryReport`, :func:`replan_kernel`,
  :func:`replan_pipeline`);
* :mod:`repro.faults.objective` — the tuner's ``objective="expected"``
  mode: expected runtime under a per-phase failure rate, with
  checkpoint placement as a decision
  (:func:`expected_cost`, :func:`rerank_expected`);
* :mod:`repro.faults.chaos` — the same seeded discipline applied to
  the *serving layer*: :class:`ChaosPlan` schedules worker kills,
  poison requests, dropped connections, torn/oversized frames, and a
  daemon restart, replayed by the chaos benchmark
  (``benchmarks/test_serve_chaos.py``).

``python -m repro.faults`` injects a kill (or, with ``--pipeline``, a
sampled fault plan) and prints the recovery report.
"""

from repro.faults.chaos import (
    ChaosController,
    ChaosPlan,
    DropConnection,
    KillWorker,
    OversizedLine,
    PoisonRequest,
    RestartDaemon,
    TornLine,
)
from repro.faults.events import (
    FaultPlan,
    KillNode,
    Resize,
    install_fault_hook,
    lost_instances,
)
from repro.faults.objective import (
    checkpoint_choices,
    expected_cost,
    rerank_expected,
)
from repro.faults.replan import (
    PipelineRecoveryReport,
    RecoveryReport,
    StageRecovery,
    replan_kernel,
    replan_pipeline,
)
from repro.util.errors import NodeFailure

__all__ = [
    "FaultPlan",
    "KillNode",
    "Resize",
    "ChaosPlan",
    "ChaosController",
    "KillWorker",
    "PoisonRequest",
    "DropConnection",
    "TornLine",
    "OversizedLine",
    "RestartDaemon",
    "NodeFailure",
    "install_fault_hook",
    "lost_instances",
    "checkpoint_choices",
    "expected_cost",
    "rerank_expected",
    "RecoveryReport",
    "PipelineRecoveryReport",
    "StageRecovery",
    "replan_kernel",
    "replan_pipeline",
]
