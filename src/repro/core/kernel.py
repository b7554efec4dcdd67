"""Compiled kernels: the user-facing result of the DISTAL pipeline.

``compile_kernel(schedule, machine)`` runs the full pipeline of Figure 3 —
scheduled concrete index notation, distributed lowering, partition/bounds
derivation — and returns a :class:`Kernel` that can

* ``execute(inputs)`` — run functionally on real numpy data over the
  simulated distributed machine (and optionally verify against the
  ``numpy.einsum`` oracle), and
* ``simulate(params)`` — run symbolically at paper scale, producing a
  :class:`~repro.sim.report.SimReport` with time, rates and traffic.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.codegen.lower import lower_to_plan
from repro.codegen.plan import DistributedPlan
from repro.ir.tensor import Assignment, reference_einsum
from repro.machine.cluster import Cluster
from repro.machine.machine import Machine
from repro.runtime.executor import ExecutionResult, Executor
from repro.scheduling.schedule import Schedule
from repro.sim.costmodel import CostModel, SkeletonAccumulator
from repro.sim.params import LASSEN, MachineParams
from repro.sim.report import SimReport


class Kernel:
    """A compiled distributed tensor algebra kernel."""

    def __init__(self, plan: DistributedPlan):
        self.plan = plan

    @property
    def assignment(self) -> Assignment:
        return self.plan.assignment

    @property
    def machine(self) -> Machine:
        return self.plan.machine

    def pretty(self) -> str:
        """Readable pseudocode of the generated distributed program."""
        return self.plan.pretty()

    # ------------------------------------------------------------------
    # Functional execution.
    # ------------------------------------------------------------------

    def execute(
        self,
        inputs: Dict[str, np.ndarray],
        verify: bool = False,
        check_capacity: bool = False,
    ) -> ExecutionResult:
        """Run the kernel on real data over the simulated machine.

        With ``verify=True`` the distributed result is checked against the
        ``numpy.einsum`` oracle; a mismatch raises ``AssertionError``.
        """
        executor = Executor(
            self.plan, materialize=True, check_capacity=check_capacity
        )
        result = executor.run(inputs)
        if verify:
            expected = reference_einsum(self.assignment, inputs)
            actual = result.outputs[self.plan.output]
            np.testing.assert_allclose(
                actual, expected, rtol=1e-10, atol=1e-10,
                err_msg=f"kernel output diverges from einsum oracle for "
                f"{self.assignment!r}",
            )
        return result

    # ------------------------------------------------------------------
    # Symbolic execution + performance simulation.
    # ------------------------------------------------------------------

    def trace(
        self,
        check_capacity: bool = True,
        mode: str = "batched",
        fault_plan=None,
        *,
        skeleton=None,
    ) -> ExecutionResult:
        """Symbolic execution: the full phase trace, no data movement.

        ``mode`` selects the interpreter: ``"scalar"`` (the per-context
        reference), ``"batched"`` (vectorized, trace-identical to
        scalar) or ``"orbit"`` (orbit-compressed: ``step.copies`` are
        class representatives with multiplicities, while the pricing
        columns, ``step.columns()``, are per member; identical
        simulated times). A representative cannot be priced on its own
        (:class:`~repro.util.errors.RepresentativeCopyError`). Trace
        analyses default to the full ``"batched"`` record.
        ``fault_plan`` (a
        :class:`~repro.faults.events.FaultPlan`) arms fault injection:
        a planned node kill raises
        :class:`~repro.util.errors.NodeFailure` at the exact phase
        boundary, identically in every mode.

        ``skeleton`` (a
        :class:`~repro.sim.costmodel.SkeletonAccumulator`) receives
        every step. The orbit executor prices each step as it closes
        and then releases its copy columns, so the returned trace keeps
        labels, representatives and work but cannot be priced again;
        the other modes add the steps after the run.
        """
        if mode == "orbit":
            from repro.runtime.orbit import OrbitExecutor

            executor = OrbitExecutor(
                self.plan, check_capacity=check_capacity,
                fault_plan=fault_plan, skeleton=skeleton,
            )
        elif mode in ("batched", "scalar"):
            executor = Executor(
                self.plan,
                materialize=False,
                check_capacity=check_capacity,
                batched=(mode == "batched"),
                fault_plan=fault_plan,
            )
        else:
            raise ValueError(
                f"unknown execution mode {mode!r} "
                f"(expected 'orbit', 'batched' or 'scalar')"
            )
        result = executor.run()
        if skeleton is not None and mode != "orbit":
            for step in result.trace.steps:
                skeleton.add(step)
        return result

    def simulate(
        self,
        params: MachineParams = LASSEN,
        check_capacity: bool = True,
        mode: str = "orbit",
        breakdown: bool = False,
    ) -> SimReport:
        """Symbolically execute and time the kernel on the cost model.

        Raises :class:`~repro.util.errors.OutOfMemoryError` when an
        instance exceeds its memory's capacity (the paper's 3-D algorithm
        OOMs), unless ``check_capacity=False``.

        Defaults to the orbit-compressed executor — simulation cost
        scales with the number of distinct per-context behaviours
        instead of the grid size, with byte-identical ``SimReport``
        numbers (``tests/runtime/test_orbit_executor.py``). Each step
        is priced as it closes (one ``CostModel.comm_time`` call, no
        price memo) and its copy columns dropped, so peak
        memory grows with the processor count, not with processors ×
        phases: Cannon on 65,536 CPU nodes peaks under 400 MB.
        The report equals ``CostModel.time_trace`` of the full trace.
        Pass ``mode="batched"`` or ``mode="scalar"`` for the
        uncompressed interpreters. ``breakdown=True`` attaches the
        per-phase :class:`~repro.sim.report.PhaseBreakdown` without
        changing any report number.
        """
        model = CostModel(self.machine.cluster, params)
        acc = SkeletonAccumulator(model, breakdown=breakdown)
        result = self.trace(
            check_capacity=check_capacity, mode=mode, skeleton=acc
        )
        return model.price_skeleton(acc, result.trace.memory_high_water)

    def analyze(self):
        """Run the static analyzer over this kernel.

        Executes one full (uncompressed) symbolic trace without capacity
        checks, replays it through the trace sanitizer, and certifies the
        traffic simulated under :data:`~repro.sim.params.LASSEN` against
        the schedule-independent communication lower bound. Returns a
        :class:`~repro.analysis.report.AnalysisReport`.
        """
        from repro.analysis.report import analyze_kernel

        return analyze_kernel(self)

    # ------------------------------------------------------------------
    # Automatic scheduling (Section 9): heuristic and search.
    # ------------------------------------------------------------------

    @staticmethod
    def autoschedule(
        assignment: Assignment,
        machine: Machine,
    ) -> "Kernel":
        """Compile with the one-shot heuristic (Section 9's baseline).

        Builds :func:`repro.tuner.space.heuristic_decision` on the
        machine's own outer grid with the tuner's schedule builder,
        applying the derived formats (in the cluster's default memory)
        to the assignment's tensors, and compiles the result.
        Normalized, the same decision is the seed candidate of
        :meth:`tune`.
        """
        from repro.tuner.space import build_schedule, heuristic_decision

        decision = heuristic_decision(assignment, machine.levels[0].shape)
        schedule, _ = build_schedule(
            assignment, machine, decision, machine.cluster.default_memory
        )
        return compile_kernel(schedule, machine)

    @staticmethod
    def tune(
        assignment: Assignment,
        machine: Union[Machine, Cluster],
        params: MachineParams = LASSEN,
        **options,
    ):
        """Search the schedule space with the simulator as cost oracle.

        ``machine`` may be a :class:`~repro.machine.machine.Machine`
        (its outer grid seeds the heuristic; its cluster bounds the
        search) or a bare :class:`~repro.machine.cluster.Cluster` (the
        tuner also picks the grid organization). Keyword options are
        forwarded to :func:`repro.tuner.search.tune` — notably
        ``jobs`` (parallel oracle workers), ``strategy``
        (``"exhaustive"``, the default, or ``"warm"`` with a
        ``warm_start``), and ``ledger`` (a
        :class:`~repro.tuner.oracle.TuningLedger`, for persistent
        incremental re-tunes). ``seed``, ``objective`` and
        ``failure_rate`` become fields of the request.

        Returns a :class:`~repro.tuner.search.TuneResult`: an ordinary
        :class:`~repro.scheduling.schedule.Schedule` plus formats that
        replay byte-identically from the winning decision vector, the
        compiled kernel, and its :class:`~repro.sim.report.SimReport`.
        The heuristic seeds the search and is always simulated, so the
        tuned schedule is never worse than :meth:`autoschedule`'s.

        This method is a shim over the unified scheduling API: it
        builds the canonical :class:`repro.api.ScheduleRequest` and
        answers it with :func:`repro.api.tune_request` — the same
        engine the serving daemon (:mod:`repro.serve`) dispatches to,
        so an in-process tune and a daemon answer for the same request
        agree byte-for-byte. The returned result additionally carries
        the canonical :class:`repro.api.ScheduleAnswer` in its
        ``answer`` field.
        """
        from repro import api

        if isinstance(machine, Machine):
            if len(machine.levels) > 1:
                raise ValueError(
                    "Kernel.tune searches single-level machine grids; "
                    "pass the cluster to let the tuner pick the grid"
                )
            options.setdefault("seed_grid", machine.levels[0].shape)
            cluster = machine.cluster
        else:
            cluster = machine
        request = api.ScheduleRequest.from_assignment(
            assignment,
            cluster,
            params=params,
            seed=options.pop("seed", 0),
            objective=options.pop("objective", "total"),
            failure_rate=options.pop("failure_rate", 0.0),
        )
        return api.tune_request(
            request,
            assignment=assignment,
            cluster=cluster,
            params=params,
            **options,
        )


def compile_kernel(schedule: Schedule, machine: Machine) -> Kernel:
    """Compile a scheduled assignment for a machine (Figure 3 pipeline)."""
    plan = lower_to_plan(schedule, machine)
    return Kernel(plan)
