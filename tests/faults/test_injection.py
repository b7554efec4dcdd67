"""Fault injection through the executors.

Both symbolic interpreters (batched and orbit-compressed) create every
bulk-synchronous phase through ``Trace.new_step``, so a planned kill
must interrupt either one at exactly the same boundary with the same
structured :class:`NodeFailure` payload.
"""

import pytest

from repro import Grid, Machine, compile_kernel
from repro.algorithms.matmul import cannon, summa
from repro.faults.events import FaultPlan, KillNode
from repro.machine.cluster import Cluster
from repro.sim.costmodel import CostModel
from repro.sim.params import LASSEN
from repro.tuner.space import from_heuristic, realize
from repro.tuner.workloads import lean_cluster, matmul, ttv
from repro.util.errors import NodeFailure


def build_kernel(assignment, cluster, grid):
    decision = from_heuristic(assignment, grid)
    machine = Machine(cluster, Grid(*decision.grid))
    schedule, _ = realize(assignment, machine, decision)
    return compile_kernel(schedule, machine)


@pytest.fixture
def kernel():
    return build_kernel(matmul(64), lean_cluster(4), (2, 2))


class TestInjection:
    @pytest.mark.parametrize("mode", ["batched", "orbit"])
    def test_kill_raises_structured_failure(self, kernel, mode):
        plan = FaultPlan(events=(KillNode(phase=1, node=2),))
        with pytest.raises(NodeFailure) as exc:
            kernel.trace(mode=mode, fault_plan=plan)
        failure = exc.value
        assert failure.phase == 1
        assert failure.node == 2
        assert failure.surviving_nodes == 3
        assert failure.lost
        assert len(failure.partial_trace.steps) == 1

    def test_batched_and_orbit_fail_identically(self, kernel):
        plan = FaultPlan(events=(KillNode(phase=1, node=1),))
        failures = {}
        for mode in ("batched", "orbit"):
            with pytest.raises(NodeFailure) as exc:
                kernel.trace(mode=mode, fault_plan=plan)
            failures[mode] = exc.value
        a, b = failures["batched"], failures["orbit"]
        assert a.phase == b.phase
        assert a.node == b.node
        assert a.surviving_nodes == b.surviving_nodes
        assert a.lost == b.lost
        assert len(a.partial_trace.steps) == len(b.partial_trace.steps)

    def test_kill_at_phase_zero_loses_nothing_completed(self, kernel):
        plan = FaultPlan(events=(KillNode(phase=0, node=0),))
        with pytest.raises(NodeFailure) as exc:
            kernel.trace(fault_plan=plan)
        assert exc.value.partial_trace.steps == []

    def test_kill_past_the_end_never_fires(self, kernel):
        steps = len(kernel.trace().trace.steps)
        plan = FaultPlan(events=(KillNode(phase=steps + 5, node=0),))
        result = kernel.trace(fault_plan=plan)  # completes
        assert len(result.trace.steps) == steps

    def test_plan_without_kill_is_inert(self, kernel):
        reference = kernel.trace()
        run = kernel.trace(fault_plan=FaultPlan())
        assert len(run.trace.steps) == len(reference.trace.steps)

    def test_out_of_range_node_rejected(self, kernel):
        plan = FaultPlan(events=(KillNode(phase=1, node=99),))
        with pytest.raises(ValueError):
            kernel.trace(fault_plan=plan)

    def test_simulate_also_injects(self, kernel):
        plan = FaultPlan(events=(KillNode(phase=1, node=0),))
        with pytest.raises(NodeFailure) as exc:
            kernel.trace(mode="orbit", fault_plan=plan)
        # The failure's partial trace keeps its columns: it still prices.
        model = CostModel(kernel.machine.cluster, LASSEN)
        assert model.time_trace(exc.value.partial_trace).num_steps == 1

    def test_other_workload_shapes(self):
        kernel = build_kernel(ttv(48), lean_cluster(4), (2, 2))
        plan = FaultPlan(events=(KillNode(phase=1, node=3),))
        with pytest.raises(NodeFailure) as exc:
            kernel.trace(fault_plan=plan)
        assert exc.value.node == 3
        assert all(
            kernel.machine.proc_at(coords).node_id == 3
            for _name, coords, _rect in exc.value.lost
        )


class TestPartialTracePricing:
    """A kill's partial trace prices the same in every interpreter: the
    orbit executor finalizes the completed step before the fault hook
    can interrupt the run, so no step falls back to its compressed
    representatives."""

    @pytest.mark.parametrize("build", [cannon, summa])
    def test_orbit_partial_trace_prices_like_batched(self, build):
        kernel = build(Machine(Cluster.cpu_cluster(16), Grid(8, 4)), 2048)
        model = CostModel(kernel.machine.cluster, LASSEN)
        for phase in range(1, 6):
            plan = FaultPlan(events=(KillNode(phase=phase, node=1),))
            priced = {}
            for mode in ("batched", "orbit"):
                with pytest.raises(NodeFailure) as exc:
                    kernel.trace(mode=mode, fault_plan=plan)
                partial = exc.value.partial_trace
                assert len(partial.steps) == phase
                report = model.time_trace(partial)
                priced[mode] = (report.total_time, report.inter_node_bytes)
            assert priced["orbit"] == priced["batched"], phase
