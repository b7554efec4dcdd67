"""Pipeline replanning: mid-stage kills and inter-stage regrids."""

import math

import pytest

from repro.faults.events import FaultPlan, KillNode, Resize
from repro.faults.replan import replan_pipeline
from repro.pipeline import Pipeline
from repro.sim.params import LASSEN
from repro.tuner.space import Decision, from_heuristic
from repro.tuner.workloads import lean_cluster, matmul_chain


@pytest.fixture
def setup():
    cluster = lean_cluster(4)
    pipeline = Pipeline(matmul_chain(64), cluster)
    decisions = {
        stage.name: from_heuristic(stage.assignment, (2, 2))
        for stage in pipeline.stages
    }
    return pipeline, decisions


def replan(pipeline, decisions, plan, **kw):
    return replan_pipeline(
        pipeline, decisions, LASSEN, fault_plan=plan, **kw
    )


class TestKillMidPipeline:
    def test_kill_shrinks_downstream_stages(self, setup):
        pipeline, decisions = setup
        plan = FaultPlan(
            events=(KillNode(phase=1, node=1, stage="T"),), seed=3
        )
        report = replan(pipeline, decisions, plan)
        by_name = {s.stage: s for s in report.stages}
        assert by_name["T"].recovery is not None
        assert by_name["T"].recovery.failed
        # The killed stage and everything after it run on 3 nodes.
        assert by_name["T"].nodes == 3
        assert by_name["D"].nodes == 3
        assert by_name["D"].retuned
        retuned = Decision.decode(by_name["D"].decision)
        assert math.prod(retuned.grid) == 3 * pipeline.cluster.procs_per_node
        assert math.isfinite(report.total_time)
        assert report.total_time > report.baseline_time

    def test_kill_in_last_stage_leaves_earlier_stages_alone(self, setup):
        pipeline, decisions = setup
        plan = FaultPlan(
            events=(KillNode(phase=1, node=0, stage="D"),), seed=1
        )
        report = replan(pipeline, decisions, plan)
        by_name = {s.stage: s for s in report.stages}
        assert by_name["T"].nodes == 4
        assert not by_name["T"].retuned
        assert by_name["D"].recovery.failed

    def test_equal_plans_byte_identical(self, setup):
        pipeline, decisions = setup
        plan = FaultPlan(
            events=(KillNode(phase=1, node=2, stage="T"),), seed=8
        )
        a = replan(pipeline, decisions, plan)
        b = replan(pipeline, decisions, plan)
        assert a.to_json() == b.to_json()


class TestResizeBetweenStages:
    @pytest.mark.parametrize("nodes", [2, 8])
    def test_resize_retunes_the_boundary_stage(self, setup, nodes):
        """Shrinking and growing the grid both re-tune stage D onto the
        new machine and pay a cross-grid handoff for T."""
        pipeline, decisions = setup
        plan = FaultPlan(events=(Resize(boundary="D", nodes=nodes),))
        report = replan(pipeline, decisions, plan)
        by_name = {s.stage: s for s in report.stages}
        assert by_name["T"].nodes == 4
        assert by_name["D"].nodes == nodes
        assert by_name["D"].retuned
        retuned = Decision.decode(by_name["D"].decision)
        assert math.prod(retuned.grid) == (
            nodes * pipeline.cluster.procs_per_node
        )
        assert by_name["D"].handoff_bytes > 0
        assert math.isfinite(report.total_time)

    def test_noop_resize_changes_nothing(self, setup):
        pipeline, decisions = setup
        plan = FaultPlan(events=(Resize(boundary="D", nodes=4),))
        report = replan(pipeline, decisions, plan)
        assert not any(s.retuned for s in report.stages)


class TestQuietPlan:
    def test_empty_plan_runs_clean(self, setup):
        pipeline, decisions = setup
        report = replan(pipeline, decisions, FaultPlan())
        assert all(s.recovery is None for s in report.stages)
        assert not any(s.retuned for s in report.stages)
        assert math.isfinite(report.total_time)
        assert report.baseline_time > 0

    def test_describe_lists_every_stage(self, setup):
        pipeline, decisions = setup
        plan = FaultPlan(
            events=(KillNode(phase=1, node=1, stage="T"),), seed=2
        )
        text = replan(pipeline, decisions, plan).describe()
        assert "stage T" in text
        assert "stage D" in text
        assert "died at phase" in text
