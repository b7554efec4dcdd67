"""Kernel-level failure replanning."""

import math
from dataclasses import replace

import pytest

from repro.faults.events import FaultPlan, KillNode
from repro.faults.replan import replan_kernel
from repro.sim.params import LASSEN
from repro.tuner.space import Decision, from_heuristic
from repro.tuner.workloads import lean_cluster, matmul


@pytest.fixture
def setup():
    cluster = lean_cluster(4)
    assignment = matmul(64)
    decision = from_heuristic(assignment, (2, 2))
    return assignment, cluster, decision


def replan(assignment, cluster, decision, plan, **kw):
    return replan_kernel(
        assignment, cluster, LASSEN,
        decision=decision, fault_plan=plan, **kw,
    )


class TestSizedCluster:
    def test_shrink_and_grow_keep_anatomy(self):
        cluster = lean_cluster(4)
        for nodes in (1, 3, 8):
            resized = cluster.resized(nodes)
            assert resized.num_nodes == nodes
            assert resized.procs_per_node == cluster.procs_per_node
            assert resized.processor_kind is cluster.processor_kind

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            lean_cluster(4).resized(0)


class TestReplanKernel:
    def test_accounting_identity(self, setup):
        assignment, cluster, decision = setup
        plan = FaultPlan(events=(KillNode(phase=1, node=2),), seed=5)
        report = replan(assignment, cluster, decision, plan)
        assert report.failed
        assert report.num_nodes == 4
        assert report.surviving_nodes == 3
        assert report.lost_instances > 0
        # No checkpoint: the completed prefix is wasted but still paid.
        assert report.lost_time == report.completed_time
        assert report.total_time == pytest.approx(
            report.completed_time
            + report.migration_time
            + report.retuned_time
        )
        assert math.isfinite(report.total_time)
        assert report.total_time >= report.baseline_time

    def test_retuned_decision_fits_surviving_machine(self, setup):
        assignment, cluster, decision = setup
        plan = FaultPlan(events=(KillNode(phase=1, node=0),), seed=1)
        report = replan(assignment, cluster, decision, plan)
        retuned = Decision.decode(report.retuned_decision)
        assert math.prod(retuned.grid) == 3 * cluster.procs_per_node

    def test_checkpoint_preserves_completed_prefix(self, setup):
        assignment, cluster, decision = setup
        ckpt = replace(
            decision, checkpoint=(assignment.lhs.tensor.name,)
        )
        plan = FaultPlan(events=(KillNode(phase=1, node=2),), seed=5)
        plain = replan(assignment, cluster, decision, plan)
        saved = replan(assignment, cluster, ckpt, plan)
        assert saved.checkpointed == (assignment.lhs.tensor.name,)
        assert saved.lost_time == 0.0
        # Only the remaining fraction of phases re-runs.
        assert saved.retuned_time < plain.retuned_time
        # The snapshot itself migrates too.
        assert saved.migration_bytes > plain.migration_bytes

    def test_kill_past_end_reports_no_failure(self, setup):
        assignment, cluster, decision = setup
        plan = FaultPlan(events=(KillNode(phase=99, node=1),))
        report = replan(assignment, cluster, decision, plan)
        assert not report.failed
        assert report.phase == -1
        assert report.total_time == report.baseline_time
        assert report.migration_bytes == 0
        assert report.retuned_decision == report.pre_decision

    def test_equal_seeds_byte_identical(self, setup):
        assignment, cluster, decision = setup
        plan = FaultPlan(events=(KillNode(phase=1, node=3),), seed=9)
        a = replan(assignment, cluster, decision, plan)
        b = replan(assignment, cluster, decision, plan)
        assert a.to_json() == b.to_json()

    def test_different_kills_differ(self, setup):
        assignment, cluster, decision = setup
        a = replan(
            assignment, cluster, decision,
            FaultPlan(events=(KillNode(phase=1, node=0),)),
        )
        b = replan(
            assignment, cluster, decision,
            FaultPlan(events=(KillNode(phase=0, node=0),)),
        )
        assert a.phase != b.phase

    def test_describe_mentions_the_event(self, setup):
        assignment, cluster, decision = setup
        plan = FaultPlan(events=(KillNode(phase=1, node=2),))
        report = replan(assignment, cluster, decision, plan)
        text = report.describe()
        assert "node 2 died at phase 1" in text
        assert "re-tuned remainder" in text
