"""Acceptance benchmark: fault recovery stays near the replanned optimum.

A chain-matmul pipeline loses a node mid-run. The recovery — the work
completed before the failure, the migration of surviving/restored data
into the new layout, and the re-tuned remainder — must land within a
pinned factor of the *oracle-replanned-from-scratch* optimum: the cost
of the same pipeline tuned from scratch for the surviving machine, as
if the failure had been known in advance. The gap between the two is
exactly the price of the failure (wasted prefix + migration), which the
pin bounds.

Equal-seed fault plans must also produce byte-identical recovery
reports — recovery is part of the deterministic simulation contract,
not a best-effort path.
"""

import pytest

from repro import LASSEN, Pipeline
from repro.faults.events import FaultPlan, KillNode
from repro.faults.replan import replan_kernel, replan_pipeline
from repro.tuner.joint import tune_pipeline
from repro.tuner.search import tune
from repro.tuner.workloads import lean_cluster, matmul, matmul_chain

#: Recovered total vs. the from-scratch optimum on the surviving
#: machine. The overhead is one wasted partial phase, one tensor-scale
#: migration, and any warm-start/search gap — 3x bounds all three
#: comfortably while still failing on a broken replanner (which shows
#: up as 10-100x or inf).
PIN_FACTOR = 3.0

NODES = 16
SIDE = 2048


@pytest.fixture(scope="module")
def cluster():
    return lean_cluster(NODES)


@pytest.fixture(scope="module")
def pipeline(cluster):
    return Pipeline(matmul_chain(SIDE), cluster)


@pytest.fixture(scope="module")
def decisions(pipeline):
    result = tune_pipeline(pipeline, LASSEN)
    return {
        name: r.decision for name, r in result.stage_results.items()
    }


@pytest.fixture(scope="module")
def recovery(pipeline, decisions):
    plan = FaultPlan(
        events=(KillNode(phase=1, node=NODES - 3, stage="T"),), seed=42
    )
    report = replan_pipeline(
        pipeline, decisions, LASSEN, fault_plan=plan,
        workload="chain-matmul",
    )
    return plan, report


class TestPinnedRecovery:
    def test_recovery_within_pinned_factor_of_scratch_optimum(
        self, pipeline, recovery
    ):
        plan, report = recovery
        # The from-scratch yardstick: the same pipeline tuned for the
        # surviving machine with no failure to pay for.
        surviving = pipeline.cluster.resized(NODES - 1)
        scratch = tune_pipeline(
            Pipeline(matmul_chain(SIDE), surviving), LASSEN
        )
        optimum = scratch.report.combined.total_time
        assert optimum > 0
        assert report.total_time <= PIN_FACTOR * optimum, (
            f"recovered {report.total_time:.4f}s vs scratch optimum "
            f"{optimum:.4f}s exceeds the {PIN_FACTOR}x pin"
        )
        # And recovery really happened: the killed stage shrank.
        by_name = {s.stage: s for s in report.stages}
        assert by_name["T"].recovery.failed
        assert by_name["T"].nodes == NODES - 1

    def test_equal_seed_plans_byte_identical(
        self, pipeline, decisions, recovery
    ):
        plan, report = recovery
        again = replan_pipeline(
            pipeline, decisions, LASSEN, fault_plan=plan,
            workload="chain-matmul",
        )
        assert report.to_json() == again.to_json()


class TestKernelRecoveryPin:
    def test_single_kernel_recovery_near_scratch_optimum(self, cluster):
        assignment = matmul(SIDE)
        decision = tune(matmul(SIDE), cluster, LASSEN).decision
        plan = FaultPlan(events=(KillNode(phase=1, node=3),), seed=7)
        report = replan_kernel(
            assignment, cluster, LASSEN,
            decision=decision, fault_plan=plan,
        )
        assert report.failed
        surviving = cluster.resized(NODES - 1)
        scratch = tune(matmul(SIDE), surviving, LASSEN)
        optimum = scratch.report.total_time
        assert report.total_time <= PIN_FACTOR * optimum
        # Byte-determinism holds at the kernel level too.
        again = replan_kernel(
            assignment, cluster, LASSEN,
            decision=decision, fault_plan=plan,
        )
        assert report.to_json() == again.to_json()
