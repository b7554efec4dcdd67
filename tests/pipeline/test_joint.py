"""Joint pipeline tuning: the acceptance contract.

The headline claim (ISSUE 4): a format-aware *joint* schedule of the
``(A@B)@C`` chain at 256 nodes is strictly cheaper than independently
tuned stages with default handoff redistribution, because the joint
schedule eliminates a full redistribution of the intermediate.
"""

import pytest

from repro import LASSEN, Pipeline, tune_pipeline
from repro.machine.cluster import Cluster
from repro.tuner.workloads import lean_cluster, matmul_chain, ttmc


@pytest.fixture(scope="module")
def chain_256_result():
    """The acceptance configuration, tuned once per test session."""
    cluster = lean_cluster(256, mem_gib=1)
    pipeline = Pipeline(matmul_chain(32768, 512), cluster)
    return pipeline, tune_pipeline(
        pipeline,
        LASSEN,
        top_k=4,
        max_dims=2,
    )


class TestChain256Acceptance:
    def test_joint_strictly_beats_independent(self, chain_256_result):
        _, result = chain_256_result
        assert result.report is not None
        assert result.independent_report is not None
        assert (
            result.report.combined.total_time
            < result.independent_report.combined.total_time
        )
        assert result.improved

    def test_joint_eliminates_the_redistribution(self, chain_256_result):
        _, result = chain_256_result
        # Independently tuned stages disagree on T's layout and pay a
        # real redistribution; the joint schedule hands T off for free.
        assert result.independent_report.redistribution_time > 0
        assert result.independent_report.redistribution_bytes > 0
        assert result.report.redistribution_time == 0.0
        assert result.report.redistribution_bytes == 0.0

    def test_joint_handoff_formats_match(self, chain_256_result):
        from repro.core.transfer import formats_equivalent

        pipeline, result = chain_256_result
        for edge in pipeline.edges:
            src, src_m, dst, dst_m = result.plan.handoff_formats(edge)
            assert formats_equivalent(src, src_m, dst, dst_m)

    def test_independent_combo_is_in_the_joint_space(self, chain_256_result):
        """Joint tuning can never lose to independent tuning: the
        independent combination is part of its enumeration."""
        _, result = chain_256_result
        assert (
            result.report.combined.total_time
            <= result.independent_report.combined.total_time
        )


class TestJointSmall:
    def test_ttmc_joint_never_worse(self):
        cluster = Cluster.cpu_cluster(2)
        pipeline = Pipeline(ttmc(128, 16), cluster)
        result = tune_pipeline(pipeline, LASSEN, top_k=3)
        assert result.report is not None
        assert (
            result.report.combined.total_time
            <= result.independent_report.combined.total_time
        )

    def test_top_k_below_one_raises(self):
        pipeline = Pipeline(matmul_chain(1024, 256), Cluster.cpu_cluster(2))
        for top_k in (0, -1):
            with pytest.raises(ValueError, match="top_k must be at least 1"):
                tune_pipeline(pipeline, LASSEN, top_k=top_k)

    def test_max_dims_below_one_raises(self):
        pipeline = Pipeline(matmul_chain(1024, 256), Cluster.cpu_cluster(2))
        with pytest.raises(ValueError, match="max_dims must be at least 1"):
            tune_pipeline(pipeline, LASSEN, max_dims=0)

    def test_deterministic(self):
        cluster = Cluster.cpu_cluster(2)
        first = tune_pipeline(
            Pipeline(matmul_chain(1024, 256), cluster), LASSEN, top_k=3
        )
        second = tune_pipeline(
            Pipeline(matmul_chain(1024, 256), cluster), LASSEN, top_k=3
        )
        assert {
            name: d.encode() for name, d in first.decisions.items()
        } == {
            name: d.encode() for name, d in second.decisions.items()
        }
        assert first.handoffs == second.handoffs
        assert (
            first.report.combined.total_time
            == second.report.combined.total_time
        )
