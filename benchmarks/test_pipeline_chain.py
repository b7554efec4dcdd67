"""Acceptance benchmark: joint pipeline tuning at paper scale.

The full-size variant of ``tests/pipeline/test_joint.py``: the
``(A@B)@C`` chain at 256 one-socket nodes with the weak-scaled 65536
problem, jointly tuned through the parallel oracle inside the suite's
240 s budget. The joint schedule must eliminate the intermediate's
redistribution outright and strictly beat independently tuned stages.
TTMc at 256 GPU-less nodes with plentiful memory needs no joint fix:
each stage's exact optimum already hands the intermediate over in the
layout the other expects.
"""

import os

import pytest

from repro import LASSEN, Pipeline
from repro.tuner.joint import tune_pipeline
from repro.tuner.workloads import lean_cluster, matmul_chain, ttmc

JOBS = int(os.environ.get("REPRO_TUNE_JOBS", "8"))


@pytest.fixture(scope="module")
def chain_result():
    cluster = lean_cluster(256, mem_gib=2)
    pipeline = Pipeline(matmul_chain(65536, 512), cluster)
    return tune_pipeline(
        pipeline,
        LASSEN,
        top_k=5,
        max_dims=2,
        jobs=JOBS,
    )


class TestChainAtScale:
    def test_joint_eliminates_redistribution(self, chain_result):
        assert chain_result.independent_report.redistribution_bytes > 0
        assert chain_result.report.redistribution_bytes == 0.0

    def test_joint_strictly_beats_independent(self, chain_result):
        joint = chain_result.report.combined.total_time
        independent = (
            chain_result.independent_report.combined.total_time
        )
        assert joint < independent

    def test_handoff_is_direct_or_matched(self, chain_result):
        assert chain_result.handoffs["T"] in ("direct", "redistribute")
        assert chain_result.report.edges[0].matched


class TestTTMcAtScale:
    def test_exact_stage_tunes_leave_no_mismatch(self):
        cluster = lean_cluster(256, mem_gib=4)
        pipeline = Pipeline(ttmc(1024), cluster)
        result = tune_pipeline(pipeline, LASSEN, top_k=5, jobs=JOBS)
        assert result.report is not None
        assert result.independent_report is not None
        assert result.report.redistribution_bytes == 0.0
        assert result.independent_report.redistribution_bytes == 0.0
        joint = result.report.combined.total_time
        assert joint == result.independent_report.combined.total_time
        assert joint == 0.00848777413066717
