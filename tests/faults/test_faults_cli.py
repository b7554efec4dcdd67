"""The fixed kill scenario and the ``python -m repro.faults`` CLI."""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from repro.faults.__main__ import _seed_decision, main
from repro.faults.events import FaultPlan, KillNode
from repro.faults.replan import replan_kernel
from repro.machine.cluster import Cluster
from repro.sim.params import LASSEN
from repro.tuner.workloads import sized

#: sha256 of the fixed scenario's ``RecoveryReport.to_json()``.
KILL_REPORT_SHA256 = (
    "a346f2643c7e40173495fc589cdf94c451dd880bb5c9b3467e2c53d2345b0b6d"
)
#: sha256 of the sampled chain-matmul recovery report (seed 5, 4 nodes,
#: side 256), re-serialized key-sorted from the CLI's ``--json``.
PIPELINE_REPORT_SHA256 = (
    "dba4ccd970c1d28062d1e0116fba20d2dbbb4c984faddd7472f48ec451c57236"
)


class TestFixedKill:
    """Node 2 of 4 dies at phase 1 of a 2048 matmul: the failure must
    be replanned onto the 3 survivors, bit-reproducibly."""

    @pytest.fixture(scope="class")
    def reports(self):
        cluster = Cluster.cpu_cluster(4)
        assignment = sized("matmul", 2048)
        decision = _seed_decision(assignment, cluster, max_dims=3)
        assert decision.encode() == "grid=2x4;dist=i,j;out=face;leaf=gemm"
        plan = FaultPlan(events=(KillNode(phase=1, node=2),), seed=11)
        return [
            replan_kernel(
                assignment,
                cluster,
                LASSEN,
                decision=decision,
                fault_plan=plan,
                strategy="exhaustive",
                seed=0,
                workload="matmul",
            )
            for _ in range(2)
        ]

    def test_kill_fires(self, reports):
        assert reports[0].failed
        assert (reports[0].phase, reports[0].dead_node) == (1, 2)

    def test_replanned_at_finite_cost(self, reports):
        assert math.isfinite(reports[0].total_time)

    def test_retuned_for_the_survivors(self, reports):
        report = reports[0]
        assert report.retuned_decision != report.pre_decision
        assert report.retuned_decision == (
            "grid=2x3;dist=i,j;out=face;leaf=gemm"
        )

    def test_equal_seeds_give_byte_identical_reports(self, reports):
        assert reports[0].to_json() == reports[1].to_json()
        digest = hashlib.sha256(reports[0].to_json().encode()).hexdigest()
        assert digest == KILL_REPORT_SHA256


class TestCli:
    def test_weak_scaled_kernel_run(self, capsys):
        # No --size: the problem is weak-scaled to --nodes.
        args = ["--workload", "matmul", "--nodes", "2",
                "--strategy", "exhaustive"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert (
            "injecting seed=0;kill(node=0,phase=2) into matmul on "
            "Cluster(2 nodes x 2 cpu procs)"
        ) in out
        assert "no failure triggered" in out
        assert "== Metrics ==" in out

    def test_pipeline_json(self, capsys):
        args = ["--pipeline", "chain-matmul", "--nodes", "4",
                "--size", "256", "--fault-seed", "5",
                "--strategy", "exhaustive", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "chain-matmul"
        assert payload["fault_plan"] == "seed=5;kill(node=0,phase=2@T)"
        report = payload["report"]
        assert math.isfinite(report["total_time"])
        assert [s["stage"] for s in report["stages"]] == ["T", "D"]
        text = json.dumps(report, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PIPELINE_REPORT_SHA256
        assert "metrics" in payload

    def test_unreplanned_failure_exits_nonzero(self, monkeypatch, capsys):
        import repro.faults.__main__ as faults_cli

        real = faults_cli.replan_kernel

        def unrecovered(*args, **kwargs):
            return replace(real(*args, **kwargs), total_time=float("inf"))

        monkeypatch.setattr(faults_cli, "replan_kernel", unrecovered)
        args = ["--workload", "matmul", "--nodes", "2", "--size", "256",
                "--phase", "1", "--node", "1", "--json"]
        assert main(args) == 1
        assert "not replanned" in capsys.readouterr().err

    def test_crash_exits_nonzero(self, monkeypatch, capsys):
        import repro.faults.__main__ as faults_cli

        def exploding(*args, **kwargs):
            raise RuntimeError("replanner died")

        monkeypatch.setattr(faults_cli, "replan_kernel", exploding)
        args = ["--workload", "matmul", "--nodes", "2", "--size", "256"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "replanner died" in err
        assert "fault replanning failed" in err
