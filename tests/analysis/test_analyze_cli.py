"""The analyzer gate and the ``python -m repro.analyze`` CLI.

Every workload's enumerated space at side 1024 on 4 CPU nodes must
verify legal, and its heuristic schedule must come back clean from the
sanitizer. The candidate and pruning counts and the heuristic decision
are pinned per workload, so an enumeration or pruning change fails a
named row.
"""

import json

import pytest

from repro.analyze import analyze_workload, main
from repro.machine.cluster import Cluster
from repro.tuner.workloads import WORKLOADS, sized

#: workload -> (candidates, pruned, heuristic decision).
GATE = {
    "matmul": (216, 108, "grid=2x4;dist=j,i;out=face;leaf=gemm"),
    "matmul-rect": (216, 108, "grid=2x4;dist=j,i;out=face;leaf=gemm"),
    "mttkrp": (1972, 986, "grid=2x4;dist=l,i;out=face;leaf=gemm"),
    "ttm": (544, 272, "grid=2x2x2;dist=i,j,l;out=face;leaf=gemm"),
    "ttv": (80, 40, "grid=2x4;dist=j,i;out=face;leaf=gemm"),
}


def test_gate_covers_every_workload():
    assert set(GATE) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_analyzer_gate(name):
    findings, row = analyze_workload(
        name,
        Cluster.cpu_cluster(4),
        sized(name, 1024),
        say=lambda *a, **k: None,
    )
    assert findings == 0
    assert row["violations"] == 0
    assert row["sanitizer_findings"] == 0
    assert (
        row["candidates"], row["pruned"], row["heuristic_decision"]
    ) == GATE[name]


class TestCli:
    def test_human_report(self, capsys):
        assert main(["ttv", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "legality: 40 candidates, 0 violations" in out
        assert "trace sanitizer: clean" in out
        assert "comm lower bound" in out
        assert out.rstrip().endswith("all passes clean")

    def test_json_payload(self, capsys):
        assert main(["ttv", "--nodes", "2", "--size", "256", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == 0
        (row,) = payload["workloads"]
        assert row["workload"] == "ttv"
        assert row["sizes"]["B"] == [256, 256, 256]

    def test_forced_finding_exits_nonzero(self, monkeypatch, capsys):
        import repro.analyze as analyze_cli

        monkeypatch.setattr(
            analyze_cli, "verify_legality", lambda *a, **k: ["forced"]
        )
        assert main(["ttv", "--nodes", "2", "--size", "256", "--json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["findings"] == payload["workloads"][0]["candidates"]
        assert f"{payload['findings']} finding(s)" in captured.err

    def test_workload_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_crash_exits_nonzero(self, monkeypatch, capsys):
        import repro.analyze as analyze_cli

        def exploding(*args, **kwargs):
            raise RuntimeError("analyzer died")

        monkeypatch.setattr(analyze_cli, "analyze_kernel", exploding)
        assert main(["ttv", "--nodes", "2", "--size", "256"]) == 1
        assert "analysis run failed" in capsys.readouterr().err
