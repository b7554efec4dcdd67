"""The ``python -m repro.obs`` CLI: export, demo."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.spans import reset_spans, set_tracing


@pytest.fixture(autouse=True)
def clean_tracing():
    yield
    set_tracing(None)
    reset_spans()


class TestExport:
    def test_exports_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "export", "--workload", "cannon", "--nodes", "4",
            "--size", "256", "--out", str(out),
        ]) == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert "phases" in capsys.readouterr().out

    def test_demo_flag(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(["--demo", "--out", str(out)]) == 0
        assert "demo trace OK" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert "span" in cats  # wall-clock lanes merged in
