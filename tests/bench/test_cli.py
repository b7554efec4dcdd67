"""Smoke tests for the ``python -m repro.bench`` figure CLI."""

import pytest

from repro.bench.__main__ import main, parse_nodes


class TestCli:
    def test_parse_nodes(self):
        assert parse_nodes("1,4,16") == [1, 4, 16]
        assert parse_nodes("8") == [8]

    def test_ttv_runs(self, capsys):
        assert main(["ttv", "--nodes", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "ttv weak scaling" in out
        assert "Ours" in out

    def test_fig15a_small(self, capsys):
        assert main(["fig15a", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "ScaLAPACK" in out

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-figure"])

    def test_weak4096_accepts_node_override(self, capsys):
        assert main(["weak4096", "--nodes", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "Weak scaling to 4 nodes" in out
        assert "cannon" in out

    def test_parallel_jobs_match_sequential(self, capsys):
        assert main(["weak512", "--nodes", "1,2,4", "--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        assert main(["weak512", "--nodes", "1,2,4"]) == 0
        sequential = capsys.readouterr().out
        assert parallel == sequential

    def test_profile_prints_and_logs(self, capsys):
        assert main(["ttv", "--nodes", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Wall-clock profile" in out
        assert "ttv" in out.split("Wall-clock profile")[1]

    def test_failing_sweep_exits_nonzero(self, capsys, monkeypatch):
        import repro.bench.__main__ as cli

        def boom(**kwargs):
            raise RuntimeError("sweep exploded")

        monkeypatch.setattr(cli, "fig15a_cpu_matmul", boom)
        assert main(["fig15a", "--nodes", "1"]) == 1
        err = capsys.readouterr().err
        assert "benchmark sweep failed" in err

    def test_profile_persists_when_sweep_fails(self, capsys, monkeypatch):
        # The figures that finished before the crash still print their
        # wall-clock: the evidence of where the run died.
        import repro.bench.__main__ as cli

        def boom(*args, **kwargs):
            raise RuntimeError("sweep exploded")

        monkeypatch.setattr(cli, "fig16_higher_order", boom)
        assert main(["all", "--nodes", "1", "--profile"]) == 1
        out = capsys.readouterr().out
        profile = out.split("Wall-clock profile")[1]
        assert "fig15a" in profile
        assert "fig15b" in profile
