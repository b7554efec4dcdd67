"""The benchmark-tier perf-regression gate (bench/regression.py)."""

import json

import pytest

from repro.bench.regression import (
    compare,
    compare_counters,
    latest_by_name,
    main,
)


def write_log(path, records):
    path.write_text(json.dumps(records))
    return path


def rec(name, wall_s, counters=None):
    record = {"name": name, "wall_s": wall_s, "timestamp": 0}
    if counters is not None:
        record["metrics"] = {"counters": counters}
    return record


class TestCompare:
    def test_latest_entry_wins(self):
        latest = latest_by_name([rec("a", 1.0), rec("a", 2.0)])
        assert latest["a"]["wall_s"] == 2.0

    def test_regression_needs_relative_and_absolute_slowdown(self):
        base = {"a": rec("a", 1.0), "b": rec("b", 0.01), "c": rec("c", 1.0)}
        cur = {"a": rec("a", 1.5), "b": rec("b", 0.02), "c": rec("c", 1.04)}
        regressions, _, _ = compare(base, cur)
        # a: +50% and +0.5s -> regressed; b: +100% but only +0.01s
        # (under the absolute floor); c: +0.04s but under 25%.
        assert [r[0] for r in regressions] == ["a"]

    def test_disjoint_names_never_fail(self):
        regressions, missing, new = compare(
            {"old": rec("old", 1.0)}, {"new": rec("new", 9.0)}
        )
        assert regressions == []
        assert missing == ["old"]
        assert new == ["new"]


class TestCli:
    def test_green_run_exits_zero(self, tmp_path, capsys):
        base = write_log(tmp_path / "base.json", [rec("sweep", 1.0)])
        cur = write_log(tmp_path / "cur.json", [rec("sweep", 1.1)])
        assert main(["--baseline", str(base), "--log", str(cur)]) == 0
        assert "no tracked timing regressed" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        base = write_log(tmp_path / "base.json", [rec("sweep", 1.0)])
        cur = write_log(tmp_path / "cur.json", [rec("sweep", 2.0)])
        assert main(["--baseline", str(base), "--log", str(cur)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_compares_latest_entries_only(self, tmp_path):
        base = write_log(tmp_path / "base.json", [rec("sweep", 5.0)])
        cur = write_log(
            tmp_path / "cur.json", [rec("sweep", 9.0), rec("sweep", 5.1)]
        )
        assert main(["--baseline", str(base), "--log", str(cur)]) == 0

    def test_threshold_is_configurable(self, tmp_path):
        base = write_log(tmp_path / "base.json", [rec("sweep", 1.0)])
        cur = write_log(tmp_path / "cur.json", [rec("sweep", 1.2)])
        args = ["--baseline", str(base), "--log", str(cur)]
        assert main(args) == 0
        assert main(args + ["--threshold", "0.1"]) == 1

    def test_default_log_honours_env_override(
        self, tmp_path, monkeypatch
    ):
        base = write_log(tmp_path / "base.json", [rec("sweep", 1.0)])
        cur = write_log(tmp_path / "cur.json", [rec("sweep", 1.0)])
        monkeypatch.setenv("REPRO_BENCH_LOG", str(cur))
        assert main(["--baseline", str(base)]) == 0

    def test_unreadable_log_is_a_hard_error(self, tmp_path):
        base = write_log(tmp_path / "base.json", [rec("sweep", 1.0)])
        with pytest.raises(SystemExit):
            main(["--baseline", str(base), "--log", str(tmp_path / "x")])
        not_a_list = tmp_path / "obj.json"
        not_a_list.write_text("{}")
        with pytest.raises(SystemExit):
            main(["--baseline", str(base), "--log", str(not_a_list)])


class TestCounterGate:
    def test_crash_reappearance_fails(self):
        base = {"s": rec("s", 1.0, {"serve.crashes": 0})}
        cur = {"s": rec("s", 1.0, {"serve.crashes": 3})}
        findings, pre_schema = compare_counters(base, cur)
        assert [f[1] for f in findings] == ["serve.crashes"]
        assert pre_schema == []

    def test_nonzero_baseline_crashes_do_not_arm_the_rule(self):
        base = {"s": rec("s", 1.0, {"serve.crashes": 2})}
        cur = {"s": rec("s", 1.0, {"serve.crashes": 5})}
        findings, _ = compare_counters(base, cur)
        assert findings == []

    def test_replay_rate_collapse_fails(self):
        base = {"s": rec("s", 1.0, {
            "costmodel.step_price_hits": 90,
            "costmodel.step_price_misses": 10,
        })}
        cur = {"s": rec("s", 1.0, {
            "costmodel.step_price_hits": 10,
            "costmodel.step_price_misses": 90,
        })}
        findings, _ = compare_counters(base, cur)
        assert any(f[1] == "costmodel.step_price_hits" for f in findings)

    def test_phase_replay_rate_collapse_fails(self):
        base = {"s": rec("s", 1.0, {
            "orbit.phase_replays": 80, "orbit.steps": 100,
        })}
        cur = {"s": rec("s", 1.0, {
            "orbit.phase_replays": 5, "orbit.steps": 100,
        })}
        findings, _ = compare_counters(base, cur)
        assert any(f[1] == "orbit.phase_replays" for f in findings)

    def test_stable_rates_pass(self):
        counters = {
            "serve.crashes": 0,
            "orbit.phase_replays": 80, "orbit.steps": 100,
            "costmodel.step_price_hits": 90,
            "costmodel.step_price_misses": 10,
        }
        base = {"s": rec("s", 1.0, counters)}
        cur = {"s": rec("s", 1.0, dict(counters))}
        findings, pre_schema = compare_counters(base, cur)
        assert findings == []
        assert pre_schema == []

    def test_pre_schema_baseline_reported_not_failed(self, tmp_path,
                                                     capsys):
        # Baseline written before the metrics schema: no counters at
        # all. The gate reports it and stays green.
        base = write_log(tmp_path / "base.json", [rec("sweep", 1.0)])
        cur = write_log(
            tmp_path / "cur.json",
            [rec("sweep", 1.0, {"serve.crashes": 9})],
        )
        assert main(["--baseline", str(base), "--log", str(cur)]) == 0
        out = capsys.readouterr().out
        assert "predates the metrics schema" in out

    def test_counter_regression_fails_cli(self, tmp_path, capsys):
        base = write_log(
            tmp_path / "base.json",
            [rec("sweep", 1.0, {"serve.crashes": 0})],
        )
        cur = write_log(
            tmp_path / "cur.json",
            [rec("sweep", 1.0, {"serve.crashes": 2})],
        )
        assert main(["--baseline", str(base), "--log", str(cur)]) == 1
        out = capsys.readouterr().out
        assert "EFFICIENCY REGRESSED" in out
