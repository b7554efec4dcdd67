"""Sweep worker crash handling: retry once, then surface.

A sweep point that fails or dies in a forked worker must not lose the
other points' work and must never hang the driver: the parent retries
the point once in-process, and a second failure raises with the
*original worker* traceback attached.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.bench import parallel
from repro.bench.parallel import register_sweep, run_points

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

_PARENT_PID = os.getpid()


@pytest.fixture
def multicore(monkeypatch):
    """Pretend we have cores: single-core runners degrade run_points to
    the sequential path, which would bypass the forked workers."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def _flaky_point(value: int):
    """Fails in forked workers, succeeds in the parent (the retry)."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("worker-only crash")
    return [("row", value)]


def _broken_point(value: int):
    raise ValueError(f"always broken ({value})")


def _good_point(value: int):
    return [("row", value)]


register_sweep("_flaky_point", _flaky_point)
register_sweep("_broken_point", _broken_point)
register_sweep("_good_point", _good_point)


class TestRetry:
    @fork_only
    def test_worker_crash_recovers_via_in_process_retry(self, multicore):
        global _PARENT_PID
        _PARENT_PID = os.getpid()
        rows = run_points(
            "_flaky_point", [{"value": v} for v in range(4)], jobs=2
        )
        assert rows == [("row", v) for v in range(4)]

    @fork_only
    def test_second_failure_surfaces_worker_traceback(self, multicore):
        with pytest.raises(RuntimeError) as exc:
            run_points(
                "_broken_point", [{"value": v} for v in range(3)], jobs=2
            )
        message = str(exc.value)
        assert "failed in a pool worker" in message
        assert "original worker traceback" in message
        assert "always broken" in message
        # The chained cause is the retry's own exception.
        assert isinstance(exc.value.__cause__, ValueError)

    @fork_only
    def test_healthy_points_unaffected(self, multicore):
        rows = run_points(
            "_good_point", [{"value": v} for v in range(5)], jobs=3
        )
        assert rows == [("row", v) for v in range(5)]

    @fork_only
    def test_killed_worker_is_retried_not_hung(self):
        """A SIGKILLed worker is a detected crash: its point retries
        in-process and the sweep returns every row in order. Runs in a
        subprocess under a timeout, so a regression fails the test
        instead of hanging the suite."""
        script = textwrap.dedent("""
            import os, signal
            os.cpu_count = lambda: 4
            from repro.bench.parallel import register_sweep, run_points
            from repro.obs.metrics import METRICS

            PARENT = os.getpid()

            def _suicidal_point(value):
                if value == 1 and os.getpid() != PARENT:
                    os.kill(os.getpid(), signal.SIGKILL)
                return [("row", value)]

            register_sweep("_suicidal_point", _suicidal_point)
            rows = run_points(
                "_suicidal_point", [{"value": v} for v in range(3)],
                jobs=2,
            )
            assert rows == [("row", v) for v in range(3)], rows
            retries = METRICS.snapshot(sources=False)["bench.pool_retries"]
            assert retries == 1, retries
            print("recovered")
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "recovered"

    def test_sequential_path_propagates_directly(self):
        """With jobs<=1 there is no worker to crash: exceptions surface
        unchanged (no retry wrapper)."""
        with pytest.raises(ValueError, match="always broken"):
            run_points("_broken_point", [{"value": 0}], jobs=1)


class TestRunPointEnvelope:
    def test_run_point_never_raises(self):
        status, payload = parallel._run_point(("_broken_point", {"value": 1}))
        assert status == "err"
        assert "always broken" in payload

    def test_run_point_ok_envelope(self):
        status, payload = parallel._run_point(("_good_point", {"value": 7}))
        assert status == "ok"
        rows, _sim, metrics_delta, spans = payload
        assert rows == [("row", 7)]
        # The observability deltas ride the same envelope.
        assert set(metrics_delta) <= {"counters", "gauges"}
        assert isinstance(spans, list)

    def test_fork_probe_swallows_nothing(self, monkeypatch):
        import multiprocessing

        assert parallel._fork_available() == (
            "fork" in multiprocessing.get_all_start_methods()
        )
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert parallel._fork_available() is False

        def broken():
            raise RuntimeError("no start methods")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", broken)
        with pytest.raises(RuntimeError):
            parallel._fork_available()

    def test_run_point_strict_raises(self):
        with pytest.raises(ValueError):
            parallel._run_point_strict(("_broken_point", {"value": 1}))
