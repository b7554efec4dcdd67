"""The serving daemon end to end: hits, misses, dedup, warm starts.

One daemon per test (tiny workloads keep each tune well under a
second); every test runs over a unix socket in a temp dir. Counter
assertions are on *deltas* — the ``serve.*`` counters live in the
process-global metrics registry.
"""

import asyncio
import contextlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.api import ScheduleRequest, canonical_json, tune_request
from repro.machine.cluster import Cluster
from repro.obs.metrics import METRICS
from repro.serve.client import ScheduleClient
from repro.serve.daemon import ScheduleServer, start_background
from repro.tuner.oracle import TuningLedger
from repro.tuner.workloads import sized


def _request(size=64, nodes=1, **options):
    return ScheduleRequest.from_assignment(
        sized("matmul", size), Cluster.cpu_cluster(nodes), **options
    )


@contextlib.contextmanager
def serving(tmp_path, tune_jobs=1, **kwargs):
    server = ScheduleServer(
        tmp_path / "ledger",
        socket_path=str(tmp_path / "serve.sock"),
        tune_jobs=tune_jobs,
        **kwargs,
    )
    handle = start_background(server)
    try:
        with ScheduleClient(
            socket_path=server.socket_path, timeout=120.0
        ) as client:
            yield server, client
    finally:
        handle.stop()


def _counter(name):
    return METRICS.snapshot(sources=False).get(name, 0)


class TestHitMiss:
    def test_miss_tunes_then_hits_are_byte_identical(self, tmp_path):
        request = _request()
        offline = tune_request(request)
        hits0, misses0 = _counter("serve.hits"), _counter("serve.misses")
        with serving(tmp_path) as (server, client):
            first = client.schedule(request)
            assert first["status"] == "ok"
            assert first["provenance"] == "tuned"
            second = client.schedule(request)
            assert second["provenance"] == "hit"
        assert _counter("serve.misses") == misses0 + 1
        assert _counter("serve.hits") == hits0 + 1
        # The served hit is byte-identical to the offline in-process
        # tune of the same request, and to the tuned miss before it.
        for response in (first, second):
            assert canonical_json(
                _canonical(response["answer"])
            ) == canonical_json(
                _canonical(offline.answer.to_record())
            )

    def test_restart_serves_persisted_answers_as_hits(self, tmp_path):
        request = _request()
        with serving(tmp_path) as (server, client):
            assert client.schedule(request)["provenance"] == "tuned"
        # A fresh daemon over the same root rebuilds its index from
        # the shards: no tuning, the answer is already a hit.
        with serving(tmp_path) as (server, client):
            assert len(server.index) == 1
            assert client.schedule(request)["provenance"] == "hit"

    def test_wait_false_returns_pending(self, tmp_path):
        with serving(tmp_path) as (server, client):
            request = _request()
            pending = client.schedule(request, wait=False)
            assert pending["status"] == "pending"
            assert pending["fingerprint"] == request.fingerprint()
            done = client.schedule(request)  # joins the same tune
            assert done["status"] == "ok"

    def test_bad_request_is_an_error_response(self, tmp_path):
        errors0 = _counter("serve.errors")
        with serving(tmp_path) as (server, client):
            response = client._roundtrip({
                "op": "schedule",
                "request": {"einsum": "not an einsum ]["},
            })
            assert response["status"] == "error"
        assert _counter("serve.errors") == errors0 + 1


class TestDedupAndWarm:
    def test_identical_inflight_misses_share_one_tune(self, tmp_path):
        deduped0 = _counter("serve.deduped")
        tunes0 = _counter("serve.tunes")
        with serving(tmp_path) as (server, client):
            request = _request(size=128)
            client.schedule(request, wait=False)
            client.schedule(request, wait=False)
            final = client.schedule(request)
            assert final["status"] == "ok"
        assert _counter("serve.deduped") >= deduped0 + 1
        assert _counter("serve.tunes") == tunes0 + 1

    def test_miss_near_tuned_neighbor_warm_starts(self, tmp_path):
        warm0 = _counter("serve.warm_started")
        cold = tune_request(_request(size=128))
        with serving(tmp_path) as (server, client):
            assert client.schedule(_request())["provenance"] == "tuned"
            warmed = client.schedule(_request(size=128))
            assert warmed["provenance"] == "warm-started"
            answer = warmed["answer"]
            assert answer["evaluations"] < cold.search.evaluations
            assert answer["cost"] != "infeasible"
        assert _counter("serve.warm_started") == warm0 + 1
        # Persisted with its true provenance, not rewritten to "hit".
        ledger = TuningLedger(tmp_path / "ledger")
        record = ledger.get_answer(_request(size=128).fingerprint())
        assert record["answer"]["provenance"] == "warm-started"

    def test_malformed_neighbor_counts_and_tunes_cold(self, tmp_path):
        """A neighbor record the lookup cannot measure (here a shape
        extent that is not a number) leaves the miss cold and counts
        one ``serve.warm_lookup_failures``."""
        server = ScheduleServer(
            tmp_path / "ledger", socket_path=str(tmp_path / "serve.sock")
        )
        neighbor = _request(size=128).to_record()
        neighbor["shapes"] = {
            name: ["many"] * len(shape)
            for name, shape in neighbor["shapes"].items()
        }
        server._index_answer(
            "neighbor", {"request": neighbor, "answer": {"decision": "d"}}
        )
        request = _request()
        failures0 = _counter("serve.warm_lookup_failures")
        kwargs = server._dispatch_kwargs(
            request.fingerprint(), request.to_record(), None
        )
        assert kwargs["warm"] is None
        assert _counter("serve.warm_lookup_failures") == failures0 + 1
        server._executor.shutdown()

    def test_no_warm_flag_disables_transfer(self, tmp_path):
        warm0 = _counter("serve.warm_started")
        with serving(tmp_path, warm_start=False) as (server, client):
            client.schedule(_request())
            warmed = client.schedule(_request(size=128))
            assert warmed["provenance"] == "tuned"
        assert _counter("serve.warm_started") == warm0


class TestCountedFailures:
    """Failures the daemon survives are counted, never swallowed."""

    def test_unparseable_request_record_is_indexed_for_hits_only(
        self, tmp_path
    ):
        server = ScheduleServer(
            tmp_path / "ledger", socket_path=str(tmp_path / "serve.sock")
        )
        good = _request().to_record()
        bad_seed = dict(good, seed="not-a-number")
        bad_machine = dict(good, machine=["not", "a", "dict"])
        records = {
            "missing": {"einsum": good["einsum"]},  # KeyError
            "null": None,  # TypeError
            "seed": bad_seed,  # ValueError
            "machine": bad_machine,  # TypeError
        }
        skips0 = _counter("serve.index_skips")
        for fingerprint, request in records.items():
            server._index_answer(
                fingerprint, {"request": request, "answer": {}}
            )
        server._index_answer("good", {"request": good, "answer": {}})
        assert _counter("serve.index_skips") == skips0 + len(records)
        assert set(records) | {"good"} <= set(server.index)
        indexed = [fp for bucket in server.neighborhoods.values()
                   for fp in bucket]
        assert indexed == ["good"]
        server._executor.shutdown()

    @pytest.mark.parametrize("failure", ["returns-false", "raises"])
    def test_unsaved_quarantine_counts_a_persist_failure(
        self, tmp_path, monkeypatch, failure
    ):
        server = ScheduleServer(
            tmp_path / "ledger", socket_path=str(tmp_path / "serve.sock")
        )

        def save(*args, **kwargs):
            if failure == "raises":
                raise OSError("disk full")
            return False

        request = _request()
        fingerprint = request.fingerprint()
        failures0 = _counter("serve.persist_failures")
        monkeypatch.setattr(server.ledger, "save", save)
        response = server._quarantine(
            fingerprint, request.to_record(), "worker died"
        )
        assert response["provenance"] == "quarantined"
        assert fingerprint in server.index
        assert _counter("serve.persist_failures") == failures0 + 1
        server._executor.shutdown()

    @pytest.mark.parametrize("error", [None, ConnectionResetError])
    def test_connection_close_failure_is_counted(self, tmp_path, error):
        server = ScheduleServer(
            tmp_path / "ledger", socket_path=str(tmp_path / "serve.sock")
        )

        class Reader:
            async def readuntil(self, separator):
                return b""  # EOF: the handler goes straight to close

        class Writer:
            closed = False

            def close(self):
                self.closed = True

            async def wait_closed(self):
                if error is not None:
                    raise error("peer reset the connection")

        writer = Writer()
        failures0 = _counter("serve.close_failures")
        asyncio.run(server._handle_connection(Reader(), writer))
        assert writer.closed
        assert _counter("serve.close_failures") == failures0 + (
            error is not None
        )
        server._executor.shutdown()

    def test_saved_quarantine_counts_nothing(self, tmp_path):
        server = ScheduleServer(
            tmp_path / "ledger", socket_path=str(tmp_path / "serve.sock")
        )
        request = _request()
        failures0 = _counter("serve.persist_failures")
        server._quarantine(
            request.fingerprint(), request.to_record(), "worker died"
        )
        assert _counter("serve.persist_failures") == failures0
        reopened = TuningLedger(tmp_path / "ledger")
        assert reopened.get_answer(request.fingerprint()) is not None
        server._executor.shutdown()


class TestHealthyTrace:
    def test_mixed_trace_leaves_failure_counters_at_zero(self, tmp_path):
        """A healthy hit/miss/dedup/warm trace on a two-slot daemon
        fails no request and crashes, quarantines, sheds or drains
        nothing."""
        zero = (
            "serve.errors",
            "serve.crashes",
            "serve.quarantined",
            "serve.shed",
            "serve.drained",
            "serve.warm_lookup_failures",
            "serve.index_skips",
            "serve.persist_failures",
        )
        floors = {
            "serve.hits": 20,
            "serve.misses": 3,
            "serve.deduped": 1,
            "serve.tunes": 3,
            "serve.warm_started": 1,
        }
        before = {name: _counter(name) for name in (*zero, *floors)}
        with serving(tmp_path, tune_jobs=2) as (server, client):
            assert client.ping()
            assert client.schedule(_request())["provenance"] == "tuned"
            client.schedule(_request(size=128), wait=False)
            client.schedule(_request(size=128), wait=False)
            warmed = client.schedule(_request(size=128))
            assert warmed["provenance"] == "warm-started"
            client.schedule(_request(size=96), wait=False)
            hits = client.schedule_batch([_request()] * 20)
            assert all(r["provenance"] == "hit" for r in hits)
            assert client.schedule(_request(size=96))["status"] == "ok"
        delta = {name: _counter(name) - base for name, base in before.items()}
        assert {name: delta[name] for name in zero} == dict.fromkeys(zero, 0)
        for name, floor in floors.items():
            assert delta[name] >= floor, (name, delta[name])


class TestProtocolOps:
    def test_ping_stats_shutdown(self, tmp_path):
        with serving(tmp_path) as (server, client):
            assert client.ping()
            stats = client.stats()
            assert stats["status"] == "ok"
            assert stats["shards"] == server.ledger.shards
            assert stats["answers"] == 0
            assert client.shutdown()["stopping"]

    def test_shutdown_tears_down_silently(self, tmp_path):
        """Draining the daemon cancels its idle connections; that must
        not log a traceback on stderr."""
        sock = tmp_path / "serve.sock"
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", str(sock),
             "--ledger", str(tmp_path / "ledger")],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not sock.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            with ScheduleClient(socket_path=str(sock), timeout=30) as c:
                assert c.ping()
                assert c.shutdown()["stopping"]
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr

    def test_hits_do_not_block_on_inflight_tune(self, tmp_path):
        request = _request()
        slow = _request(size=256, nodes=2)
        with serving(tmp_path) as (server, client):
            client.schedule(request)  # seed one answer
            client.schedule(slow, wait=False)  # cold tune in flight
            responses = client.schedule_batch([request] * 50)
            assert all(r["provenance"] == "hit" for r in responses)
            done = client.schedule(slow)
            assert done["status"] == "ok"


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _live_children():
    return {proc.pid for proc in multiprocessing.active_children()}


@fork_only
class TestWorkers:
    def test_one_worker_serves_sequential_misses(self, tmp_path):
        spawns0 = _counter("serve.worker_spawns")
        tunes0 = _counter("serve.tunes")
        with serving(tmp_path) as (server, client):
            pids = set()
            for size in (48, 64, 96):
                response = client.schedule(_request(size=size))
                assert response["status"] == "ok"
                pids.add(server.workers[0].pid)
            assert client.stats()["counters"]["serve.worker_spawns"] >= 1
        assert len(pids) == 1 and None not in pids
        assert _counter("serve.worker_spawns") == spawns0 + 1
        assert _counter("serve.tunes") == tunes0 + 3

    def test_stop_reaps_idle_workers(self, tmp_path):
        server = ScheduleServer(
            tmp_path / "ledger",
            socket_path=str(tmp_path / "serve.sock"),
            tune_jobs=2,
        )
        handle = start_background(server)
        try:
            with ScheduleClient(
                socket_path=server.socket_path, timeout=120.0
            ) as client:
                for size in (48, 64):
                    assert client.schedule(_request(size))["status"] == "ok"
            pids = {slot.pid for slot in server.workers} - {None}
            assert pids and pids <= _live_children()
        finally:
            handle.stop()
        assert not pids & _live_children()
        assert all(slot.pid is None for slot in server.workers)

    def test_stop_while_tuning_returns_and_reaps_worker(self, tmp_path):
        server = ScheduleServer(
            tmp_path / "ledger",
            socket_path=str(tmp_path / "serve.sock"),
            tune_jobs=1,
        )
        handle = start_background(server)
        slot = server.workers[0]
        try:
            with ScheduleClient(
                socket_path=server.socket_path, timeout=120.0
            ) as client:
                slow = _request(size=512, nodes=4)
                assert client.schedule(slow, wait=False)["status"] == (
                    "pending"
                )
            deadline = time.monotonic() + 60
            while slot.pid is None and time.monotonic() < deadline:
                time.sleep(0.005)
            pid = slot.pid
            assert pid is not None
        finally:
            handle.stop()
        assert not handle.thread.is_alive()
        deadline = time.monotonic() + 60
        while pid in _live_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pid not in _live_children()
        # The dispatcher closed the slot when its point returned: it
        # never forks again.
        with pytest.raises(RuntimeError, match="closed"):
            slot.run(("serve_tune", {"record": slow.to_record()}))
        # Let the dispatcher thread finish installing its envelope, so
        # its counters land before the next test reads deltas.
        server._executor.shutdown(wait=True)


class TestLedgerPath:
    def test_json_ledger_is_refused_in_one_line(self, tmp_path, capsys):
        """The daemon's quarantine store lives beside the shards, so a
        one-shard ``.json`` ledger is an error, not a directory named
        ``X.json``."""
        from repro.serve.__main__ import main

        existing = tmp_path / "old"
        existing.write_text('{"version": 1, "entries": {}}')
        for path in (tmp_path / "X.json", existing):
            assert main(["--ledger", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "directory" in err, err
        assert not (tmp_path / "X.json").exists()
        assert existing.is_file()


def _canonical(answer_record):
    from repro.api import ScheduleAnswer

    return ScheduleAnswer.from_record(answer_record).canonical_record()


def test_concurrent_clients(tmp_path):
    """Many clients over one socket: every response routes home."""
    request = _request()
    with serving(tmp_path) as (server, client):
        client.schedule(request)  # prime the index
        results = []

        def hammer():
            with ScheduleClient(
                socket_path=server.socket_path, timeout=120.0
            ) as mine:
                results.append(
                    [mine.schedule(request)["provenance"]
                     for _ in range(10)]
                )

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert len(results) == 4
    for provenances in results:
        assert provenances == ["hit"] * 10
