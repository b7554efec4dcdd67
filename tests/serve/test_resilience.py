"""The serving resilience layer: shedding, deadlines, drain, recovery.

Everything ``docs/serving.md``'s resilience section promises, pinned:
admission control sheds with a structured ``"overloaded"`` response, a
per-request deadline answers a typed error while the tune finishes in
the background, draining refuses new misses but keeps serving hits,
oversized and torn frames never desync a connection, client timeouts
poison the socket with a typed error, crashes retry and poison
requests quarantine durably, and the client reconnects idempotently
across drops and daemon restarts.
"""

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro.api import ScheduleRequest, canonical_json, tune_request
from repro.faults.chaos import (
    ChaosController,
    ChaosPlan,
    DropConnection,
    KillWorker,
    PoisonRequest,
    TornLine,
)
from repro.machine.cluster import Cluster
from repro.obs.metrics import METRICS
from repro.serve.client import (
    ConnectionLost,
    RequestTimeout,
    ScheduleClient,
)
from repro.serve.daemon import ScheduleServer, start_background
from repro.serve.supervise import QUARANTINE_FILE
from repro.tuner.workloads import sized


def _request(size=64, nodes=1, **options):
    return ScheduleRequest.from_assignment(
        sized("matmul", size), Cluster.cpu_cluster(nodes), **options
    )


def _counter(name):
    return METRICS.snapshot(sources=False).get(name, 0)


def _canonical(answer_record):
    from repro.api import ScheduleAnswer

    return ScheduleAnswer.from_record(answer_record).canonical_record()


@contextlib.contextmanager
def serving(tmp_path, client_kwargs=None, **kwargs):
    kwargs.setdefault("tune_jobs", 1)
    server = ScheduleServer(
        tmp_path / "ledger",
        socket_path=str(tmp_path / "serve.sock"),
        **kwargs,
    )
    handle = start_background(server)
    try:
        client_kwargs = dict(client_kwargs or {})
        client_kwargs.setdefault("timeout", 120.0)
        with ScheduleClient(
            socket_path=server.socket_path, **client_kwargs
        ) as client:
            yield server, client
    finally:
        handle.stop()


def _poll_until_ok(client, fingerprint, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response = client.poll(fingerprint)
        if response["status"] == "ok":
            return response
        assert response["status"] == "pending", response
        time.sleep(0.05)
    raise AssertionError(f"{fingerprint} never resolved")


class TestAdmissionControl:
    def test_full_miss_queue_sheds_with_retry_hint(self, tmp_path):
        shed0 = _counter("serve.shed")
        with serving(
            tmp_path,
            max_pending=1,
            client_kwargs={"retries": 0},
        ) as (server, client):
            first = client.schedule(_request(48), wait=False)
            assert first["status"] == "pending"
            second = client.schedule(_request(96), wait=False)
            assert second["status"] == "overloaded"
            assert second["retry_after_s"] > 0
            assert "full" in second["error"]
            # Hits and polls still answer while the queue is full.
            assert client.poll(first["fingerprint"])["status"] in (
                "pending", "ok",
            )
            _poll_until_ok(client, first["fingerprint"])
        assert _counter("serve.shed") == shed0 + 1

    def test_client_retries_overloaded_until_admitted(self, tmp_path):
        with serving(tmp_path, max_pending=1) as (server, client):
            pending = client.schedule(_request(48), wait=False)
            # The resilient path keeps retrying after the hint; the
            # first tune finishes well within the retry budget.
            answered = client.schedule(_request(96), deadline_s=90.0)
            assert answered["status"] == "ok"
            _poll_until_ok(client, pending["fingerprint"])


class TestDeadlines:
    def test_expired_deadline_is_typed_and_answer_stays_pollable(
        self, tmp_path
    ):
        request = _request(96)
        with serving(tmp_path) as (server, client):
            response = client.schedule(request, deadline_s=0.001)
            assert response["status"] == "error"
            assert response["code"] == "deadline"
            assert response["fingerprint"] == request.fingerprint()
            # The tune was not cancelled — the answer (tuned under the
            # deadline-capped oracle timeout, so possibly a truncated
            # search) still arrives and is served.
            done = _poll_until_ok(client, request.fingerprint())
            assert done["provenance"] in ("tuned", "warm-started", "hit")

    def test_bad_deadline_is_a_structured_error(self, tmp_path):
        with serving(tmp_path) as (server, client):
            response = client._roundtrip({
                "op": "schedule",
                "request": _request().to_record(),
                "deadline_s": "soon",
            })
            assert response["status"] == "error"
            assert "deadline_s" in response["error"]


class TestDrain:
    def test_draining_refuses_misses_but_serves_hits(self, tmp_path):
        hot = _request(48)
        with serving(tmp_path) as (server, client):
            assert client.schedule(hot)["status"] == "ok"
            server.draining = True  # drain flag only; daemon stays up
            refused = client._roundtrip({
                "op": "schedule",
                "request": _request(96).to_record(),
            })
            assert refused["status"] == "error"
            assert refused["code"] == "draining"
            assert client.schedule(hot)["provenance"] == "hit"
            server.draining = False  # let the fixture shut down clean

    def test_shutdown_op_drains_and_stops(self, tmp_path):
        with serving(tmp_path) as (server, client):
            assert client.schedule(_request(48))["status"] == "ok"
            response = client.shutdown()
            assert response["stopping"] and response["draining"]

    def test_drain_deadline_answers_a_pending_waiter(self, tmp_path):
        """A waiter whose tune outlives the drain deadline gets the
        structured ``draining`` error, not a cancelled future."""
        request = _request(48)
        drained0 = _counter("serve.drained")
        deduped0 = _counter("serve.deduped")

        async def stalled(fingerprint, record, deadline_s):
            await asyncio.sleep(60)  # outlives the drain deadline

        replies = []
        with serving(tmp_path, drain_timeout_s=0.2) as (server, client):
            server._tune_one = stalled
            first = client.schedule(request, wait=False)
            assert first["status"] == "pending"

            def wait():
                with ScheduleClient(
                    socket_path=server.socket_path, timeout=60.0
                ) as waiter:
                    replies.append(waiter._roundtrip({
                        "op": "schedule",
                        "request": request.to_record(),
                    }))

            thread = threading.Thread(target=wait)
            thread.start()
            deadline = time.monotonic() + 30.0
            while _counter("serve.deduped") == deduped0:
                assert time.monotonic() < deadline, "waiter never joined"
                time.sleep(0.01)
            assert client.shutdown()["draining"]
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        [reply] = replies
        assert reply["status"] == "error"
        assert reply["code"] == "draining"
        assert reply["fingerprint"] == request.fingerprint()
        assert _counter("serve.drained") == drained0 + 1


class TestFrameDiscipline:
    def test_oversized_line_answers_error_and_keeps_stream(
        self, tmp_path
    ):
        errors0 = _counter("serve.errors")
        with serving(tmp_path, line_limit=4096) as (server, client):
            client._file.write(b"\x7b" * 8192 + b"\n")
            client._file.flush()
            response = client._recv()
            assert response["status"] == "error"
            assert response["code"] == "oversized"
            # Same connection, next frame: fully functional.
            assert client.ping()
        assert _counter("serve.errors") == errors0 + 1

    def test_undecodable_lines_answer_error_and_keep_stream(
        self, tmp_path
    ):
        # Bad UTF-8, a JSON array, and nesting too deep for the parser
        # (a RecursionError inside json.loads).
        with serving(tmp_path) as (server, client):
            for line in (b"\xff\xfe", b"[1, 2]", b"[" * 100000):
                client._file.write(line + b"\n")
                client._file.flush()
                response = client._recv()
                assert response["status"] == "error"
                assert response["error"].startswith("undecodable message")
            assert client.ping()

    def test_torn_final_line_just_closes_the_connection(self, tmp_path):
        with serving(tmp_path) as (server, client):
            client._file.write(b'{"op": "pi')
            client._file.flush()
            client.close()
            # The daemon survives the torn line; a fresh connection
            # works immediately.
            with ScheduleClient(
                socket_path=server.socket_path, timeout=30.0
            ) as fresh:
                assert fresh.ping()


class TestClientTimeout:
    def test_timeout_poisons_the_connection_with_typed_error(
        self, tmp_path, monkeypatch
    ):
        # The tune must outlast the client's timeout. With warm caches a
        # real one can finish first, so the forked worker sleeps first.
        import repro.serve.worker as worker

        real_tune = worker.tune_request

        def slow_tune(*args, **kwargs):
            time.sleep(0.5)
            return real_tune(*args, **kwargs)

        monkeypatch.setattr(worker, "tune_request", slow_tune)
        request = _request(96)
        with serving(
            tmp_path, client_kwargs={"timeout": 0.05}
        ) as (server, client):
            with pytest.raises(RequestTimeout):
                client.schedule(request)
            assert client._file is None  # poisoned, never reused
            # The next call reconnects; the tune kept running and the
            # answer is (eventually) served from the index.
            client._timeout = 120.0
            _poll_until_ok(client, request.fingerprint())


class TestPollAcrossRestarts:
    def test_wait_false_poll_and_poll_after_daemon_restart(
        self, tmp_path
    ):
        request = _request(64)
        offline = tune_request(request).answer.to_record()
        with serving(tmp_path) as (server, client):
            pending = client.schedule(request, wait=False)
            assert pending["status"] == "pending"
            assert pending["fingerprint"] == request.fingerprint()
            # A repeated wait=False schedule joins, never re-tunes.
            again = client.schedule(request, wait=False)
            assert again["status"] in ("pending", "ok")
            first = _poll_until_ok(client, request.fingerprint())
        # Restart over the same root: the fingerprint outlives the
        # daemon, and the poll answers byte-identically from the
        # rebuilt index.
        with serving(tmp_path) as (server, client):
            polled = client.poll(request.fingerprint())
            assert polled["status"] == "ok"
            assert polled["provenance"] == "hit"
            for response in (first, polled):
                assert canonical_json(
                    _canonical(response["answer"])
                ) == canonical_json(_canonical(offline))

    def test_poll_of_unknown_fingerprint_is_typed(self, tmp_path):
        with serving(tmp_path) as (server, client):
            response = client.poll("no-such-fingerprint")
            assert response["status"] == "error"
            assert response["code"] == "unknown-fingerprint"


class TestQuarantine:
    def test_poison_request_quarantines_durably(self, tmp_path):
        request = _request(48)
        fingerprint = request.fingerprint()
        controller = ChaosController(
            ChaosPlan(events=(PoisonRequest(fingerprint=fingerprint),))
        )
        crashes0 = _counter("serve.crashes")
        quarantined0 = _counter("serve.quarantined")
        with serving(
            tmp_path,
            chaos=controller,
            worker_retries=1,
            quarantine_after=2,
            retry_backoff_s=0.01,
        ) as (server, client):
            response = client.schedule(request, deadline_s=60.0)
            assert response["status"] == "ok"
            assert response["provenance"] == "quarantined"
            answer = response["answer"]
            assert answer["cost"] == "infeasible"
            assert "died" in answer["quarantine_reason"]
        assert _counter("serve.crashes") >= crashes0 + 2
        assert _counter("serve.quarantined") == quarantined0 + 1
        assert (tmp_path / "ledger" / QUARANTINE_FILE).exists()
        # A restarted daemon serves the quarantined answer as an
        # indexed hit — the crasher is never dispatched again (no
        # chaos controller here: a dispatch would tune cleanly and
        # betray the test).
        with serving(tmp_path) as (server, client):
            served = client.schedule(request)
            assert served["provenance"] == "quarantined"
        assert _counter("serve.crashes") == crashes0 + 2

    def test_recorded_crashes_without_answer_quarantine_on_arrival(
        self, tmp_path
    ):
        """A fingerprint at the crash cap in ``QUARANTINE.json`` whose
        quarantined answer never persisted (the daemon died in
        between) is answered from the recorded reason, untuned."""
        request = _request(48)
        fingerprint = request.fingerprint()
        root = tmp_path / "ledger"
        root.mkdir()
        reason = "tune worker died (signal 9)"
        (root / QUARANTINE_FILE).write_text(json.dumps(
            {fingerprint: {"crashes": 3, "error": reason}}
        ))
        tunes0 = _counter("serve.tunes")
        spawns0 = _counter("serve.worker_spawns")
        with serving(tmp_path, quarantine_after=3) as (server, client):
            response = client.schedule(request)
        assert response["status"] == "ok"
        assert response["provenance"] == "quarantined"
        assert response["answer"]["quarantine_reason"] == reason
        assert _counter("serve.tunes") == tunes0
        assert _counter("serve.worker_spawns") == spawns0

    @pytest.mark.parametrize("reused", [False, True], ids=["fresh", "reused"])
    def test_transient_crash_retries_to_success(self, tmp_path, reused):
        # One positional kill: the dispatch dies, the retry tunes
        # cleanly on a fresh child — no quarantine, correct answer.
        # ``reused`` kills dispatch 1, after a clean miss, so the dead
        # child is one that already served a miss.
        request = _request(64)
        controller = ChaosController(
            ChaosPlan(events=(KillWorker(dispatch=int(reused)),))
        )
        before = {
            name: _counter(name)
            for name in (
                "serve.quarantined", "serve.crashes", "serve.retried",
                "serve.worker_spawns",
            )
        }
        with serving(
            tmp_path,
            chaos=controller,
            worker_retries=2,
            retry_backoff_s=0.01,
        ) as (server, client):
            if reused:
                clean = client.schedule(_request(48), deadline_s=60.0)
                assert clean["status"] == "ok"
            response = client.schedule(request, deadline_s=60.0)
            assert response["status"] == "ok"
            assert response["provenance"] in ("tuned", "warm-started")
            assert canonical_json(
                _canonical(response["answer"])
            ) == canonical_json(
                _canonical(tune_request(request).answer.to_record())
            )
        assert controller.kills_fired == 1
        assert _counter("serve.quarantined") == before["serve.quarantined"]
        assert _counter("serve.crashes") == before["serve.crashes"] + 1
        assert _counter("serve.retried") == before["serve.retried"] + 1
        assert _counter("serve.worker_spawns") == (
            before["serve.worker_spawns"] + 2
        )


class TestReconnect:
    def test_dropped_connection_retries_idempotently(self, tmp_path):
        request = _request(64)
        controller = ChaosController(
            ChaosPlan(events=(DropConnection(reply=0),))
        )
        with serving(
            tmp_path,
            client_kwargs={"chaos": controller, "backoff_s": 0.01},
        ) as (server, client):
            response = client.schedule(request, deadline_s=60.0)
            assert response["status"] == "ok"
            assert client.reconnects >= 1
            assert canonical_json(
                _canonical(response["answer"])
            ) == canonical_json(
                _canonical(tune_request(request).answer.to_record())
            )

    def test_torn_frame_resends_on_a_fresh_connection(self, tmp_path):
        controller = ChaosController(
            ChaosPlan(events=(TornLine(send=0),))
        )
        with serving(
            tmp_path,
            client_kwargs={"chaos": controller, "backoff_s": 0.01},
        ) as (server, client):
            response = client.schedule(_request(48), deadline_s=60.0)
            assert response["status"] == "ok"
            assert client.reconnects >= 1

    def test_exhausted_retries_raise_connection_lost(self, tmp_path):
        server = ScheduleServer(
            tmp_path / "ledger",
            socket_path=str(tmp_path / "serve.sock"),
            tune_jobs=1,
        )
        handle = start_background(server)
        client = ScheduleClient(
            socket_path=server.socket_path,
            timeout=5.0,
            retries=2,
            backoff_s=0.01,
        )
        try:
            assert client.ping()
            handle.stop()  # daemon gone for good; no replacement
            with pytest.raises(ConnectionLost):
                client.schedule(_request(48))
        finally:
            client.close()

    def test_client_survives_daemon_restart_between_requests(
        self, tmp_path
    ):
        request = _request(48)
        server = ScheduleServer(
            tmp_path / "ledger",
            socket_path=str(tmp_path / "serve.sock"),
            tune_jobs=1,
        )
        handle = start_background(server)
        client = ScheduleClient(
            socket_path=server.socket_path,
            timeout=30.0,
            backoff_s=0.01,
        )
        try:
            assert client.schedule(request)["status"] == "ok"
            handle.stop()
            server = ScheduleServer(
                tmp_path / "ledger",
                socket_path=str(tmp_path / "serve.sock"),
                tune_jobs=1,
            )
            handle = start_background(server)
            # The old socket is dead; the client notices (EOF, not a
            # hang) and reconnects to the replacement, which serves
            # the persisted answer as a hit.
            response = client.schedule(request)
            assert response["status"] == "ok"
            assert response["provenance"] == "hit"
            assert client.reconnects >= 1
        finally:
            client.close()
            handle.stop()
