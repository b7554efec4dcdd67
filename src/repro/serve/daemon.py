"""The schedule-serving daemon: microsecond hits, supervised misses.

:class:`ScheduleServer` is a single-threaded asyncio server (unix
socket preferred, localhost TCP as fallback) speaking the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`. The
two paths are deliberately asymmetric:

* **Hits** never leave the event loop: the answer index is a plain
  dict from request fingerprint to the persisted canonical answer, so
  an exact hit is one hash lookup plus one ``writer.write`` —
  microseconds, and unaffected by whatever tuning is in flight.
* **Misses** are admission-controlled (a bounded in-flight set; beyond
  it the daemon *sheds* with ``status: "overloaded"`` and a
  retry-after hint rather than queueing unboundedly), *deduplicated in
  flight* (concurrent identical requests share one future and
  therefore one tune), and dispatched through the supervised worker
  slots (:mod:`repro.serve.supervise`): one persistent supervised
  child per dispatcher slot, replaced after a crash — the GIL-heavy
  search runs in child processes, never in the loop's, and a
  SIGKILL'd child is a detected crash that retries with backoff
  instead of a hang.

**Resilience semantics** (see ``docs/serving.md``):

* A per-request ``deadline_s`` caps both the oracle's tune timeout and
  the client's wait — on expiry the waiter gets a structured
  ``code: "deadline"`` error while the tune finishes in the
  background, pollable later.
* SIGTERM or the ``shutdown`` op triggers a **graceful drain**: no new
  misses are admitted (structured ``code: "draining"`` errors), hits
  keep serving, in-flight tunes finish and answer their waiters, and
  only then does the daemon exit. Waiters still unanswered at the
  drain deadline get the same structured error — never a cancelled
  future and a torn socket.
* A request whose worker crashes ``quarantine_after`` consecutive
  times is **quarantined**: a durable infeasible-with-reason answer is
  persisted under its fingerprint (provenance ``"quarantined"``), so
  restarts serve it as a hit instead of re-tuning a crasher forever.

**Transfer warm-starting:** before dispatch, each miss looks for its
nearest tuned neighbor — same einsum structure, dtype, objective and
node anatomy (:meth:`repro.api.ScheduleRequest.structure_key`),
nearest along the (nodes, problem volume) axes in log space. The
neighbor's decision is projected onto the miss's processor count
(:func:`repro.tuner.space.warm_variants` via ``strategy="warm"``), so
a warm miss simulates only that small neighborhood instead of the
full space.

Completed answers are persisted to the ledger root's shards *by the
worker child*, group-committed with the tune's records as one locked,
fsync'd journal append per shard, then installed into the in-memory
index here; a daemon restart rebuilds the index from the
shards and serves every previously tuned answer as a hit.
"""

from __future__ import annotations

import asyncio
import math
import os
import queue
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import HIT, QUARANTINED, ScheduleRequest
from repro.bench.parallel import WorkerSlot
from repro.obs.metrics import METRICS, SERVE_COUNTERS
from repro.serve import protocol
from repro.serve.supervise import (
    QuarantineStore,
    quarantined_answer,
    run_supervised,
)
from repro.tuner.oracle import TuningLedger

# Import for the side effects: registers the serve_tune sweep in this
# process and loads the tune closure it declares, so forked workers
# inherit both resolved.
from repro.serve import worker as _worker  # noqa: F401

#: Sentinel frame for a line that exceeded the stream limit (the frame
#: was discarded but the stream is realigned on the next newline).
_OVERSIZED = object()


def _volume(record: Dict) -> float:
    """Total element count across a request record's tensors — the
    shape axis neighbor distance is measured along."""
    total = 1.0
    for shape in record.get("shapes", {}).values():
        for extent in shape:
            total *= max(1, extent)
    return total


def _draining_row(fingerprint: str) -> Dict:
    return {
        "status": "error",
        "code": "draining",
        "fingerprint": fingerprint,
        "error": "daemon is draining; this tune did not complete "
                 "before shutdown — retry against its replacement",
    }


class ScheduleServer:
    """One serving daemon over one ledger root (a directory: the
    quarantine store lives beside the shards)."""

    def __init__(
        self,
        ledger_root,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        tune_jobs: int = 2,
        warm_start: bool = True,
        timeout_s: Optional[float] = None,
        max_pending: int = 64,
        quarantine_after: int = 3,
        worker_retries: int = 2,
        retry_backoff_s: float = 0.05,
        drain_timeout_s: float = 30.0,
        line_limit: int = 1 << 20,
        chaos=None,
    ):
        self.ledger = TuningLedger(ledger_root)
        if self.ledger.manifest is None:
            raise ValueError(
                f"the daemon's ledger must be a directory, not the "
                f"one-shard file {self.ledger.path}"
            )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.tune_jobs = max(1, tune_jobs)
        self.warm_start = warm_start
        self.timeout_s = timeout_s
        #: Admission bound: distinct misses allowed in flight before
        #: the daemon sheds with ``status: "overloaded"``.
        self.max_pending = max(1, max_pending)
        self.quarantine_after = max(1, quarantine_after)
        self.worker_retries = max(0, worker_retries)
        self.retry_backoff_s = retry_backoff_s
        self.drain_timeout_s = drain_timeout_s
        #: Per-line byte bound on the NDJSON stream — configurable for
        #: genuinely large einsum requests; beyond it the daemon
        #: answers a structured ``code: "oversized"`` error and stays
        #: aligned on the connection.
        self.line_limit = max(4096, line_limit)
        #: Optional :class:`repro.faults.chaos.ChaosController` whose
        #: worker-kill schedule the dispatcher consults per attempt.
        self.chaos = chaos
        self.quarantine = QuarantineStore(
            Path(ledger_root), threshold=self.quarantine_after
        )
        #: fingerprint -> {"request": record, "answer": record}
        self.index: Dict[str, Dict] = {}
        #: structure key -> fingerprints with a usable tuned answer.
        self.neighborhoods: Dict[str, List[str]] = {}
        #: fingerprint -> future shared by identical in-flight misses.
        self.inflight: Dict[str, asyncio.Future] = {}
        self.started = time.monotonic()
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Future] = None
        self._connections: set = set()
        self._tunes: set = set()
        #: Connections currently processing a message (response not
        #: yet written) — drain completion waits for zero.
        self._busy = 0
        # One executor thread per worker slot; the blocking pipe waits
        # live here, never on the event loop. Each dispatch borrows a
        # free slot, so a slot's child serves misses back to back
        # (forked on the first, replaced after a crash) for the
        # daemon's lifetime.
        self._executor = ThreadPoolExecutor(
            max_workers=self.tune_jobs, thread_name_prefix="serve-tune"
        )
        self.workers = [WorkerSlot() for _ in range(self.tune_jobs)]
        self._free_workers: queue.SimpleQueue = queue.SimpleQueue()
        for slot in self.workers:
            self._free_workers.put(slot)
        for fingerprint, record in self.ledger.answers.items():
            self._index_answer(fingerprint, record)

    # -- the in-memory answer index ------------------------------------

    def _index_answer(self, fingerprint: str, record: Dict):
        self.index[fingerprint] = record
        try:
            request = ScheduleRequest.from_record(record["request"])
            key = request.structure_key()
        except (AttributeError, KeyError, TypeError, ValueError):
            # A malformed request record: unindexable for warm
            # transfer, still a hit source.
            METRICS.inc("serve.index_skips")
            return
        if record.get("answer", {}).get("provenance") == QUARANTINED:
            return  # never a warm-start donor
        bucket = self.neighborhoods.setdefault(key, [])
        if fingerprint not in bucket:
            bucket.append(fingerprint)

    def _neighbor_decision(
        self, request: ScheduleRequest, fingerprint: str
    ) -> Optional[str]:
        """The encoded decision of the nearest tuned neighbor, or
        ``None`` when the structure has no usable precedent."""
        best: Optional[Tuple[float, str, str]] = None
        for other_fp in self.neighborhoods.get(request.structure_key(), ()):
            if other_fp == fingerprint:
                continue
            record = self.index.get(other_fp)
            if record is None:
                continue
            answer = record.get("answer", {})
            if answer.get("cost") == "infeasible":
                continue
            other = record.get("request", {})
            nodes = other.get("machine", {}).get("nodes", 1)
            distance = abs(
                math.log(max(1, request.machine.nodes) / max(1, nodes))
            ) + abs(math.log(
                _volume(request.to_record()) / _volume(other)
            ))
            key = (distance, other_fp, answer.get("decision", ""))
            if best is None or key < best:
                best = key
        return best[2] if best is not None and best[2] else None

    # -- request handling ----------------------------------------------

    def _hit_response(self, fingerprint: str, cached: Dict) -> Dict:
        METRICS.inc("serve.hits")
        answer = dict(cached["answer"])
        # Quarantined answers keep their provenance: the caller must
        # see *why* the request is infeasible, not a plain hit.
        provenance = (
            QUARANTINED
            if answer.get("provenance") == QUARANTINED
            else HIT
        )
        answer["provenance"] = provenance
        return protocol.ok_response(
            fingerprint=fingerprint, provenance=provenance, answer=answer
        )

    async def _handle_schedule(self, message: Dict) -> Dict:
        record = message.get("request")
        if not isinstance(record, dict):
            return protocol.error_response(
                "schedule op needs a 'request' object"
            )
        try:
            request = ScheduleRequest.from_record(record)
            fingerprint = request.fingerprint()
        except Exception as err:
            METRICS.inc("serve.errors")
            return protocol.error_response(
                f"bad schedule request: {type(err).__name__}: {err}"
            )

        cached = self.index.get(fingerprint)
        if cached is not None:
            return self._hit_response(fingerprint, cached)

        deadline_s = message.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = max(0.001, float(deadline_s))
            except (TypeError, ValueError):
                return protocol.error_response(
                    "deadline_s must be a number of seconds"
                )

        future = self.inflight.get(fingerprint)
        if future is None:
            if self.draining:
                return protocol.error_response(
                    "daemon is draining; not admitting new tunes",
                    code="draining",
                    fingerprint=fingerprint,
                )
            if self.quarantine.poisoned(fingerprint):
                # Quarantined on a previous run but the answer never
                # persisted (crashed between): synthesize it now.
                return self._quarantine(
                    fingerprint, record, self.quarantine.reason(fingerprint)
                )
            if len(self.inflight) >= self.max_pending:
                METRICS.inc("serve.shed")
                return {
                    "status": "overloaded",
                    "fingerprint": fingerprint,
                    "error": (
                        f"miss queue full ({self.max_pending} tunes "
                        "in flight); retry later"
                    ),
                    "retry_after_s": self._retry_after_hint(),
                    "protocol": protocol.PROTOCOL_VERSION,
                }
            METRICS.inc("serve.misses")
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            self.inflight[fingerprint] = future
            task = loop.create_task(
                self._tune_one(fingerprint, record, deadline_s)
            )
            self._tunes.add(task)
            task.add_done_callback(self._tunes.discard)
        else:
            METRICS.inc("serve.deduped")

        if not message.get("wait", True):
            return {
                "status": "pending",
                "fingerprint": fingerprint,
                "protocol": protocol.PROTOCOL_VERSION,
            }
        try:
            row = await asyncio.wait_for(
                asyncio.shield(future), timeout=deadline_s
            )
        except asyncio.TimeoutError:
            return protocol.error_response(
                f"deadline of {deadline_s}s expired before the tune "
                "finished; the answer stays pollable by fingerprint",
                code="deadline",
                fingerprint=fingerprint,
            )
        return self._row_response(fingerprint, row)

    def _row_response(self, fingerprint: str, row: Dict) -> Dict:
        if row.get("status") != "ok":
            response = protocol.error_response(
                row.get("error", "tune failed")
            )
            for key in ("code", "fingerprint"):
                if key in row:
                    response[key] = row[key]
            return response
        answer = row["answer"]
        return protocol.ok_response(
            fingerprint=fingerprint,
            provenance=answer.get("provenance", "tuned"),
            answer=answer,
        )

    def _retry_after_hint(self) -> float:
        """A crude shed hint: assume the current in-flight tunes clear
        at a few seconds each across the worker slots."""
        backlog = max(1, len(self.inflight))
        return round(
            min(30.0, 1.0 + 2.0 * backlog / max(1, self.tune_jobs)), 3
        )

    def _handle_poll(self, message: Dict) -> Dict:
        fingerprint = message.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            return protocol.error_response(
                "poll op needs a 'fingerprint' string"
            )
        cached = self.index.get(fingerprint)
        if cached is not None:
            return self._hit_response(fingerprint, cached)
        if fingerprint in self.inflight:
            return {
                "status": "pending",
                "fingerprint": fingerprint,
                "protocol": protocol.PROTOCOL_VERSION,
            }
        return protocol.error_response(
            "no answer and no tune in flight for this fingerprint "
            "(was it requested on this ledger root?)",
            code="unknown-fingerprint",
            fingerprint=fingerprint,
        )

    # -- the supervised tune path --------------------------------------

    def _quarantine(
        self, fingerprint: str, record: Dict, reason: str
    ) -> Dict:
        """Persist and index the durable infeasible answer for a
        poison request; returns its ok-row response."""
        METRICS.inc("serve.quarantined")
        answer = quarantined_answer(fingerprint, reason)
        entry = {"request": record, "answer": answer}
        self.ledger.put_answer(fingerprint, entry)
        try:
            saved = self.ledger.save()
        except OSError:
            saved = False
        if not saved:
            # Served and indexed anyway; the QUARANTINE.json count
            # still blocks re-tunes after a restart.
            METRICS.inc("serve.persist_failures")
        self._index_answer(fingerprint, entry)
        return protocol.ok_response(
            fingerprint=fingerprint,
            provenance=QUARANTINED,
            answer=answer,
        )

    def _dispatch_kwargs(
        self, fingerprint: str, record: Dict,
        deadline_s: Optional[float],
    ) -> Dict:
        warm = None
        if self.warm_start:
            try:
                request = ScheduleRequest.from_record(record)
                warm = self._neighbor_decision(request, fingerprint)
            except (AttributeError, KeyError, TypeError, ValueError):
                # A malformed indexed record: tune this miss cold.
                METRICS.inc("serve.warm_lookup_failures")
        timeout_s = self.timeout_s
        if deadline_s is not None:
            timeout_s = (
                deadline_s
                if timeout_s is None
                else min(timeout_s, deadline_s)
            )
        return {
            "record": record,
            "ledger_path": str(self.ledger.path),
            "warm": warm,
            "timeout_s": timeout_s,
            "parent_pid": os.getpid(),
        }

    async def _tune_one(
        self,
        fingerprint: str,
        record: Dict,
        deadline_s: Optional[float] = None,
    ):
        """Run one miss on a supervised worker slot and resolve its
        future — *always*, whatever the outcome shape."""
        loop = asyncio.get_running_loop()

        def dispatch():
            def on_attempt(_attempt: int):
                if self.chaos is not None:
                    kwargs["chaos_kill"] = self.chaos.kill_worker(
                        fingerprint
                    )
            slot = self._free_workers.get()
            try:
                return run_supervised(
                    slot,
                    "serve_tune",
                    kwargs,
                    retries=self.worker_retries,
                    backoff_s=self.retry_backoff_s,
                    on_attempt=on_attempt,
                )
            finally:
                self._free_workers.put(slot)

        row: Dict = {
            "status": "error",
            "fingerprint": fingerprint,
            "error": "tune dispatch failed",
        }
        try:
            kwargs = self._dispatch_kwargs(fingerprint, record, deadline_s)
            status, result, crashes = await loop.run_in_executor(
                self._executor, dispatch
            )
            if crashes:
                total = self.quarantine.record_crashes(
                    fingerprint, crashes, str(result)[:500]
                )
            if status == "ok":
                self.quarantine.record_success(fingerprint)
                row = result
            elif status == "err":
                row = {
                    "status": "error",
                    "fingerprint": fingerprint,
                    "error": f"tune dispatch failed: {result}",
                }
            else:  # every attempt crashed
                if total >= self.quarantine_after:
                    response = self._quarantine(
                        fingerprint, record, str(result)[:500]
                    )
                    row = {
                        "status": "ok",
                        "fingerprint": fingerprint,
                        "answer": response["answer"],
                    }
                else:
                    row = {
                        "status": "error",
                        "code": "crashed",
                        "fingerprint": fingerprint,
                        "error": (
                            f"tune worker crashed {crashes}x "
                            f"(consecutive total {total}): {result}"
                        ),
                    }
        except Exception as err:
            row = {
                "status": "error",
                "fingerprint": fingerprint,
                "error": f"dispatch failed: {type(err).__name__}: {err}",
            }
        finally:
            if (
                row.get("status") == "ok"
                and fingerprint not in self.index
            ):
                self._index_answer(
                    fingerprint,
                    {"request": record, "answer": row["answer"]},
                )
            future = self.inflight.pop(fingerprint, None)
            if future is not None and not future.done():
                future.set_result(row)

    # -- connection handling -------------------------------------------

    def _stats(self) -> Dict:
        snapshot = METRICS.snapshot(sources=False)
        counters = {
            name: value
            for name, value in snapshot.items()
            if name.startswith("serve.")
        }
        for name in SERVE_COUNTERS:
            counters.setdefault(name, 0)
        return protocol.ok_response(
            counters=counters,
            answers=len(self.index),
            inflight=len(self.inflight),
            draining=self.draining,
            max_pending=self.max_pending,
            shards=self.ledger.shards,
            ledger=str(self.ledger.path),
            uptime_s=round(time.monotonic() - self.started, 3),
        )

    async def _dispatch(self, message: Dict) -> Optional[Dict]:
        op = message.get("op")
        if op == "schedule":
            return await self._handle_schedule(message)
        if op == "poll":
            return self._handle_poll(message)
        if op == "stats":
            return self._stats()
        if op == "ping":
            return protocol.ok_response(pong=True)
        if op == "shutdown":
            self.begin_drain()
            return protocol.ok_response(stopping=True, draining=True)
        return protocol.error_response(f"unknown op {op!r}")

    async def _read_frame(self, reader):
        """One NDJSON line, staying aligned past oversized input.

        ``readuntil`` (not ``readline``) because its
        :class:`~asyncio.LimitOverrunError` path leaves the buffer
        intact: the oversized line is discarded byte-exactly up to its
        newline and :data:`_OVERSIZED` returned, so the connection
        keeps working at the very next frame. Returns ``b""`` at EOF
        (including after a torn final line — nobody is left to answer).
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return b""
        except asyncio.LimitOverrunError as err:
            consumed = err.consumed
            while True:
                if consumed:
                    await reader.readexactly(consumed)
                try:
                    await reader.readuntil(b"\n")  # the line's tail
                    return _OVERSIZED
                except asyncio.LimitOverrunError as again:
                    consumed = again.consumed
                except asyncio.IncompleteReadError:
                    return b""

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                frame = await self._read_frame(reader)
                if frame is _OVERSIZED:
                    METRICS.inc("serve.errors")
                    writer.write(protocol.encode(protocol.error_response(
                        f"line exceeds the {self.line_limit}-byte "
                        "stream limit (raise --line-limit for large "
                        "requests)",
                        code="oversized",
                    )))
                    await writer.drain()
                    continue
                if not frame:
                    break
                self._busy += 1
                try:
                    try:
                        message = protocol.decode(frame)
                    except ValueError as err:
                        response = protocol.error_response(
                            f"undecodable message: {err}"
                        )
                    else:
                        response = await self._dispatch(message)
                    writer.write(protocol.encode(response))
                    await writer.drain()
                finally:
                    self._busy -= 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # stop() cancels idle connections; ending the task normally
            # keeps the stream protocol from logging the cancellation.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                # The peer reset or dropped the transport before the
                # close finished; the connection is gone either way.
                METRICS.inc("serve.close_failures")

    # -- lifecycle -----------------------------------------------------

    def begin_drain(self):
        """Stop admitting misses; exit once in-flight work settles."""
        if self.draining:
            return
        self.draining = True
        asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self):
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            if not self.inflight and self._busy == 0:
                break
            await asyncio.sleep(0.02)
        # Whoever is still waiting gets the structured drain error —
        # a resolved future and a clean line, never a torn socket.
        for fingerprint, future in list(self.inflight.items()):
            if not future.done():
                METRICS.inc("serve.drained")
                future.set_result(_draining_row(fingerprint))
        self.inflight.clear()
        # One last grace window for those responses to flush.
        grace = time.monotonic() + 2.0
        while self._busy and time.monotonic() < grace:
            await asyncio.sleep(0.02)
        self.request_stop()

    def request_stop(self):
        if self._stopped is not None and not self._stopped.done():
            self._stopped.set_result(None)

    async def start(self):
        loop = asyncio.get_running_loop()
        self._stopped = loop.create_future()
        try:
            loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
        except (ValueError, NotImplementedError, RuntimeError):
            pass  # not the main thread (ServerHandle) or no signals
        if self.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=str(self.socket_path),
                limit=self.line_limit,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=self.line_limit,
            )
            # Rebind to the kernel-assigned port when port=0 was asked.
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self):
        pending = list(self._tunes) + list(self._connections)
        for task in pending:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # The cancellations must actually run: a connection task's
        # ``finally`` closes its transport, and skipping that leaves
        # the client's socket open-but-dead — it would hang in read
        # instead of seeing EOF and reconnecting to the restarted
        # daemon.
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await asyncio.sleep(0)  # let transport-close callbacks fire
        # An abrupt stop (no drain) still resolves every waiter with
        # the structured error rather than a cancelled future.
        for fingerprint, future in self.inflight.items():
            if not future.done():
                METRICS.inc("serve.drained")
                future.set_result(_draining_row(fingerprint))
        self.inflight.clear()
        self._executor.shutdown(wait=False)
        # Idle workers exit and are joined here, so none outlives the
        # daemon; a busy one is closed by its dispatcher once its point
        # returns, and no slot forks again.
        for slot in self.workers:
            slot.close()
        if self.socket_path:
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass

    async def serve_until_stopped(self):
        await self.start()
        try:
            await self._stopped
        finally:
            await self.stop()


class ServerHandle:
    """A daemon running on a background thread (tests, benchmarks)."""

    def __init__(self, server: ScheduleServer):
        self.server = server
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self.thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serving daemon failed to start")

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        # Waiting on the stop future (rather than run_forever) means a
        # drain completed by the daemon itself — shutdown op, SIGTERM —
        # ends the thread without any cross-thread loop.stop() dance.
        self.loop.run_until_complete(self._await_stop())
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    async def _await_stop(self):
        await self.server._stopped

    def stop(self):
        if self.thread.is_alive() and not self.loop.is_closed():
            try:
                self.loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # the loop closed between the checks
        self.thread.join(timeout=30)


def start_background(server: ScheduleServer) -> ServerHandle:
    return ServerHandle(server)
