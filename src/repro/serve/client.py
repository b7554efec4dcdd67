"""Synchronous, resilient client for the schedule-serving daemon.

A blocking wrapper over one socket speaking the NDJSON protocol, with
the failure handling a long-lived caller needs:

* **Reconnect with backoff + jitter** — a dropped connection (daemon
  restart, chaos injection, network hiccup) is rebuilt with
  exponentially backed-off attempts; each reconnect is counted in
  ``serve.reconnects``.
* **Idempotent retry** — a request whose connection died before the
  response is simply re-sent on the new connection. This is safe by
  construction: requests are keyed by content fingerprint and equal
  requests answer byte-identically, so the worst case is a cache hit
  (or joining the tune the lost request already started).
* **Timeout poisoning** — a ``socket.timeout`` mid-read leaves the
  NDJSON stream misaligned (the late response would be read as the
  answer to the *next* request), so the connection is closed and a
  typed :class:`RequestTimeout` raised; the next call reconnects.
* **Structured backpressure** — ``"overloaded"`` responses are retried
  after the daemon's ``retry_after_s`` hint; ``"draining"`` errors
  reconnect (a drained daemon is about to exit; its replacement will
  answer). Both give up after the retry budget and return the
  structured response for the caller to act on.

:meth:`ScheduleClient.schedule` round-trips one request (optionally
with a ``deadline_s`` the daemon enforces);
:meth:`ScheduleClient.poll` retrieves a ``wait=False`` answer later —
including from a *restarted* daemon, which serves it from the rebuilt
shard index. :meth:`ScheduleClient.schedule_batch` pipelines requests
through a writer thread and resumes mid-batch after a reconnect.

Accepts :class:`repro.api.ScheduleRequest` objects or raw record
dicts interchangeably; responses are the daemon's JSON objects
(``status``/``provenance``/``answer``).
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.api import ScheduleRequest
from repro.obs.metrics import METRICS
from repro.serve import protocol

Requestish = Union[ScheduleRequest, Dict]


def _record(request: Requestish) -> Dict:
    if isinstance(request, ScheduleRequest):
        return request.to_record()
    return request


class ProtocolError(RuntimeError):
    """The daemon answered outside the protocol (or not at all)."""


class ConnectionLost(ProtocolError):
    """The connection died mid-conversation (daemon gone or socket
    dropped). Retried automatically up to the client's budget."""


class RequestTimeout(ProtocolError):
    """No response within the socket timeout.

    The connection has been closed: after a read timeout the stream is
    misaligned (the daemon's late response would otherwise be consumed
    as the answer to the *next* request), so it must never be reused.
    """


class ScheduleClient:
    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
        retries: int = 4,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        chaos=None,
    ):
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        #: Optional :class:`repro.faults.chaos.ChaosController`; when
        #: set, the client injects the plan's connection drops and
        #: torn/oversized frames at its own send/receive points.
        self.chaos = chaos
        self.reconnects = 0
        # Jitter only desynchronizes retry stampedes; it never touches
        # request content, so an unseeded RNG keeps answers exact.
        self._rng = random.Random()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # -- connection lifecycle ------------------------------------------

    def _connect(self):
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(str(self._socket_path))
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _poison(self):
        """Close and forget the connection; the next call reconnects."""
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        for closer in (file, sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass

    def _ensure_connected(self):
        if self._file is None:
            self._connect()

    def _backoff(self, attempt: int) -> float:
        delay = min(
            self.backoff_s * (2 ** attempt), self.backoff_cap_s
        )
        return delay * (1.0 + self._rng.random())

    def _note_reconnect(self):
        self.reconnects += 1
        METRICS.inc("serve.reconnects")

    # -- plumbing ------------------------------------------------------

    def _send(self, message: Dict):
        self._file.write(protocol.encode(message))

    def _recv(self) -> Dict:
        try:
            line = self._file.readline()
        except socket.timeout as err:
            self._poison()
            raise RequestTimeout(
                f"no response within {self._timeout}s; connection "
                "closed (a late response would desync the stream)"
            ) from err
        except (ConnectionResetError, BrokenPipeError, OSError) as err:
            self._poison()
            raise ConnectionLost(f"connection lost: {err}") from err
        if not line:
            self._poison()
            raise ConnectionLost("daemon closed the connection")
        try:
            response = protocol.decode(line)
        except ValueError as err:
            self._poison()
            raise ProtocolError(f"undecodable response: {err}") from err
        if response.get("protocol") not in (None, protocol.PROTOCOL_VERSION):
            raise ProtocolError(
                f"protocol version mismatch: {response.get('protocol')}"
            )
        return response

    def _roundtrip(self, message: Dict) -> Dict:
        """One raw send/receive on the current connection — no retry,
        no chaos. The resilient ops build on :meth:`_request`."""
        self._ensure_connected()
        self._send(message)
        self._file.flush()
        return self._recv()

    def _inject_chaos_send(self, message: Dict):
        """The chaos plan's client-side frame corruptions."""
        if self.chaos.torn_send():
            payload = protocol.encode(message)
            self._file.write(payload[: max(1, len(payload) // 2)])
            self._file.flush()
            self._poison()
            raise ConnectionLost("chaos: frame torn mid-send")
        size = self.chaos.oversized_send()
        if size:
            # One giant line, then read (and discard) the daemon's
            # structured oversized error so the stream stays aligned
            # for the real request.
            self._file.write(b"\x7b" * size + b"\n")
            self._file.flush()
            self._recv()

    def _request(self, message: Dict) -> Dict:
        """Round-trip with reconnect/backoff and structured-status
        retries; the engine behind every resilient operation."""
        attempts = self.retries + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                self._ensure_connected()
                if self.chaos is not None:
                    self._inject_chaos_send(message)
                self._send(message)
                self._file.flush()
                if self.chaos is not None and self.chaos.drop_before_reply():
                    self._poison()
                    raise ConnectionLost("chaos: dropped before reply")
                response = self._recv()
            except RequestTimeout:
                raise  # typed, already poisoned; never silently retried
            except (ConnectionLost, OSError) as err:
                self._poison()
                last_error = err
                if attempt + 1 >= attempts:
                    raise ConnectionLost(
                        f"gave up after {attempts} attempts: {err}"
                    ) from err
                self._note_reconnect()
                time.sleep(self._backoff(attempt))
                continue
            status = response.get("status")
            if attempt + 1 < attempts:
                if status == "overloaded":
                    hint = response.get("retry_after_s")
                    delay = (
                        float(hint) if hint else self._backoff(attempt)
                    )
                    time.sleep(min(delay, self.backoff_cap_s))
                    continue
                if (
                    status == "error"
                    and response.get("code") == "draining"
                ):
                    # The daemon is exiting; reconnect to (eventually)
                    # reach its replacement.
                    self._poison()
                    self._note_reconnect()
                    time.sleep(self._backoff(attempt))
                    continue
            return response
        raise ConnectionLost(f"gave up: {last_error}")  # pragma: no cover

    # -- operations ----------------------------------------------------

    def schedule(
        self,
        request: Requestish,
        wait: bool = True,
        deadline_s: Optional[float] = None,
    ) -> Dict:
        message = {
            "op": "schedule", "request": _record(request), "wait": wait,
        }
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        return self._request(message)

    def poll(self, fingerprint: str) -> Dict:
        """Retrieve an answer requested earlier with ``wait=False`` —
        works across reconnects and daemon restarts (the fingerprint is
        the durable key)."""
        return self._request({"op": "poll", "fingerprint": fingerprint})

    def schedule_batch(
        self,
        requests: Sequence[Requestish],
    ) -> List[Dict]:
        """Pipelined: requests stream from a writer thread while this
        thread drains responses (the daemon answers in order per
        connection). Writing everything before reading anything would
        deadlock once both socket buffers fill — the daemon blocks in
        ``drain()`` with nobody reading, the client blocks in
        ``write()`` with nobody accepting.

        A connection lost mid-batch resumes where it stopped: the
        unanswered tail re-sends on the new connection (idempotent by
        fingerprint), so the returned list always matches ``requests``
        one to one. Every request waits for its answer, with no
        deadline.
        """
        messages = [
            {"op": "schedule", "request": _record(request), "wait": True}
            for request in requests
        ]
        responses: List[Dict] = []
        attempts = self.retries + 1
        for attempt in range(attempts):
            pending = messages[len(responses):]
            if not pending:
                break
            try:
                self._ensure_connected()
            except OSError as err:
                if attempt + 1 >= attempts:
                    raise ConnectionLost(
                        f"batch reconnect failed: {err}"
                    ) from err
                self._note_reconnect()
                time.sleep(self._backoff(attempt))
                continue
            pump_errors: List[Exception] = []

            def pump(file=self._file, lines=pending):
                # BufferedRWPair keeps separate read/write buffers, so
                # one writer thread and one reader thread never collide.
                try:
                    for message in lines:
                        file.write(protocol.encode(message))
                    file.flush()
                except Exception as err:
                    pump_errors.append(err)

            writer = threading.Thread(target=pump, daemon=True)
            writer.start()
            try:
                for _ in pending:
                    responses.append(self._recv())
            except (ConnectionLost, OSError):
                pass  # resume the tail on a fresh connection
            finally:
                writer.join()
            if len(responses) == len(messages):
                return responses
            self._poison()
            if attempt + 1 >= attempts:
                break
            self._note_reconnect()
            time.sleep(self._backoff(attempt))
        if len(responses) != len(messages):
            raise ConnectionLost(
                f"batch incomplete after {attempts} attempts: "
                f"{len(responses)}/{len(messages)} responses"
            )
        return responses

    def stats(self) -> Dict:
        return self._request({"op": "stats"})

    def ping(self) -> bool:
        try:
            return self._request({"op": "ping"}).get("status") == "ok"
        except ProtocolError:
            return False

    def shutdown(self) -> Dict:
        """Ask the daemon to drain and exit (never retried — a second
        shutdown aimed at a replacement daemon would be surprising)."""
        return self._roundtrip({"op": "shutdown"})

    def close(self):
        self._poison()

    def __enter__(self) -> "ScheduleClient":
        return self

    def __exit__(self, *exc):
        self.close()
