"""The daemon's wire protocol: newline-delimited JSON messages.

One request per line, one response per line, UTF-8, no framing beyond
``\\n`` — trivially scriptable (``nc -U`` works) and fast enough that
the protocol never shows up next to a microsecond index lookup.

Requests are objects with an ``op``:

``{"op": "schedule", "request": {...}, "wait": true, "deadline_s": 30}``
    ``request`` is a :meth:`repro.api.ScheduleRequest.to_record` dict.
    A cached answer returns immediately with ``provenance: "hit"``.
    On a miss with ``wait`` true (the default) the response arrives
    once the tune finishes; with ``wait`` false the daemon responds
    ``{"status": "pending"}`` right away and tunes in the background
    (retrieve later with ``poll``). ``deadline_s`` (optional, seconds,
    relative) bounds how long the *daemon* lets this request wait: it
    caps the oracle's tune timeout and, on expiry, answers
    ``status: "error"`` with ``code: "deadline"`` — the tune keeps
    running and the answer stays pollable.

``{"op": "poll", "fingerprint": "..."}``
    Retrieve a previously requested answer by fingerprint: ``"ok"``
    with the answer if tuned (on this daemon *or a restarted one* —
    the rebuilt shard index serves it), ``"pending"`` while in flight,
    or ``"error"`` with ``code: "unknown-fingerprint"``.

``{"op": "stats"}``
    Daemon counters (the ``serve.*`` metrics), ledger sizes, uptime.

``{"op": "ping"}`` / ``{"op": "shutdown"}``
    Liveness probe / graceful drain (stop admitting misses, finish
    in-flight tunes, then exit).

Responses always carry ``status``: ``"ok"`` (with ``answer`` and
``provenance`` for schedule ops), ``"pending"``, ``"overloaded"``
(the bounded miss queue is full — shed with a ``retry_after_s``
hint), or ``"error"`` (with ``error`` text and, for structured
failures, a machine-readable ``code``: ``"draining"``,
``"deadline"``, ``"oversized"``, ``"crashed"``,
``"unknown-fingerprint"``). ``protocol`` carries
:data:`PROTOCOL_VERSION` so clients can refuse a mismatched daemon.
"""

from __future__ import annotations

import json
from typing import Dict

PROTOCOL_VERSION = 1

#: Default localhost TCP port (unix sockets are preferred; TCP exists
#: for platforms and tools without AF_UNIX).
DEFAULT_PORT = 7463


def encode(message: Dict) -> bytes:
    """One wire line: compact, key-sorted JSON plus the delimiter."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> Dict:
    """One wire line's message; ``ValueError`` when the line is not one
    UTF-8 JSON object, nested too deeply for the parser included."""
    try:
        message = json.loads(line.decode("utf-8"))
    except RecursionError:
        raise ValueError("message nested too deeply to parse") from None
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def error_response(text: str, **fields) -> Dict:
    """An error line; ``fields`` attach structured context (``code``,
    ``fingerprint``, ``retry_after_s``)."""
    response = {
        "status": "error",
        "error": text,
        "protocol": PROTOCOL_VERSION,
    }
    response.update(fields)
    return response


def ok_response(**fields) -> Dict:
    response = {"status": "ok", "protocol": PROTOCOL_VERSION}
    response.update(fields)
    return response
