"""Seeded chaos for the serving layer: deterministic injected failures.

:mod:`repro.faults.events` gave the *simulated* machine a disciplined
fault model — seeded, replayable, byte-identical per seed. This module
applies the same discipline to the schedule-serving daemon
(:mod:`repro.serve`): a :class:`ChaosPlan` is a small frozen schedule
of serving-layer failures with a stable :meth:`~ChaosPlan.encode` and a
deterministic :meth:`~ChaosPlan.sample`, mirroring
:class:`~repro.faults.events.FaultPlan`.

Event kinds and where they inject:

* :class:`KillWorker` — the ``n``-th tune-worker dispatch (run on a
  slot's persistent child of the daemon) dies with SIGKILL mid-tune. Injected by the
  supervised dispatcher (:mod:`repro.serve.supervise`): the child
  self-kills after opening the ledger, exactly where a real crash
  would lose the unpersisted answer.
* :class:`PoisonRequest` — *every* dispatch for one request
  fingerprint crashes, modelling a request that deterministically
  kills its worker; this is what drives the daemon's
  consecutive-crash quarantine.
* :class:`DropConnection` — the client drops its socket just before
  reading the ``n``-th response, exercising reconnect + idempotent
  re-send.
* :class:`TornLine` — the client writes half of the ``n``-th request
  frame and hangs up, leaving the daemon a torn NDJSON line.
* :class:`OversizedLine` — the client sends a single line larger than
  the daemon's stream limit before the ``n``-th request.
* :class:`RestartDaemon` — the harness restarts the daemon after the
  ``n``-th completed client operation (the daemon cannot restart
  itself; the scenario driver owns this event).

A :class:`ChaosController` wraps a plan with the mutable counters the
daemon and client consult at their injection points; everything the
controller decides is a pure function of (plan, event index), so equal
seeds replay the identical failure schedule.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Optional

from repro.faults.events import EventPlan

__all__ = [
    "ChaosController",
    "ChaosPlan",
    "DropConnection",
    "KillWorker",
    "OversizedLine",
    "PoisonRequest",
    "RestartDaemon",
    "TornLine",
]


@dataclass(frozen=True)
class KillWorker:
    """SIGKILL the worker serving the ``dispatch``-th tune-worker
    dispatch (0-based, counted across every dispatch attempt the daemon
    makes, retries included)."""

    dispatch: int

    def encode(self) -> str:
        return f"kill-worker(dispatch={self.dispatch})"


@dataclass(frozen=True)
class PoisonRequest:
    """Every worker dispatched for ``fingerprint`` crashes."""

    fingerprint: str

    def encode(self) -> str:
        return f"poison(fingerprint={self.fingerprint})"


@dataclass(frozen=True)
class DropConnection:
    """The client drops its socket before reading reply ``reply``
    (0-based, counted across every response the client reads)."""

    reply: int

    def encode(self) -> str:
        return f"drop(reply={self.reply})"


@dataclass(frozen=True)
class TornLine:
    """The client tears request frame ``send`` in half and hangs up."""

    send: int

    def encode(self) -> str:
        return f"torn(send={self.send})"


@dataclass(frozen=True)
class OversizedLine:
    """The client sends one ``size``-byte line before request ``send``."""

    send: int
    size: int = 2 * 1024 * 1024

    def encode(self) -> str:
        return f"oversized(send={self.send},size={self.size})"


@dataclass(frozen=True)
class RestartDaemon:
    """The harness restarts the daemon after ``after`` completed
    client operations."""

    after: int

    def encode(self) -> str:
        return f"restart(after={self.after})"


@dataclass(frozen=True)
class ChaosPlan(EventPlan):
    """A deterministic schedule of serving-layer failures.

    Extend a sampled plan with hand-placed events (a poison request
    whose fingerprint is only known at scenario-build time) via
    :meth:`with_events`.
    """

    def with_events(self, *events) -> "ChaosPlan":
        return ChaosPlan(events=self.events + tuple(events), seed=self.seed)

    def restart_after(self) -> Optional[int]:
        """The harness-driven restart point, if the plan has one."""
        for event in self.events:
            if isinstance(event, RestartDaemon):
                return event.after
        return None

    @staticmethod
    def sample(
        seed: int,
        operations: int,
        dispatches: int,
        kills: int = 2,
        drops: int = 2,
        torn: int = 1,
        oversized: int = 0,
        restart: bool = True,
    ) -> "ChaosPlan":
        """Draw a chaos schedule deterministically from ``seed``.

        ``operations`` bounds the client-side event positions (reply
        and send counters), ``dispatches`` the worker-kill positions.
        Equal seeds produce equal plans, byte for byte.
        """
        if operations < 1 or dispatches < 1:
            raise ValueError("chaos sampling needs positive event ranges")
        rng = random.Random(seed)
        events = []
        for index in sorted(
            rng.sample(range(dispatches), min(kills, dispatches))
        ):
            events.append(KillWorker(dispatch=index))
        for index in sorted(
            rng.sample(range(operations), min(drops, operations))
        ):
            events.append(DropConnection(reply=index))
        for index in sorted(
            rng.sample(range(operations), min(torn, operations))
        ):
            events.append(TornLine(send=index))
        for index in sorted(
            rng.sample(range(operations), min(oversized, operations))
        ):
            events.append(OversizedLine(send=index))
        if restart:
            # Land the restart inside the middle of the operation
            # stream so it genuinely interrupts a burst.
            lo = max(1, operations // 3)
            hi = max(lo + 1, (2 * operations) // 3)
            events.append(RestartDaemon(after=rng.randrange(lo, hi)))
        return ChaosPlan(events=tuple(events), seed=seed)


class ChaosController:
    """Mutable counters over a frozen plan: the injection-point API.

    One controller is shared by the daemon (worker kills) and the
    client (drops, torn and oversized frames); its counters advance on
    every consult, so the schedule plays out in arrival order. Thread
    safe — the daemon consults from dispatcher threads while the
    client consults from the caller's.
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._kills = {
            e.dispatch for e in plan.events if isinstance(e, KillWorker)
        }
        self._poison = {
            e.fingerprint
            for e in plan.events
            if isinstance(e, PoisonRequest)
        }
        self._drops = {
            e.reply for e in plan.events if isinstance(e, DropConnection)
        }
        self._torn = {
            e.send for e in plan.events if isinstance(e, TornLine)
        }
        self._oversized = {
            e.send: e.size
            for e in plan.events
            if isinstance(e, OversizedLine)
        }
        #: Consult counters (dispatches, replies, sends seen so far).
        self.dispatches = 0
        self.replies = 0
        self.sends = 0
        #: Events actually fired, by kind.
        self.kills_fired = 0
        self.poison_fired = 0
        self.drops_fired = 0
        self.torn_fired = 0
        self.oversized_fired = 0

    # -- daemon side ---------------------------------------------------

    def kill_worker(self, fingerprint: str) -> bool:
        """Should the next worker dispatch for ``fingerprint`` die?"""
        with self._lock:
            index = self.dispatches
            self.dispatches += 1
            if fingerprint in self._poison:
                self.poison_fired += 1
                return True
            if index in self._kills:
                self.kills_fired += 1
                return True
            return False

    # -- client side ---------------------------------------------------

    def drop_before_reply(self) -> bool:
        """Should the client drop the socket before this read?"""
        with self._lock:
            index = self.replies
            self.replies += 1
            if index in self._drops:
                self.drops_fired += 1
                return True
            return False

    def torn_send(self) -> bool:
        """Should the client tear this request frame?"""
        with self._lock:
            index = self.sends
            self.sends += 1
            if index in self._torn:
                self.torn_fired += 1
                return True
            return False

    def oversized_send(self) -> Optional[int]:
        """Byte size of an oversized line to inject before this
        request, or ``None``. Shares the send counter with
        :meth:`torn_send` consults made by the same request."""
        with self._lock:
            index = self.sends  # peek: torn_send() advanced it already
            size = self._oversized.get(index - 1)
            if size is not None and index - 1 not in self._torn:
                self.oversized_fired += 1
                del self._oversized[index - 1]
                return size
            return None
