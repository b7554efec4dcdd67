"""Supervised tune dispatch: retries with backoff, and quarantine.

The daemon runs each miss on a slot of the one process supervisor,
:class:`repro.bench.parallel.WorkerSlot`: one persistent supervised
child per dispatcher slot, replaced after a crash, connected by a pipe
— its death without delivering its envelope is a detected
``("crash", detail)`` outcome, never a hang. The envelope
(rows plus cache, metrics and span deltas) merges back through
:func:`repro.bench.parallel.install_envelope`, exactly as sweeps do.
On top of that primitive this module adds the serving policy:

* :func:`run_supervised` retries crashes with exponential backoff, up
  to ``retries`` times (counted in ``serve.crashes`` /
  ``serve.retried``), each retry on a freshly forked child (counted,
  like the first fork, in ``serve.worker_spawns``); structured
  ``("err", ...)`` outcomes do not retry (the worker already caught
  the exception; re-running a deterministic failure buys nothing).
* :class:`QuarantineStore` persists consecutive-crash counts per
  request fingerprint, so a poison request — one that kills its worker
  every time — is cut off after ``threshold`` crashes with a durable
  infeasible-with-reason answer (:func:`quarantined_answer`) instead of
  being re-tuned forever across daemon restarts.

Platforms without ``fork`` degrade to in-process execution, where a
crash cannot be distinguished from daemon death anyway — supervision
is only meaningful when the tune runs in a child.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.bench.parallel import WorkerSlot, install_envelope
from repro.obs.metrics import METRICS
from repro.util.fileio import locked, write_atomic

QUARANTINE_FILE = "QUARANTINE.json"

#: Backoff cap: a serving daemon must not sleep seconds between retries
#: while clients burn their deadlines.
_MAX_BACKOFF_S = 1.0


def run_supervised(
    slot: WorkerSlot,
    name: str,
    kwargs: dict,
    retries: int = 2,
    backoff_s: float = 0.05,
    on_attempt: Optional[Callable[[int], None]] = None,
) -> Tuple[str, object, int]:
    """Run one point on ``slot``'s supervised child, retrying crashes
    with exponential backoff.

    Returns ``(status, result, crashes)`` where ``status`` is ``"ok"``
    (``result`` is the installed point result), ``"err"`` (a traceback
    string from the worker), or ``"crash"`` (every attempt died;
    ``result`` is the last crash detail). ``crashes`` counts dead
    children across all attempts — the quarantine's currency.
    ``on_attempt`` is called with the attempt index before each
    dispatch (the chaos harness uses it to aim kills). Raises
    :class:`RuntimeError` once the slot is closed.
    """
    crashes = 0
    delay = backoff_s
    detail: object = "no attempts made"
    for attempt in range(retries + 1):
        if on_attempt is not None:
            on_attempt(attempt)
        spawns = slot.spawns
        status, result = slot.run((name, kwargs))
        if slot.spawns > spawns:
            METRICS.inc("serve.worker_spawns")
        if status == "ok":
            return ("ok", install_envelope(result), crashes)
        if status == "err":
            return ("err", result, crashes)
        crashes += 1
        METRICS.inc("serve.crashes")
        detail = result
        if attempt < retries:
            METRICS.inc("serve.retried")
            time.sleep(min(delay, _MAX_BACKOFF_S))
            delay *= 2
    return ("crash", detail, crashes)


class QuarantineStore:
    """Durable consecutive-crash bookkeeping per request fingerprint.

    Lives beside the ledger's shards (``<root>/QUARANTINE.json``) and
    uses the same advisory-lock + atomic-replace discipline, so a
    daemon restart — or a concurrent daemon on the same root — sees
    every recorded crash. Counts are *consecutive*: a successful tune
    clears its fingerprint, so a request that crashed from transient
    pressure is never quarantined for old sins.
    """

    def __init__(self, root, threshold: int = 3):
        self.path = Path(root) / QUARANTINE_FILE
        self.threshold = max(1, int(threshold))

    def _load(self) -> Dict[str, Dict]:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def _write(self, data: Dict[str, Dict]):
        write_atomic(
            self.path, json.dumps(data, sort_keys=True, indent=1)
        )

    def record_crashes(
        self, fingerprint: str, crashes: int, error: str
    ) -> int:
        """Add ``crashes`` consecutive crashes; returns the new total."""
        with locked(self.path):
            data = self._load()
            entry = data.get(fingerprint) or {"crashes": 0}
            entry["crashes"] = int(entry.get("crashes", 0)) + crashes
            entry["error"] = error
            data[fingerprint] = entry
            self._write(data)
            return entry["crashes"]

    def record_success(self, fingerprint: str):
        """A clean tune resets the consecutive-crash count."""
        with locked(self.path):
            data = self._load()
            if fingerprint in data:
                del data[fingerprint]
                self._write(data)

    def crashes(self, fingerprint: str) -> int:
        entry = self._load().get(fingerprint) or {}
        return int(entry.get("crashes", 0))

    def poisoned(self, fingerprint: str) -> bool:
        return self.crashes(fingerprint) >= self.threshold

    def reason(self, fingerprint: str) -> str:
        entry = self._load().get(fingerprint) or {}
        return str(entry.get("error", "unknown"))


def quarantined_answer(fingerprint: str, reason: str) -> Dict:
    """The durable answer record for a quarantined request.

    Shaped like an infeasible :class:`repro.api.ScheduleAnswer` record
    (``cost: "infeasible"`` round-trips to ``feasible=False``) with
    ``provenance: "quarantined"`` and the crash reason attached, so
    hits on a restarted daemon serve it from the index like any other
    answer instead of re-tuning the crasher.
    """
    from repro.api import QUARANTINED

    return {
        "decision": "",
        "formats": {},
        "cost": "infeasible",
        "comm_time": 0.0,
        "compute_time": 0.0,
        "inter_node_bytes": 0.0,
        "max_memory_bytes": 0.0,
        "num_steps": 0,
        "provenance": QUARANTINED,
        "evaluations": 0,
        "request_fingerprint": fingerprint,
        "quarantine_reason": reason,
    }
