"""The daemon's tune worker: one persistent supervised child per
dispatcher slot, replaced after a crash.

``serve_tune`` is an ordinary :mod:`repro.bench.parallel` sweep
function (registered under that name). The daemon runs it through
:func:`repro.serve.supervise.run_supervised` on the same primitive the
figure sweeps use (:class:`repro.bench.parallel.WorkerSlot`): the
GIL-heavy tune stays out of the daemon's event-loop process, one child
serves its slot's misses back to back, simulation-cache and metrics
deltas ship back in the envelope, and a killed child is a detected
crash that the daemon retries with backoff on a fresh child.

The tune itself runs with ``jobs=1``: supervised children are
daemonic and may not fork grandchildren, so parallelism across
concurrent misses comes from the daemon's dispatcher threads.
"""

from __future__ import annotations

import os
import signal
from contextlib import nullcontext
from typing import Dict, Optional

from repro.api import ScheduleRequest, tune_request
from repro.bench.parallel import register_sweep
from repro.obs.metrics import METRICS
from repro.tuner.oracle import TuningLedger
from repro.tuner.space import Decision

# The tune closure: modules a tune imports inside functions (to break
# import cycles) that the imports above do not load. The daemon imports
# this module before its first fork, so every worker, and every
# replacement after a crash, inherits them instead of importing (and,
# without bytecode caching, compiling) them on its first miss.
import repro.analysis.legality  # noqa: F401
import repro.runtime.orbit  # noqa: F401
import repro.tuner.search  # noqa: F401

#: The ledger a forked worker keeps open between misses, by path: each
#: miss refreshes it, reading only the journal bytes other processes
#: appended since, instead of parsing its shards again. The child
#: process owns it; it dies with the child.
_LEDGERS: Dict[str, TuningLedger] = {}


def _open_ledger(
    path: Optional[str], parent_pid: Optional[int]
) -> Optional[TuningLedger]:
    if path is None:
        return None
    if parent_pid is None or os.getpid() == parent_pid:
        # Running in the daemon process itself (no fork): its
        # dispatcher threads must not share one ledger.
        return TuningLedger(path)
    ledger = _LEDGERS.get(path)
    if ledger is None:
        ledger = _LEDGERS[path] = TuningLedger(path)
        # Parse every shard on the first miss, as the daemon did at
        # startup, so no later miss parses one.
        len(ledger)
    else:
        ledger.refresh()
    return ledger


def serve_tune(
    record: Dict,
    ledger_path: Optional[str] = None,
    warm: Optional[str] = None,
    timeout_s: Optional[float] = None,
    chaos_kill: bool = False,
    parent_pid: Optional[int] = None,
) -> Dict:
    """Tune one request record; returns its row.

    ``warm`` is the *encoded decision* of the request's nearest tuned
    neighbor; when given, the tune searches only the warm neighborhood
    (``strategy="warm"`` — strictly fewer simulations than a cold
    tune). The tune's oracle saves and the answer are group-committed
    to the ledger — one locked journal append and fsync per shard
    touched, so concurrent workers never drop each other's work — and
    the row is returned only after that commit.

    The row is ``{"status": "ok", "fingerprint", "answer"}`` or
    ``{"status": "error", "fingerprint", "error"}``.

    ``chaos_kill`` is the seeded chaos harness's injection point
    (:mod:`repro.faults.chaos`): the worker SIGKILLs *itself* right
    where a real crash would lose the unpersisted answer. Guarded by
    ``parent_pid`` so a no-fork platform (where the "worker" is the
    daemon process) can never shoot the daemon.
    """
    if (
        chaos_kill
        and parent_pid is not None
        and os.getpid() != parent_pid
    ):
        os.kill(os.getpid(), signal.SIGKILL)
    ledger = _open_ledger(ledger_path, parent_pid)
    fingerprint = ""
    try:
        request = ScheduleRequest.from_record(record)
        fingerprint = request.fingerprint()
        with ledger.group_commit() if ledger is not None else nullcontext():
            if warm:
                METRICS.inc("serve.warm_started")
                result = tune_request(
                    request,
                    warm_start=Decision.decode(warm),
                    strategy="warm",
                    ledger=ledger,
                    timeout_s=timeout_s,
                )
            else:
                result = tune_request(
                    request, ledger=ledger, timeout_s=timeout_s
                )
            answer = result.answer
            METRICS.inc("serve.tunes")
            if ledger is not None:
                ledger.put_answer(
                    fingerprint,
                    {"request": record, "answer": answer.to_record()},
                )
                ledger.save()
        return {
            "status": "ok",
            "fingerprint": fingerprint,
            "answer": answer.to_record(),
        }
    except Exception as err:  # ship the failure as a row
        METRICS.inc("serve.errors")
        return {
            "status": "error",
            "fingerprint": fingerprint,
            "error": f"{type(err).__name__}: {err}",
        }


register_sweep("serve_tune", serve_tune)
