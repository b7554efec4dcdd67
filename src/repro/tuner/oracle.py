"""The tuner's cost oracle: batched, cached, parallel simulation.

Candidates are scored by compiling and simulating them through
``Kernel.simulate(mode="orbit")`` — the orbit-compressed executor PRs
1–2 made fast precisely so it can be queried thousands of times. Three
layers keep re-evaluation cheap:

* the process-global :data:`~repro.bench.cache.SIM_CACHE` memoizes
  ``(plan, machine, params, mode)`` so identical candidates (canonical
  representatives, repeated rungs) simulate once. It is the oracle's
  only simulation memo: every candidate is scored by one
  ``SIM_CACHE.simulate`` call, the same ``Kernel.simulate`` path the
  figures take;
* batches fan out over the sweep supervisor
  (:mod:`repro.bench.parallel`), whose forked slot children inherit
  the warm cache and ship their deltas back;
* a persistent :class:`TuningLedger` (one JSON file, or a directory of
  JSON shards; written atomically) maps ``workload-signature/decision``
  to the simulated summary, so a re-tune — same workload, same params —
  replays from disk without simulating anything.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.prune import PruneMemo, STATIC_OOM, prune_reason
from repro.bench.cache import SIM_CACHE, cluster_signature, params_key
from repro.bench.parallel import register_sweep, run_points
from repro.core.kernel import compile_kernel
from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.obs.metrics import METRICS
from repro.obs.spans import span
from repro.sim.params import LASSEN, MachineParams
from repro.tuner.space import Decision, realize
from repro.util.errors import OutOfMemoryError, ReproError
from repro.util.fileio import locked, write_atomic

#: Cost assigned to candidates that OOM or fail to compile: they sort
#: after every feasible candidate but remain in the ledger.
INFEASIBLE = float("inf")


#: Alias kept only because ``perfbench/tune_cold.py`` imports and
#: clears ``SKELETONS``; a ``benchmark`` change drops it (ROADMAP
#: item 9).
SKELETONS = SIM_CACHE


@dataclass(frozen=True)
class EvalOutcome:
    """One candidate's simulated summary (picklable, ledger-shaped).

    ``executed`` marks an outcome that ran a trace rather than hitting
    ``SIM_CACHE``; it rides back from forked workers for the oracle's
    ``trace_executions`` count but never enters the ledger records
    (ledgers must be byte-identical across equal-seed runs, and cache
    hits vary between processes).
    """

    decision: Decision
    cost: float                 # simulated seconds; inf when infeasible
    oom: bool = False
    error: str = ""
    comm_time: float = 0.0
    compute_time: float = 0.0
    inter_node_bytes: float = 0.0
    max_memory_bytes: float = 0.0
    #: Decided by the static analyzer without simulating (see
    #: :mod:`repro.analysis.prune`). Pruned candidates are never
    #: counted as oracle *errors* even when ``error`` carries the
    #: pruning reason.
    pruned: bool = False
    #: Bulk-synchronous phases the candidate executes (0 when the
    #: candidate never simulated). The expected-cost objective prices
    #: failure exposure and checkpoint overhead per phase.
    num_steps: int = 0
    executed: bool = field(default=False, compare=False)

    @property
    def feasible(self) -> bool:
        return self.cost != INFEASIBLE

    @staticmethod
    def pruned_by(decision: Decision, reason: str) -> "EvalOutcome":
        """The outcome of a candidate the static analyzer rejected."""
        return EvalOutcome(
            decision=decision,
            cost=INFEASIBLE,
            oom=reason == STATIC_OOM,
            error=reason,
            pruned=True,
        )

    def to_record(self) -> Dict:
        return {
            "decision": self.decision.encode(),
            "cost": self.cost if self.feasible else "infeasible",
            "oom": self.oom,
            "error": self.error,
            "comm_time": self.comm_time,
            "compute_time": self.compute_time,
            "inter_node_bytes": self.inter_node_bytes,
            "max_memory_bytes": self.max_memory_bytes,
            "pruned": self.pruned,
            "num_steps": self.num_steps,
        }

    @staticmethod
    def from_record(record: Dict) -> "EvalOutcome":
        cost = record["cost"]
        return EvalOutcome(
            decision=Decision.decode(record["decision"]),
            cost=INFEASIBLE if cost in ("infeasible", "oom") else float(cost),
            oom=bool(record.get("oom", False)),
            error=record.get("error", ""),
            comm_time=record.get("comm_time", 0.0),
            compute_time=record.get("compute_time", 0.0),
            inter_node_bytes=record.get("inter_node_bytes", 0.0),
            max_memory_bytes=record.get("max_memory_bytes", 0.0),
            pruned=bool(record.get("pruned", False)),
            num_steps=int(record.get("num_steps", 0)),
        )


def workload_signature(
    assignment: Assignment,
    cluster: Cluster,
    params: MachineParams,
    memory: MemoryKind,
    mode: str,
    check_capacity: bool,
) -> str:
    """Stable identity of one tuning problem (the ledger's namespace)."""
    tensors = ";".join(
        f"{t.name}:{t.shape}:{t.dtype}" for t in assignment.tensors()
    )
    raw = "|".join(
        str(x)
        for x in (
            repr(assignment),
            tensors,
            cluster_signature(cluster),
            params_key(params),
            memory.value,
            mode,
            check_capacity,
        )
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


#: A ledger root's manifest file, pinning its shard count.
MANIFEST = "MANIFEST.json"
#: Shard count of a fresh ledger root (an existing manifest wins).
ROOT_SHARDS = 8


class _Shard:
    """One shard's records: the file's as loaded, plus unsaved puts."""

    __slots__ = ("entries", "answers")

    def __init__(self, entries: Dict[str, Dict], answers: Dict[str, Dict]):
        self.entries = entries
        self.answers = answers


class TuningLedger:
    """Persistent candidate -> summary store (incremental re-tunes).

    A ledger is a list of *shards*. Each shard is one JSON object
    ``{"version": 1, "entries": {key: record}}`` with keys ``<workload
    signature>/<decision encoding>``. The serving layer
    (:mod:`repro.serve`) additionally stores finished canonical answers
    under an ``"answers"`` object keyed by request fingerprint (see
    :mod:`repro.api`); the key is omitted entirely while empty, so
    purely tuner-written shards carry no empty ``"answers"`` object.
    Shards are compact JSON (sorted keys, no whitespace): the indented
    layout older versions wrote forces Python's pure-Python encoder and
    saved about four times slower; it still loads, since only the
    parsed content matters.

    The path picks the layout:

    * ``None`` — one in-memory shard that is never saved;
    * a ``.json`` path or any existing file — one shard, that file;
    * an existing directory or any other new path — a *root*::

        <root>/MANIFEST.json   {"shards": 8, "version": 1}
        <root>/shard-00.json   one shard, the same format as a .json file
        ...

      Entries route to a shard by their workload signature, answers by
      their request fingerprint — both uniform hex digests, so shards
      stay balanced at ``int(hex[:8], 16) % shards``. A fresh root
      gets :data:`ROOT_SHARDS` shards; an existing manifest's count
      wins, so every process that opens a root routes identically.

    A one-shard ledger loads its file in the constructor; a root loads
    each shard on first use (a daemon answering one workload never
    parses the others). Saves write only the shards changed since the
    last save, each through a temporary file and ``os.replace`` so a
    crashed or concurrent tune can never truncate it; entries are
    sorted on save so equal tuning runs produce byte-identical files.

    Loads are crash-hardened: a torn or corrupt shard (killed writer on
    a filesystem without atomic replace, stray editor, disk-full
    truncation) is *salvaged* — every entry record that still parses is
    kept, and the next save rewrites the shard — and the damaged
    original is quarantined to ``<shard>.corrupt`` for inspection, so
    one bad byte never silently discards a night of tuning.
    """

    VERSION = 1

    def __init__(self, path: Optional[os.PathLike] = None):
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        #: Writes that should have persisted but could not (an
        #: unwritable path — counted so callers like the CLI can fail
        #: loudly; a pathless in-memory ledger never counts).
        self.save_failures = 0
        #: Entries recovered from corrupt shards at load time (each
        #: original was quarantined to ``<shard>.corrupt``).
        self.salvaged = 0
        p = self.path
        is_root = p is not None and (
            p.is_dir() or (not p.exists() and p.suffix != ".json")
        )
        #: The root's manifest file (``None`` for a one-shard ledger).
        self.manifest = p / MANIFEST if is_root else None
        self.shards = self._resolve_shard_count() if is_root else 1
        self._loaded: List[Optional[_Shard]] = [None] * self.shards
        self._dirty: set = set()
        if not is_root:
            self._shard(0)

    # -- layout --------------------------------------------------------

    def _resolve_shard_count(self) -> int:
        """An existing manifest's count wins — re-opening a root with a
        different count would silently mis-route every key. A fresh
        root's manifest is written under the advisory lock; a manifest
        that cannot be written or read counts as a save failure."""
        manifest = self.manifest
        try:
            if not manifest.exists():
                self.path.mkdir(parents=True, exist_ok=True)
                with locked(manifest):
                    # Re-checked under the lock: another process may
                    # have won the race, and then its count stands.
                    if not manifest.exists() and not write_atomic(
                        manifest,
                        json.dumps({"version": 1, "shards": ROOT_SHARDS},
                                   sort_keys=True) + "\n",
                    ):
                        raise OSError(f"cannot write {manifest}")
            count = int(json.loads(manifest.read_text())["shards"])
            if count > 0:
                return count
        except (OSError, ValueError, KeyError, TypeError):
            pass
        self.save_failures += 1
        return ROOT_SHARDS

    def _shard_path(self, index: int) -> Optional[Path]:
        if self.manifest is None:
            return self.path
        return self.path / f"shard-{index:02d}.json"

    def _route(self, hex_key: str) -> int:
        """The shard holding ``hex_key`` (a wsig or a fingerprint)."""
        if self.shards == 1:
            return 0
        return int(hex_key[:8], 16) % self.shards

    def _shard(self, index: int) -> _Shard:
        shard = self._loaded[index]
        if shard is None:
            shard = self._loaded[index] = self._read(index)
        return shard

    def _read(self, index: int) -> _Shard:
        """Shard ``index`` as on disk. Salvaging a corrupt file recovers
        entries only — answers are re-derivable from a re-tune, entries
        are the expensive part — and marks the shard for rewriting."""
        path = self._shard_path(index)
        if path is None or not path.exists():
            return _Shard({}, {})
        try:
            text = path.read_text()
        except OSError:
            return _Shard({}, {})
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            entries = self._salvage(text)
            self.salvaged += len(entries)
            self._quarantine(path, text)
            self._dirty.add(index)
            return _Shard(entries, {})
        if isinstance(data, dict) and isinstance(data.get("entries"), dict):
            answers = data.get("answers")
            if not isinstance(answers, dict):
                answers = {}
            return _Shard(data["entries"], answers)
        return _Shard({}, {})

    @staticmethod
    def _salvage(text: str) -> Dict[str, Dict]:
        """Entry records that still parse inside a corrupt shard.

        Scans for ``"<wsig>/<decision>": {record}`` pairs with
        ``json.JSONDecoder.raw_decode`` — the same recovery the perf
        log applies to torn record lists — keeping any pair whose key
        carries the ledger's ``/`` namespace separator and whose value
        looks like an :meth:`EvalOutcome.to_record` dict.
        """
        decoder = json.JSONDecoder()
        entries: Dict[str, Dict] = {}
        pos = 0
        n = len(text)
        while pos < n:
            quote = text.find('"', pos)
            if quote < 0:
                break
            try:
                key, end = decoder.raw_decode(text, quote)
            except (json.JSONDecodeError, ValueError):
                pos = quote + 1
                continue
            if not (isinstance(key, str) and "/" in key):
                pos = quote + 1
                continue
            colon = end
            while colon < n and text[colon] in " \t\r\n":
                colon += 1
            if colon >= n or text[colon] != ":":
                pos = end
                continue
            vstart = colon + 1
            while vstart < n and text[vstart] in " \t\r\n":
                vstart += 1
            try:
                value, vend = decoder.raw_decode(text, vstart)
            except (json.JSONDecodeError, ValueError):
                pos = quote + 1
                continue
            if isinstance(value, dict) and "decision" in value \
                    and "cost" in value:
                entries[key] = value
                pos = vend
            else:
                pos = quote + 1
        return entries

    @staticmethod
    def _quarantine(path: Path, text: str):
        """Preserve a corrupt shard next to itself (best effort)."""
        try:
            write_atomic(path.with_name(path.name + ".corrupt"), text)
        except OSError:
            pass

    # -- records -------------------------------------------------------

    def get(self, wsig: str, decision: Decision) -> Optional[EvalOutcome]:
        shard = self._shard(self._route(wsig))
        record = shard.entries.get(f"{wsig}/{decision.encode()}")
        if record is None:
            return None
        return EvalOutcome.from_record(record)

    def put(self, wsig: str, outcome: EvalOutcome):
        index = self._route(wsig)
        key = f"{wsig}/{outcome.decision.encode()}"
        self._shard(index).entries[key] = outcome.to_record()
        self._dirty.add(index)

    def get_answer(self, fingerprint: str) -> Optional[Dict]:
        return self._shard(self._route(fingerprint)).answers.get(fingerprint)

    def put_answer(self, fingerprint: str, record: Dict):
        """Store a serving answer record ``{"request": ..., "answer":
        ...}`` under its request fingerprint."""
        index = self._route(fingerprint)
        self._shard(index).answers[fingerprint] = record
        self._dirty.add(index)

    def _merged(self, field: str) -> Dict[str, Dict]:
        merged: Dict[str, Dict] = {}
        for index in range(self.shards):
            merged.update(getattr(self._shard(index), field))
        return merged

    @property
    def entries(self) -> Dict[str, Dict]:
        """Every entry record by key (a copy; loads every shard)."""
        return self._merged("entries")

    @property
    def answers(self) -> Dict[str, Dict]:
        """Every answer record by fingerprint (a copy; loads every
        shard — daemon startup)."""
        return self._merged("answers")

    def copy_from(self, source: "TuningLedger"):
        """Copy every raw entry and answer record of ``source`` into
        this ledger, each routed to its shard here (``--migrate``).
        ``source`` is left untouched; the copies persist on the next
        :meth:`save`."""
        for key, record in source.entries.items():
            index = self._route(key.split("/", 1)[0])
            self._shard(index).entries[key] = record
            self._dirty.add(index)
        for fingerprint, record in source.answers.items():
            self.put_answer(fingerprint, record)

    def reload(self):
        """Drop the in-memory state (unsaved records too) and re-read
        shards on next use — readers polling a ledger that other
        processes write into."""
        self._loaded = [None] * self.shards
        self._dirty.clear()

    # -- persistence ---------------------------------------------------

    def save(self, stats: Optional[Dict] = None) -> bool:
        """Persist every changed shard; returns False when the path is
        unset or any (atomic) write failed.

        Each shard save takes the shard's advisory lock, re-reads the
        file, and merges records other processes added since we loaded
        it (ours win on key conflicts — evaluation is deterministic, so
        conflicting records are equal anyway), so concurrent tunes
        sharing one ledger never drop each other's work.

        ``stats`` (the oracle's hit counts; see :meth:`Oracle.stats`)
        is recorded under ``"oracle_stats"`` in every shard written —
        counters are derived from candidate fingerprints, not cache
        state, so equal-seed runs still write byte-identical ledgers.
        """
        if self.path is None:
            return False
        ok = True
        for index in sorted(self._dirty):
            if self._save_shard(index, stats):
                self._dirty.discard(index)
            else:
                self.save_failures += 1
                ok = False
        return ok

    def _save_shard(self, index: int, stats: Optional[Dict]) -> bool:
        path = self._shard_path(index)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        with locked(path):
            merged = self._read(index)
            mine = self._loaded[index]
            merged.entries.update(mine.entries)
            merged.answers.update(mine.answers)
            self._loaded[index] = merged
            payload = {"version": self.VERSION, "entries": merged.entries}
            if merged.answers:
                payload["answers"] = merged.answers
            if stats is not None:
                payload["oracle_stats"] = stats
            text = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ) + "\n"
            return write_atomic(path, text)

    def __len__(self) -> int:
        return sum(
            len(self._shard(index).entries) for index in range(self.shards)
        )


# ----------------------------------------------------------------------
# Evaluation.
# ----------------------------------------------------------------------


class _CandidateTimeout(Exception):
    """Raised inside :func:`_deadline` when the wall clock expires."""


@contextmanager
def _deadline(timeout_s: Optional[float]):
    """Bound a candidate evaluation by wall-clock time.

    Uses ``SIGALRM``/``setitimer``, so it only arms on the main thread
    of a Unix process (exactly where oracle evaluation runs — in the
    driving process or inside forked workers); anywhere else it is a
    no-op rather than a crash. Nested use keeps the outer timer.
    """
    if not timeout_s or timeout_s <= 0:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    if signal.getitimer(signal.ITIMER_REAL)[0] > 0:
        yield  # an enclosing deadline is already armed
        return

    def _expired(_signum, _frame):
        raise _CandidateTimeout()

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def evaluate_one(
    assignment: Assignment,
    cluster: Cluster,
    decision: Decision,
    params: MachineParams,
    memory: MemoryKind,
    mode: str,
    check_capacity: bool,
    timeout_s: Optional[float] = None,
) -> EvalOutcome:
    """Realize, compile, and simulate one candidate (mutates the
    assignment's tensor formats; pass a private copy). Static pruning
    is the caller's: see :meth:`Oracle.prune_reason`.

    ``timeout_s`` bounds the candidate's wall-clock evaluation: a stuck
    realize/compile/simulate returns an infeasible outcome whose
    ``error`` names the timeout (counted in :attr:`Oracle.errors`)
    instead of hanging the whole tune.
    """
    try:
        with _deadline(timeout_s):
            with span("oracle.realize"):
                machine = Machine(cluster, Grid(*decision.grid))
                schedule, _formats = realize(
                    assignment, machine, decision, memory=memory
                )
                kernel = compile_kernel(schedule, machine)
            with span("oracle.simulate"):
                misses = SIM_CACHE.misses
                report = SIM_CACHE.simulate(
                    kernel, params, check_capacity, mode
                )
    except _CandidateTimeout:
        return EvalOutcome(
            decision=decision,
            cost=INFEASIBLE,
            error=(
                f"Timeout: candidate exceeded {timeout_s:g}s wall-clock"
            ),
        )
    except OutOfMemoryError:
        return EvalOutcome(decision=decision, cost=INFEASIBLE, oom=True)
    except (ReproError, ValueError) as err:
        return EvalOutcome(
            decision=decision,
            cost=INFEASIBLE,
            error=f"{type(err).__name__}: {err}",
        )
    return EvalOutcome(
        decision=decision,
        cost=report.total_time,
        comm_time=report.comm_time,
        compute_time=report.compute_time,
        inter_node_bytes=report.inter_node_bytes,
        max_memory_bytes=float(report.max_memory_bytes),
        num_steps=int(report.num_steps),
        executed=SIM_CACHE.misses > misses,
    )


def tuner_eval_batch(
    assignment: Assignment,
    cluster: Cluster,
    decisions: Sequence[Decision],
    params: MachineParams,
    memory: MemoryKind,
    mode: str,
    check_capacity: bool,
    timeout_s: Optional[float] = None,
) -> List[EvalOutcome]:
    """One sweep point: simulate a chunk of candidates (the oracle has
    already settled their static verdicts).

    Registered with :mod:`repro.bench.parallel` so the driver can
    dispatch it by name; the worker's new simulation-cache entries ride
    back with the rows and merge into the parent's cache.
    """
    work = copy.deepcopy(assignment)
    return [
        evaluate_one(
            work, cluster, decision, params, memory, mode,
            check_capacity, timeout_s=timeout_s,
        )
        for decision in decisions
    ]


register_sweep("tuner_eval_batch", tuner_eval_batch)


class Oracle:
    """Scores decision vectors for one (workload, cluster, params).

    ``jobs > 1`` spreads candidate chunks over forked workers through
    the shared sweep driver; the ledger (when given) is consulted
    before simulating and extended afterwards.
    """

    def __init__(
        self,
        cluster: Cluster,
        params: MachineParams = LASSEN,
        memory: Optional[MemoryKind] = None,
        mode: str = "orbit",
        check_capacity: bool = True,
        jobs: int = 1,
        ledger: Optional[TuningLedger] = None,
        static_prune: bool = True,
        timeout_s: Optional[float] = None,
    ):
        self.cluster = cluster
        self.params = params
        if memory is None:
            memory = (
                MemoryKind.GPU_FB
                if cluster.processor_kind is ProcessorKind.GPU
                else MemoryKind.SYSTEM_MEM
            )
        self.memory = memory
        self.mode = mode
        self.check_capacity = check_capacity
        self.jobs = max(1, jobs)
        self.ledger = ledger
        self.static_prune = static_prune
        #: Per-candidate wall-clock bound (None = unbounded). A stuck
        #: simulation becomes an infeasible, error-carrying outcome
        #: instead of a hung tune.
        self.timeout_s = timeout_s
        self.simulated = 0
        #: Candidates whose compile or simulation *errored* — OOMs are a
        #: legitimate search outcome and do not count.
        self.errors = 0
        #: Candidates rejected by the static analyzer without a single
        #: simulation (see :mod:`repro.analysis.prune`).
        self.pruned_static = 0
        #: Incrementality accounting. ``scored`` counts every decision
        #: requested (seed-deterministic — what goes into the ledger);
        #: ``trace_executions`` the candidates that missed ``SIM_CACHE``
        #: (cache-state dependent).
        self.scored = 0
        self.trace_executions = 0
        #: Static verdicts computed so far in this tune.
        self.prune_memo = PruneMemo()

    def for_cluster(self, cluster: Cluster) -> "Oracle":
        """A sibling oracle on a different (e.g. coarsened) cluster,
        sharing this one's static verdicts."""
        sibling = Oracle(
            cluster,
            params=self.params,
            memory=self.memory,
            mode=self.mode,
            check_capacity=self.check_capacity,
            jobs=self.jobs,
            ledger=self.ledger,
            static_prune=self.static_prune,
            timeout_s=self.timeout_s,
        )
        sibling.prune_memo = self.prune_memo
        return sibling

    def prune_reason(
        self, assignment: Assignment, decision: Decision
    ) -> Optional[str]:
        """Why ``decision`` need not be simulated here, or ``None``
        (always ``None`` with static pruning off)."""
        if not self.static_prune:
            return None
        return prune_reason(
            assignment,
            decision,
            self.cluster,
            self.memory,
            params=self.params,
            check_capacity=self.check_capacity,
            memo=self.prune_memo,
        )

    def evaluate(
        self, assignment: Assignment, decisions: Sequence[Decision]
    ) -> List[EvalOutcome]:
        """Outcomes for ``decisions``, in input order."""
        with span("oracle.evaluate"):
            return self._evaluate(assignment, decisions)

    def _evaluate(
        self, assignment: Assignment, decisions: Sequence[Decision]
    ) -> List[EvalOutcome]:
        before = {
            name: getattr(self, name)
            for name in (
                "scored", "simulated", "pruned_static", "errors",
                "trace_executions",
            )
        }
        ledger_before = (
            (self.ledger.hits, self.ledger.misses)
            if self.ledger is not None else (0, 0)
        )
        wsig = workload_signature(
            assignment,
            self.cluster,
            self.params,
            self.memory,
            self.mode,
            self.check_capacity,
        )
        outcomes: Dict[Decision, EvalOutcome] = {}
        pending: List[Decision] = []
        queued = set()
        for decision in decisions:
            if decision in outcomes or decision in queued:
                continue
            hit = None
            if self.ledger is not None:
                hit = self.ledger.get(wsig, decision)
            if hit is not None:
                self.ledger.hits += 1
                outcomes[decision] = hit
                if hit.pruned:
                    self.pruned_static += 1
                elif hit.error and not hit.oom:
                    self.errors += 1
            else:
                if self.ledger is not None:
                    self.ledger.misses += 1
                pending.append(decision)
                queued.add(decision)
        self.scored += len(decisions)
        if pending:
            for outcome in self._evaluate_pending(assignment, pending):
                outcomes[outcome.decision] = outcome
                if outcome.pruned:
                    self.pruned_static += 1
                elif outcome.error and not outcome.oom:
                    self.errors += 1
                self.trace_executions += outcome.executed
                if self.ledger is not None:
                    self.ledger.put(wsig, outcome)
            self.simulated += len(pending)
            if self.ledger is not None:
                self.ledger.save(stats=self.stats())
        for name, prev in before.items():
            METRICS.inc(f"oracle.{name}", getattr(self, name) - prev)
        if self.ledger is not None:
            METRICS.inc(
                "oracle.ledger_hits", self.ledger.hits - ledger_before[0]
            )
            METRICS.inc(
                "oracle.ledger_misses",
                self.ledger.misses - ledger_before[1],
            )
        return [outcomes[d] for d in decisions]

    def stats(self) -> Dict[str, int]:
        """Deterministic incrementality counters for the ledger.

        Derived from the search's decisions rather than cache state, so
        equal-seed runs write equal stats.
        """
        return {
            "scored": self.scored,
            "simulated": self.simulated,
            "pruned_static": self.pruned_static,
            "ledger_hits": (
                self.ledger.hits if self.ledger is not None else 0
            ),
            "ledger_misses": (
                self.ledger.misses if self.ledger is not None else 0
            ),
        }

    def merge_counters(self, other: "Oracle"):
        """Fold a sibling (coarse-rung) oracle's accounting into ours."""
        self.simulated += other.simulated
        self.errors += other.errors
        self.pruned_static += other.pruned_static
        self.scored += other.scored
        self.trace_executions += other.trace_executions

    def _evaluate_pending(
        self, assignment: Assignment, pending: List[Decision]
    ) -> List[EvalOutcome]:
        # Static verdicts are settled here, against the memo, so only
        # candidates that need a simulation reach the workers.
        outcomes: Dict[Decision, EvalOutcome] = {}
        survivors: List[Decision] = []
        for decision in pending:
            reason = self.prune_reason(assignment, decision)
            if reason is None:
                survivors.append(decision)
            else:
                outcomes[decision] = EvalOutcome.pruned_by(decision, reason)
        common = dict(
            assignment=assignment,
            cluster=self.cluster,
            params=self.params,
            memory=self.memory,
            mode=self.mode,
            check_capacity=self.check_capacity,
            timeout_s=self.timeout_s,
        )
        if self.jobs <= 1 or len(survivors) <= 1:
            # In-process: evaluate against a private copy so the
            # caller's tensor formats are not clobbered mid-search.
            simulated = tuner_eval_batch(decisions=survivors, **common)
        else:
            chunks = min(self.jobs * 4, len(survivors))
            per_point = [
                dict(common, decisions=survivors[c::chunks])
                for c in range(chunks)
            ]
            simulated = run_points("tuner_eval_batch", per_point, self.jobs)
        for outcome in simulated:
            outcomes[outcome.decision] = outcome
        return [outcomes[d] for d in pending]
