"""The tuner's cost oracle: batched, cached, parallel simulation.

Candidates are scored by compiling and simulating them through
``Kernel.simulate(mode="orbit")`` — the orbit-compressed executor PRs
1–2 made fast precisely so it can be queried thousands of times. Four
layers keep re-evaluation cheap:

* one candidate per index-symmetry class is simulated, and the others
  get its outcome (:meth:`Oracle._evaluate_pending`); a search that
  keeps only its best few outcomes visits the classes in order of a
  static time lower bound and skips those the bound proves cannot
  place (:meth:`Oracle.evaluate_top`);
* the process-global :data:`~repro.bench.cache.SIM_CACHE` memoizes
  ``(plan, machine, params, mode)`` so identical candidates (canonical
  representatives, repeated tunes) simulate once. It is the oracle's
  only simulation memo: every candidate is scored by one
  ``SIM_CACHE.simulate`` call, the same ``Kernel.simulate`` path the
  figures take;
* batches fan out over the sweep supervisor
  (:mod:`repro.bench.parallel`), whose forked slot children inherit
  the warm cache and ship their deltas back;
* a persistent :class:`TuningLedger` (one JSON file, or a directory of
  JSON shards, each with an fsync'd append-only journal) maps
  ``workload-signature/decision`` to the simulated summary, so a
  re-tune — same workload, same params — replays from disk without
  simulating anything.
"""

from __future__ import annotations

import bisect
import copy
import hashlib
import json
import math
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.prune import PruneMemo, STATIC_OOM, prune_reason
from repro.bench.cache import SIM_CACHE, cluster_signature, params_key
from repro.bench.parallel import register_sweep, run_points
from repro.core.kernel import compile_kernel
from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.obs.metrics import METRICS
from repro.obs.spans import span
from repro.sim.params import LASSEN, MachineParams
from repro.tuner.space import (
    Decision,
    index_symmetries,
    realize,
    symmetry_representative,
)
from repro.util.errors import OutOfMemoryError, ReproError
from repro.util.fileio import fsync_dir, locked, write_all, write_atomic

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
) -> str:
    """Stable identity of one tuning problem (the ledger's namespace).

    The trailing ``"orbit"`` and ``True`` hash the executor mode and
    capacity check every tune runs with; they stay in the key so
    existing ledgers keep their signatures.
    """
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
            "orbit",
            True,
        )
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


#: A ledger root's manifest file, pinning its shard count.
MANIFEST = "MANIFEST.json"
#: Shard count of a fresh ledger root (an existing manifest wins).
ROOT_SHARDS = 8
#: A shard is compacted once its journal outgrows ``max(snapshot
#: bytes, COMPACT_FLOOR)``; the floor keeps a fresh shard (an empty
#: snapshot) from being compacted on every append.
COMPACT_FLOOR = 1 << 20


def _journal(path: Path) -> Path:
    """The append-only journal beside shard snapshot ``path``."""
    return path.with_name(path.name + ".journal")


def _identity(path: Path):
    """Snapshot ``path``'s identity, ``None`` when unreadable. Compaction
    replaces the file, so a changed identity means another process
    compacted the shard."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _open_journal(path: Path) -> Optional[int]:
    """A read-only descriptor on journal ``path`` (``None`` when it
    does not exist)."""
    try:
        return os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None


def _compact_json(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Shard:
    """One shard as replayed: its records, the ``oracle_stats`` of the
    last save (``None`` when that save passed none), and what the
    replay read."""

    __slots__ = ("entries", "answers", "stats", "snapshot", "journal",
                 "offset")

    def __init__(self, entries: Dict[str, Dict], answers: Dict[str, Dict],
                 stats: Optional[Dict] = None):
        self.entries = entries
        self.answers = answers
        self.stats = stats
        #: The replayed snapshot's :func:`_identity`.
        self.snapshot = None
        #: The replayed journal's inode (``None`` when there was none)
        #: and how many of its bytes were replayed: always the end of
        #: a complete line.
        self.journal: Optional[int] = None
        self.offset = 0


class _Pending:
    """One shard's records put since its last append, and the stats of
    the last :meth:`TuningLedger.save` that covered them."""

    __slots__ = ("entries", "answers", "stats")

    def __init__(self):
        self.entries: set = set()
        self.answers: set = set()
        self.stats: Optional[Dict] = None


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

    Each shard is a *snapshot* (the file above) plus an append-only
    *journal* beside it (``<shard>.journal``), as in a log-structured
    merge tree. A :meth:`save` appends, per shard it changed, one JSON
    line holding the records put since the last save and that save's
    ``stats``, as one ``O_APPEND`` write and one fsync under the
    shard's advisory lock; nothing is re-read or re-serialized, so a
    save costs what it adds. A load replays the journal's complete
    lines over the snapshot, and :meth:`refresh` reads only the bytes
    other processes appended since. Once a journal outgrows
    ``max(snapshot bytes, COMPACT_FLOOR)``, the save that grew it
    *compacts* the shard: the sorted snapshot is rewritten through a
    temp file and ``os.replace``, and the journal is removed. Every CLI
    that writes a ledger compacts at exit (:meth:`compact`), so equal
    tuning runs leave byte-identical snapshots and no journal.
    Inside :meth:`group_commit` saves defer their appends to the end of
    the block: one append and fsync per shard touched.

    Durability: a record is on disk once the save that covered it
    returned True. A crashed append can only leave a torn last line;
    loads ignore it, and the next save cuts it off under the lock
    (``ledger.torn_lines``) before appending after it.

    Snapshot loads are crash-hardened: a corrupt snapshot (stray
    editor, disk-full truncation, a filesystem without atomic replace)
    is *salvaged* — every entry record that still parses is kept, and
    the next save rewrites the snapshot — and the damaged original is
    quarantined to ``<shard>.corrupt`` for inspection, so one bad byte
    never silently discards a night of tuning.
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
        #: Entries recovered from corrupt snapshots (each original was
        #: quarantined to ``<shard>.corrupt``) or journal lines.
        self.salvaged = 0
        p = self.path
        is_root = p is not None and (
            p.is_dir() or (not p.exists() and p.suffix != ".json")
        )
        #: The root's manifest file (``None`` for a one-shard ledger).
        self.manifest = p / MANIFEST if is_root else None
        self.shards = self._resolve_shard_count() if is_root else 1
        self._loaded: List[Optional[_Shard]] = [None] * self.shards
        #: Per shard, the records put since its last append.
        self._pending: Dict[int, _Pending] = {}
        #: Shards put into since the last :meth:`save` call.
        self._unsaved: set = set()
        #: Shards whose snapshot was salvaged: the next save rewrites it.
        self._heal: set = set()
        #: Inside :meth:`group_commit`: saves defer their appends.
        self._deferred = False
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
        """Shard ``index`` as on disk: the snapshot, then the journal's
        complete lines replayed over it. The journal is opened first,
        so a compaction racing this read leaves an old journal over a
        new snapshot, which replays to the same records."""
        path = self._shard_path(index)
        if path is None:
            return _Shard({}, {})
        try:
            fd = _open_journal(_journal(path))
        except OSError:
            fd = None
        shard = self._parse(index, path)
        try:
            if fd is not None:
                st = os.fstat(fd)
                data = os.pread(fd, st.st_size, 0)
                shard.journal = st.st_ino
                self._replay(shard, data)
        except OSError:
            pass  # an unreadable journal: the snapshot alone
        finally:
            if fd is not None:
                os.close(fd)
        return shard

    def _parse(self, index: int, path: Path) -> _Shard:
        """Shard ``index`` as its snapshot at ``path`` holds it.
        Salvaging a corrupt file recovers entries only — answers are
        re-derivable from a re-tune, entries are the expensive part —
        and marks the snapshot for rewriting."""
        try:
            with open(path, "rb") as handle:
                st = os.fstat(handle.fileno())
                text = handle.read().decode(errors="replace")
        except OSError:
            shard = _Shard({}, {})
            shard.snapshot = _identity(path)
            return shard
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            entries = self._salvage(text)
            self.salvaged += len(entries)
            self._quarantine(path, text)
            self._heal.add(index)
            shard = _Shard(entries, {})
        else:
            shard = _Shard({}, {})
            if isinstance(data, dict) and isinstance(data.get("entries"),
                                                     dict):
                answers = data.get("answers")
                shard = _Shard(
                    data["entries"],
                    answers if isinstance(answers, dict) else {},
                    data.get("oracle_stats"),
                )
        shard.snapshot = (st.st_ino, st.st_size, st.st_mtime_ns)
        return shard

    def _replay(self, shard: _Shard, data: bytes):
        """Apply the complete journal lines in ``data`` (the bytes at
        ``shard.offset``) in order, and advance the offset past them;
        an incomplete last line is left unread. A complete line that
        does not parse is salvaged like a corrupt snapshot."""
        end = data.rfind(b"\n") + 1
        for line in data[:end].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            entries = answers = None
            if isinstance(record, dict):
                entries = record.get("entries", {})
                answers = record.get("answers", {})
            if not (isinstance(entries, dict) and isinstance(answers, dict)):
                salvaged = self._salvage(line.decode(errors="replace"))
                self.salvaged += len(salvaged)
                shard.entries.update(salvaged)
                continue
            shard.entries.update(entries)
            shard.answers.update(answers)
            shard.stats = record.get("oracle_stats")
        shard.offset += end

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

    def _put(self, index: int, field: str, key: str, record: Dict):
        getattr(self._shard(index), field)[key] = record
        if self.path is None:
            return
        pending = self._pending.get(index)
        if pending is None:
            pending = self._pending[index] = _Pending()
        getattr(pending, field).add(key)
        self._unsaved.add(index)

    def put(self, wsig: str, outcome: EvalOutcome):
        key = f"{wsig}/{outcome.decision.encode()}"
        self._put(self._route(wsig), "entries", key, outcome.to_record())

    def get_answer(self, fingerprint: str) -> Optional[Dict]:
        return self._shard(self._route(fingerprint)).answers.get(fingerprint)

    def put_answer(self, fingerprint: str, record: Dict):
        """Store a serving answer record ``{"request": ..., "answer":
        ...}`` under its request fingerprint."""
        self._put(self._route(fingerprint), "answers", fingerprint, record)

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
            self._put(self._route(key.split("/", 1)[0]), "entries", key,
                      record)
        for fingerprint, record in source.answers.items():
            self.put_answer(fingerprint, record)

    def reload(self):
        """Drop the in-memory state (unsaved records too) and re-read
        shards on next use."""
        self._loaded = [None] * self.shards
        self._pending.clear()
        self._unsaved.clear()
        self._heal.clear()

    def refresh(self):
        """Bring every loaded shard up to date with other processes'
        saves, reading only the journal bytes past this ledger's
        offset (a whole shard only after another process compacted
        it). Unsaved records here are kept and win over theirs — a
        long-lived reader, such as a serve worker between misses."""
        for index, shard in enumerate(self._loaded):
            if shard is not None:
                try:
                    self._refresh(index)
                except OSError:
                    pass  # unreadable right now: keep what we hold

    def _refresh(self, index: int):
        shard = self._loaded[index]
        path = self._shard_path(index)
        fd = _open_journal(_journal(path))
        try:
            st = os.fstat(fd) if fd is not None else None
            inode = st.st_ino if st is not None else None
            size = st.st_size if st is not None else 0
            if (_identity(path) != shard.snapshot
                    or shard.journal not in (None, inode)
                    or size < shard.offset):
                # Another process compacted the shard: replay it anew.
                fresh = self._loaded[index] = self._read(index)
                self._restore(fresh, self._own(index, shard))
                return
            shard.journal = inode
            if size > shard.offset:
                own = self._own(index, shard)
                self._replay(
                    shard, os.pread(fd, size - shard.offset, shard.offset)
                )
                self._restore(shard, own)
        finally:
            if fd is not None:
                os.close(fd)

    def _own(self, index: int, shard: _Shard):
        """This ledger's unappended records of shard ``index``."""
        pending = self._pending.get(index)
        if pending is None:
            return None
        return (
            {key: shard.entries[key] for key in pending.entries},
            {key: shard.answers[key] for key in pending.answers},
        )

    @staticmethod
    def _restore(shard: _Shard, own):
        """Re-apply :meth:`_own`'s records after a replay: ours win on
        key conflicts (evaluation is deterministic, so conflicting
        records are equal anyway)."""
        if own is not None:
            shard.entries.update(own[0])
            shard.answers.update(own[1])

    # -- persistence ---------------------------------------------------

    def save(self, stats: Optional[Dict] = None) -> bool:
        """Persist every changed shard; returns False when the path is
        unset or any write failed (inside :meth:`group_commit`, True:
        the appends wait for the end of the block).

        Each changed shard gets one journal append (see the class
        docstring), made under the shard's advisory lock after reading
        the lines other processes appended since, so concurrent tunes
        sharing one ledger never drop each other's work.

        ``stats`` (the oracle's hit counts; see :meth:`Oracle.stats`)
        rides in the appended lines as ``"oracle_stats"``, and a
        compacted snapshot carries the last save's (none when that save
        passed none) — counters are derived from candidate
        fingerprints, not cache state, so equal-seed runs still write
        byte-identical ledgers.
        """
        if self.path is None:
            return False
        for index in self._unsaved:
            self._pending[index].stats = stats
        self._unsaved.clear()
        if self._deferred:
            return True
        return self._commit()

    @contextmanager
    def group_commit(self):
        """Defer the appends of every save inside the block to its end
        (also when it raises): one append and one fsync per shard
        touched, however many saves the block made."""
        self._deferred = True
        try:
            yield self
        finally:
            self._deferred = False
            self._commit()

    def _commit(self) -> bool:
        ok = True
        for index in sorted(self._pending.keys() | self._heal):
            if not self._persist(index):
                self.save_failures += 1
                ok = False
        return ok

    def _persist(self, index: int, compact: bool = False) -> bool:
        """Under shard ``index``'s lock: catch up with other processes'
        appends, cut a torn tail, append the shard's pending records as
        one line, and compact when due (or when ``compact``)."""
        path = self._shard_path(index)
        journal = _journal(path)
        pending = self._pending.get(index)
        try:
            with locked(path):
                self._shard(index)
                self._refresh(index)
                shard = self._loaded[index]
                self._cut_torn_tail(journal, shard)
                if pending is not None:
                    self._append(journal, shard, pending)
                    del self._pending[index]
                    self._unsaved.discard(index)
                limit = max(
                    shard.snapshot[1] if shard.snapshot else 0,
                    COMPACT_FLOOR,
                )
                if compact or index in self._heal or shard.offset > limit:
                    return self._compact(index, path, journal, shard)
        except OSError:
            return False
        return True

    @staticmethod
    def _cut_torn_tail(journal: Path, shard: _Shard):
        """Under the lock nobody appends, so journal bytes past the
        replayed offset are a crashed append's torn last line."""
        try:
            size = os.stat(journal).st_size
        except FileNotFoundError:
            return
        if size > shard.offset:
            os.truncate(journal, shard.offset)
            METRICS.inc("ledger.torn_lines")

    @staticmethod
    def _append(journal: Path, shard: _Shard, pending: _Pending):
        body: Dict = {}
        if pending.entries:
            body["entries"] = {k: shard.entries[k] for k in pending.entries}
        if pending.answers:
            body["answers"] = {k: shard.answers[k] for k in pending.answers}
        if pending.stats is not None:
            body["oracle_stats"] = pending.stats
        line = (_compact_json(body) + "\n").encode()
        fd = os.open(journal, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            write_all(fd, line)
            os.fsync(fd)
            st = os.fstat(fd)
        finally:
            os.close(fd)
        if shard.journal is None:
            fsync_dir(journal.parent)  # the new journal's name, too
        if st.st_size == shard.offset + len(line):
            shard.offset = st.st_size  # else replayed by the next refresh
        shard.journal = st.st_ino
        shard.stats = pending.stats
        METRICS.inc("ledger.appends")
        METRICS.inc("ledger.append_bytes", len(line))

    def _compact(self, index: int, path: Path, journal: Path,
                 shard: _Shard) -> bool:
        """Rewrite shard ``index``'s snapshot from its replayed records
        and remove the journal (the caller holds the lock). A crash
        between the two leaves the old journal over the new snapshot,
        which replays to the same records."""
        payload = {"version": self.VERSION, "entries": shard.entries}
        if shard.answers:
            payload["answers"] = shard.answers
        if shard.stats is not None:
            payload["oracle_stats"] = shard.stats
        if not write_atomic(path, _compact_json(payload) + "\n"):
            return False
        try:
            os.unlink(journal)
        except FileNotFoundError:
            pass
        shard.snapshot = _identity(path)
        shard.journal = None
        shard.offset = 0
        self._heal.discard(index)
        METRICS.inc("ledger.compactions")
        return True

    def compact(self) -> bool:
        """Commit what is pending, then fold every non-empty journal
        into its snapshot. Every CLI that writes a ledger calls this at
        exit, so the snapshots it leaves are byte-identical to what
        rewriting whole shards on every save wrote."""
        if self.path is None:
            return False
        ok = self._commit()
        for index in range(self.shards):
            journal = _journal(self._shard_path(index))
            try:
                if os.stat(journal).st_size == 0:
                    continue
            except FileNotFoundError:
                continue
            except OSError:
                pass  # let the locked attempt report it
            if not self._persist(index, compact=True):
                self.save_failures += 1
                ok = False
        return ok

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


def grid_machine(
    machines: Dict[tuple, Machine], cluster: Cluster, grid: tuple
) -> Machine:
    """The one machine of shape ``grid`` on ``cluster`` in ``machines``
    (a tune's per-grid table), built on first use.

    Candidates on one grid share it, and with it the orbit executor's
    machine tables (:func:`~repro.runtime.orbit_state.machine_tables`).
    """
    machine = machines.get(grid)
    if machine is None:
        machine = machines[grid] = Machine(cluster, Grid(*grid))
    return machine


def evaluate_one(
    assignment: Assignment,
    cluster: Cluster,
    decision: Decision,
    params: MachineParams,
    memory: MemoryKind,
    machine: Machine,
    timeout_s: Optional[float] = None,
) -> EvalOutcome:
    """Realize, compile, and simulate one candidate (mutates the
    assignment's tensor formats; pass a private copy). Static pruning
    is the caller's: see :meth:`Oracle.prune_reason`.

    ``machine`` is the decision's grid on ``cluster``
    (:func:`grid_machine`). ``timeout_s`` bounds the candidate's wall-clock
    evaluation: a stuck realize/compile/simulate returns an infeasible
    outcome whose ``error`` names the timeout (counted in
    :attr:`Oracle.errors`) instead of hanging the whole tune.
    """
    try:
        with _deadline(timeout_s):
            with span("oracle.realize"):
                schedule, _formats = realize(
                    assignment, machine, decision, memory=memory
                )
                kernel = compile_kernel(schedule, machine)
            with span("oracle.simulate"):
                misses = SIM_CACHE.misses
                report = SIM_CACHE.simulate(kernel, params)
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
    timeout_s: Optional[float] = None,
) -> List[EvalOutcome]:
    """One sweep point: simulate a chunk of candidates (the oracle has
    already settled their static verdicts).

    The chunk's candidates share one machine per grid
    (:func:`grid_machine`). Registered with :mod:`repro.bench.parallel`
    so ``run_points`` can dispatch it by name; the worker's new
    simulation-cache entries ride back with the rows and merge into the
    parent's cache.
    """
    machines: Dict[tuple, Machine] = {}
    work = copy.deepcopy(assignment)
    return [
        evaluate_one(
            work, cluster, decision, params, memory,
            grid_machine(machines, cluster, decision.grid),
            timeout_s=timeout_s,
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
        jobs: int = 1,
        ledger: Optional[TuningLedger] = None,
        timeout_s: Optional[float] = None,
    ):
        self.cluster = cluster
        self.params = params
        if memory is None:
            memory = cluster.default_memory
        self.memory = memory
        self.jobs = max(1, jobs)
        self.ledger = ledger
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
        #: Candidates given their index-symmetry class leader's outcome
        #: instead of a simulation of their own (see
        #: :meth:`_evaluate_pending`).
        self.symmetry_shared = 0
        #: Candidates :meth:`evaluate_top` skipped because their time
        #: lower bound proved they cannot place (no ledger entry, and
        #: not counted in :attr:`simulated`).
        self.bound_skipped = 0
        #: Node-0 walks computed so far in this tune: the static prune
        #: verdicts and the time lower bounds read them.
        self.prune_memo = PruneMemo()
        #: This tune's one machine per grid shape on ``cluster``
        #: (:func:`grid_machine`).
        self.machines: Dict[tuple, Machine] = {}

    def machine(self, grid: tuple) -> Machine:
        """The tune's machine of shape ``grid`` on this cluster."""
        return grid_machine(self.machines, self.cluster, grid)

    def prune_reason(
        self, assignment: Assignment, decision: Decision
    ) -> Optional[str]:
        """Why ``decision`` need not be simulated here, or ``None``."""
        return prune_reason(
            assignment,
            decision,
            self.cluster,
            self.memory,
            params=self.params,
            memo=self.prune_memo,
            machine=self.machine(decision.grid),
        )

    def evaluate(
        self, assignment: Assignment, decisions: Sequence[Decision]
    ) -> List[EvalOutcome]:
        """Outcomes for ``decisions``, in input order."""
        with span("oracle.evaluate"):
            return self._evaluate(assignment, decisions)

    def evaluate_top(
        self,
        assignment: Assignment,
        decisions: Sequence[Decision],
        keep: int,
        first: Decision,
    ) -> List[EvalOutcome]:
        """Outcomes, in input order, for every decision of ``decisions``
        that can rank among the ``keep`` best by ``(cost, key)``.

        ``first``'s symmetry class is simulated first; the other
        classes follow in order of their time lower bound, and the
        search stops at the first class whose bound exceeds the
        ``keep``-th best cost known (:meth:`_simulate_leaders`). A
        skipped candidate costs at least its bound, so ranking the
        returned outcomes gives the ``keep`` best of ``decisions``
        exactly; skipped ones are left out and counted in
        :attr:`bound_skipped`.
        """
        with span("oracle.evaluate"):
            return self._evaluate(assignment, decisions, (keep, first))

    def _evaluate(
        self,
        assignment: Assignment,
        decisions: Sequence[Decision],
        top: Optional[tuple] = None,
    ) -> List[EvalOutcome]:
        before = {
            name: getattr(self, name)
            for name in (
                "scored", "simulated", "pruned_static", "errors",
                "trace_executions", "symmetry_shared", "bound_skipped",
            )
        }
        ledger_before = (
            (self.ledger.hits, self.ledger.misses)
            if self.ledger is not None else (0, 0)
        )
        wsig = workload_signature(
            assignment, self.cluster, self.params, self.memory
        )
        outcomes: Dict[Decision, EvalOutcome] = {}
        pending: List[Decision] = []
        queued = set()
        #: Feasible costs known before any simulation.
        known: List[float] = []
        for decision in decisions:
            if decision in outcomes or decision in queued:
                continue
            hit = None
            if self.ledger is not None:
                hit = self.ledger.get(wsig, decision)
            if hit is not None:
                self.ledger.hits += 1
                outcomes[decision] = hit
                if hit.feasible:
                    known.append(hit.cost)
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
            if top is not None and len(decisions) <= top[0]:
                top = None  # nothing can fall out of the top
            scored = self._evaluate_pending(assignment, pending, top, known)
            self.bound_skipped += len(pending) - len(scored)
            for outcome in scored:
                outcomes[outcome.decision] = outcome
                if outcome.pruned:
                    self.pruned_static += 1
                elif outcome.error and not outcome.oom:
                    self.errors += 1
                self.trace_executions += outcome.executed
                if self.ledger is not None:
                    self.ledger.put(wsig, outcome)
            self.simulated += len(scored)
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
        return [outcomes[d] for d in decisions if d in outcomes]

    def stats(self) -> Dict[str, int]:
        """Deterministic incrementality counters for the ledger.

        Derived from the search's decisions rather than cache state, so
        equal-seed runs write equal stats.
        """
        return {
            "scored": self.scored,
            "simulated": self.simulated,
            "pruned_static": self.pruned_static,
            "bound_skipped": self.bound_skipped,
            "ledger_hits": (
                self.ledger.hits if self.ledger is not None else 0
            ),
            "ledger_misses": (
                self.ledger.misses if self.ledger is not None else 0
            ),
        }

    def _evaluate_pending(
        self,
        assignment: Assignment,
        pending: List[Decision],
        top: Optional[tuple] = None,
        known: Sequence[float] = (),
    ) -> List[EvalOutcome]:
        """Outcomes for ``pending``, simulating one member per
        index-symmetry class.

        Static verdicts are settled first, against the memo, so only
        candidates that need a simulation reach the workers. The
        survivors are then grouped by
        :func:`~repro.tuner.space.symmetry_representative`: only each
        class's least-key member is simulated, and every other member
        gets its outcome with its own ``decision`` and
        ``executed=False`` (counted in :attr:`symmetry_shared`). A class
        differs only in which variable each grid dimension distributes
        (:func:`~repro.tuner.space.index_symmetries`), so its members
        simulate alike; a non-OOM error names its decision's variables,
        so the members of an erroring class are simulated themselves.

        With ``top = (keep, first)`` (:meth:`evaluate_top`), classes
        are visited in bound order and the ones proven out of the top
        ``keep`` get no outcome; ``known`` holds the feasible costs of
        the call's ledger hits.
        """
        outcomes: Dict[Decision, EvalOutcome] = {}
        classes: Dict[Decision, List[Decision]] = {}
        symmetries = index_symmetries(assignment)
        for decision in pending:
            reason = self.prune_reason(assignment, decision)
            if reason is None:
                rep = symmetry_representative(decision, symmetries)
                classes.setdefault(rep, []).append(decision)
            else:
                outcomes[decision] = EvalOutcome.pruned_by(decision, reason)
        leaders = {
            min(members, key=Decision.key): members
            for members in classes.values()
        }
        work = copy.deepcopy(assignment) if leaders else None
        if top is None:
            simulated = self._simulate(assignment, work, list(leaders))
        else:
            keep, first = top
            seed_class = classes.get(
                symmetry_representative(first, symmetries), ()
            )
            simulated = self._simulate_leaders(
                assignment, work, leaders, keep,
                min(seed_class, key=Decision.key, default=None), known,
            )
        outcomes.update((o.decision, o) for o in simulated)
        unshared: List[Decision] = []
        for leader, members in leaders.items():
            outcome = outcomes.get(leader)
            if outcome is None:
                continue  # skipped by its bound
            others = [m for m in members if m != leader]
            if outcome.error and not outcome.oom:
                unshared += others
                continue
            for member in others:
                outcomes[member] = replace(
                    outcome, decision=member, executed=False
                )
            self.symmetry_shared += len(others)
        outcomes.update(
            (o.decision, o)
            for o in self._simulate(assignment, work, unshared)
        )
        return [outcomes[d] for d in pending if d in outcomes]

    def _simulate_leaders(
        self,
        assignment: Assignment,
        work: Assignment,
        leaders: Dict[Decision, List[Decision]],
        keep: int,
        first: Decision,
        known: Sequence[float],
    ) -> List[EvalOutcome]:
        """Simulate class ``leaders`` best bound first, stopping at the
        first whose :func:`~repro.analysis.timebound.time_lower_bound`
        is strictly above the ``keep``-th best feasible cost known.

        The class of ``first`` (the heuristic seed's representative)
        goes first, unconditionally. A simulated class contributes its
        cost once per member, as its members rank; ``known`` seeds the
        costs, so a re-tune from a ledger skips what the first tune
        skipped before simulating anything. Bound ties keep key order,
        the order the leaders would simulate in without a bound (the
        order matters while rotation siblings share a ``SIM_CACHE``
        entry; ROADMAP item 3). With ``jobs > 1`` the leaders no
        threshold can skip fan out over the workers first, then waves
        of ``jobs`` leaders; the threshold is re-read between waves.
        """
        best = sorted(known)[:keep]
        bounds = {
            d: self.prune_memo.time_lower_bound(
                assignment, d, self.cluster, self.params, self.memory,
                self.machine(d.grid),
            )
            for d in leaders
        }
        queue = [first] if first in leaders else []
        queue += sorted(
            (d for d in leaders if d != first),
            key=lambda d: (bounds[d], d.key()),
        )
        wave_size = self.jobs
        if self.jobs > 1:
            # No threshold falls below the keep-th smallest of the
            # bounds (once per member) and ledger costs, since every
            # cost is at least its bound: the leaders under that floor
            # simulate whatever happens, so they go out as one wave.
            floors = sorted(list(known) + [
                bounds[d] for d, members in leaders.items()
                for _ in range(min(len(members), keep))
            ])[:keep]
            floor = floors[-1] if len(floors) == keep else math.inf
            wave_size = max(wave_size, sum(
                1 for d in queue if d == first or bounds[d] <= floor
            ))
        simulated: List[EvalOutcome] = []
        pos = 0
        while pos < len(queue):
            limit = best[-1] if len(best) == keep else math.inf
            wave: List[Decision] = []
            while pos < len(queue) and len(wave) < wave_size:
                decision = queue[pos]
                if decision != first and bounds[decision] > limit:
                    break
                wave.append(decision)
                pos += 1
            if not wave:
                break
            wave_size = self.jobs
            for outcome in self._simulate(assignment, work, wave):
                simulated.append(outcome)
                if outcome.feasible:
                    members = len(leaders[outcome.decision])
                    for _ in range(min(members, keep)):
                        bisect.insort(best, outcome.cost)
                    del best[keep:]
        return simulated

    def _simulate(
        self,
        assignment: Assignment,
        work: Optional[Assignment],
        decisions: List[Decision],
    ) -> List[EvalOutcome]:
        """Simulated outcomes of ``decisions``: in-process against
        ``work`` (the evaluate call's private copy of ``assignment``, so
        the caller's tensor formats are not clobbered mid-search), or
        in chunks over forked workers when ``jobs > 1``."""
        if not decisions:
            return []
        if self.jobs <= 1 or len(decisions) <= 1:
            return [
                evaluate_one(
                    work, self.cluster, decision, self.params, self.memory,
                    self.machine(decision.grid), timeout_s=self.timeout_s,
                )
                for decision in decisions
            ]
        common = dict(
            assignment=assignment,
            cluster=self.cluster,
            params=self.params,
            memory=self.memory,
            timeout_s=self.timeout_s,
        )
        chunks = min(self.jobs * 4, len(decisions))
        per_point = [
            dict(common, decisions=decisions[c::chunks])
            for c in range(chunks)
        ]
        return run_points("tuner_eval_batch", per_point, self.jobs)
