"""Crash consistency of every ledger-root file (after Pillai et al.,
"All File Systems Are Not Created Equal", OSDI 2014).

An in-process shim over ``os.write``, ``os.fsync``, ``os.replace``,
``os.truncate`` and ``os.unlink`` numbers each call a persistence path
makes and cuts the run at one of them, before or after the call, by
raising :class:`Crash`. What is on disk at that moment is one state a
power cut can leave; two more come from the write the cut interrupted:
half of its bytes (a torn line), or none of them when the cut lands
before the fsync that would have made them durable. A rename that is
lost because the cut landed before its directory fsync leaves the
state of the cut just before the rename, which the sweep covers too.

After every cut, a reopened ledger returns every acknowledged record
(a save that returned True), holds nothing torn, reports
``salvaged == 0``, and its next save lands.
"""

import json
import os
import stat
from contextlib import contextmanager

import pytest

from repro.serve.supervise import QUARANTINE_FILE, QuarantineStore
from repro.tuner.oracle import MANIFEST, ROOT_SHARDS, TuningLedger
from repro.util.fileio import write_atomic

OPS = ("write", "fsync", "replace", "truncate", "unlink")


class Crash(BaseException):
    """A simulated power cut (not an ``OSError``: nothing handles it)."""


class Shim:
    """Counts and logs the shimmed calls; raises :class:`Crash` at call
    number ``cut`` (``when`` is ``"before"``, ``"after"`` or ``"torn"``:
    before the call, after it, or after writing half its bytes)."""

    def __init__(self, cut=None, when="before"):
        self.cut = cut
        self.when = when
        self.calls = 0
        self.log = []

    def wrap(self, name, real):
        def call(*args):
            index = self.calls
            self.calls += 1
            self.log.append(self._describe(name, args))
            if index == self.cut and self.when == "before":
                raise Crash(name)
            if index == self.cut and self.when == "torn":
                real(args[0], bytes(args[1])[: max(1, len(args[1]) // 2)])
                raise Crash(name)
            result = real(*args)
            if index == self.cut and self.when == "after":
                raise Crash(name)
            return result

        return call

    @staticmethod
    def _describe(name, args):
        if name == "fsync":
            mode = os.fstat(args[0]).st_mode
            return "fsync-dir" if stat.S_ISDIR(mode) else "fsync-file"
        return name


@contextmanager
def shimmed(monkeypatch, shim):
    with monkeypatch.context() as patch:
        for name in OPS:
            patch.setattr(os, name, shim.wrap(name, getattr(os, name)))
        yield shim


def _answer(i: int):
    return f"{i:016x}", {"request": {"i": i}, "answer": {"cost": float(i)}}


def _journal(path):
    return path.with_name(path.name + ".journal")


def _scenario(path, acked):
    """Two saves and a compaction of a one-shard ledger whose snapshot
    already holds answer 1. The first save creates the journal."""
    ledger = TuningLedger(path)
    for i in (2, 3):
        ledger.put_answer(*_answer(i))
        if ledger.save():
            acked.append(i)
    ledger.compact()


def _seed(path):
    ledger = TuningLedger(path)
    ledger.put_answer(*_answer(1))
    assert ledger.save() and ledger.compact()


def _ops(tmp_path, monkeypatch):
    path = tmp_path / "probe" / "ledger.json"
    path.parent.mkdir()
    _seed(path)
    with shimmed(monkeypatch, Shim()) as shim:
        _scenario(path, [])
    return shim.log


def _check(path, acked):
    reopened = TuningLedger(path)
    assert reopened.salvaged == 0
    answers = reopened.answers
    for i in [1, *acked]:
        assert answers[_answer(i)[0]] == _answer(i)[1]
    # Nothing torn: every record present is one that was put, intact.
    for fingerprint, record in answers.items():
        assert record == _answer(int(fingerprint, 16))[1]
    assert not path.with_name(path.name + ".corrupt").exists()
    # The ledger keeps working: the next save cuts any torn tail.
    reopened.put_answer(*_answer(9))
    assert reopened.save()
    again = TuningLedger(path)
    assert again.salvaged == 0
    assert set(again.answers) >= {_answer(i)[0] for i in [1, *acked, 9]}
    for line in _journal(path).read_bytes().splitlines():
        json.loads(line)


def test_shim_sees_the_durable_order(tmp_path, monkeypatch):
    """``write_atomic``: write, fsync the file, replace, fsync the
    directory. A journal's first append: write, fsync the file, fsync
    the directory that now names it."""
    with shimmed(monkeypatch, Shim()) as shim:
        assert write_atomic(tmp_path / "f.json", "{}\n")
    assert shim.log == ["write", "fsync-file", "replace", "fsync-dir"]
    log = _ops(tmp_path, monkeypatch)
    assert log == [
        "write", "fsync-file", "fsync-dir",              # save: new journal
        "write", "fsync-file",                           # save: append
        "write", "fsync-file", "replace", "fsync-dir",   # compact
        "unlink",
    ]


def test_every_cut_keeps_acknowledged_ledger_records(tmp_path, monkeypatch):
    log = _ops(tmp_path, monkeypatch)
    cases = [(k, when) for k in range(len(log))
             for when in ("before", "after")]
    cases += [(k, "torn") for k, op in enumerate(log) if op == "write"]
    cases += [(k, "lost") for k, op in enumerate(log)  # journal appends
              if op == "fsync-file" and log[k + 1] != "replace"]
    for n, (cut, when) in enumerate(cases):
        path = tmp_path / f"cut{n}" / "ledger.json"
        path.parent.mkdir()
        _seed(path)
        acked = []
        with shimmed(monkeypatch, Shim(cut, "before" if when == "lost"
                                       else when)):
            with pytest.raises(Crash):
                _scenario(path, acked)
        if when == "lost":
            # The cut landed before the append's fsync, and none of its
            # bytes reached the disk: drop its line.
            journal = _journal(path)
            lines = journal.read_bytes().splitlines(keepends=True)
            os.truncate(journal, sum(map(len, lines[:-1])))
        _check(path, acked)


def test_every_cut_keeps_the_manifest(tmp_path, monkeypatch):
    with shimmed(monkeypatch, Shim()) as shim:
        TuningLedger(tmp_path / "probe")
    for cut in range(shim.calls):
        for when in ("before", "after", "torn"):
            if when == "torn" and shim.log[cut] != "write":
                continue
            root = tmp_path / f"{when}{cut}"
            with shimmed(monkeypatch, Shim(cut, when)):
                with pytest.raises(Crash):
                    TuningLedger(root)
            reopened = TuningLedger(root)
            assert reopened.save_failures == 0
            assert reopened.shards == ROOT_SHARDS
            assert json.loads((root / MANIFEST).read_text()) == {
                "shards": ROOT_SHARDS, "version": 1,
            }


def test_every_cut_keeps_the_quarantine_counts(tmp_path, monkeypatch):
    def scenario(store):
        store.record_crashes("b" * 16, 2, "boom")
        store.record_success("a" * 16)

    probe = QuarantineStore(tmp_path / "probe")
    probe.path.parent.mkdir()
    probe.record_crashes("a" * 16, 1, "boom")
    with shimmed(monkeypatch, Shim()) as shim:
        scenario(probe)
    per_call = shim.calls // 2  # one write_atomic per record call
    for cut in range(shim.calls):
        for when in ("before", "after", "torn"):
            if when == "torn" and shim.log[cut] != "write":
                continue
            root = tmp_path / f"{when}{cut}"
            root.mkdir()
            store = QuarantineStore(root)
            store.record_crashes("a" * 16, 1, "boom")  # acknowledged
            with shimmed(monkeypatch, Shim(cut, when)):
                with pytest.raises(Crash):
                    scenario(store)
            data = json.loads((root / QUARANTINE_FILE).read_text())
            assert set(data) <= {"a" * 16, "b" * 16}
            if cut >= per_call:  # the crash count was acknowledged
                assert store.crashes("b" * 16) == 2
                assert store.crashes("a" * 16) in (0, 1)
            else:
                assert store.crashes("b" * 16) in (0, 2)
                assert store.crashes("a" * 16) == 1
