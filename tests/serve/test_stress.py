"""Multi-process ledger-root stress: concurrent writers, kill -9 crashes.

The acceptance bar for a ledger root is a one-shard file's, under
load: N uncoordinated writer processes lose nothing to each other
(every shard save is an advisory-locked journal append), equal-seed
writer schedules leave byte-identical root directories, and a
``kill -9`` landing anywhere inside the persistence path never leaves
a corrupt shard on disk (every replace is atomic, and an append can
only leave a torn last journal line, which loads ignore).
"""

import json
import multiprocessing as mp
import os
import signal
from pathlib import Path

from repro.tuner.oracle import MANIFEST, TuningLedger

WRITERS = 4
PER_WRITER = 25


def _fingerprint(writer: int, i: int) -> str:
    return f"{writer:04x}{i:012x}"


def _record(writer: int, i: int) -> dict:
    return {
        "request": {"writer": writer, "index": i},
        "answer": {"decision": f"w{writer}i{i}", "cost": float(i)},
    }


def _root(path: Path, shards: int) -> Path:
    """A fresh root pinned to ``shards`` by a pre-written manifest."""
    path.mkdir(parents=True)
    (path / MANIFEST).write_text(
        json.dumps({"version": 1, "shards": shards}) + "\n"
    )
    return path


def _writer(root: str, writer: int, per_writer: int):
    ledger = TuningLedger(Path(root))
    for i in range(per_writer):
        ledger.put_answer(_fingerprint(writer, i), _record(writer, i))
        if not ledger.save():
            os._exit(2)
    os._exit(0)


def _crash_victim(root: str, started):
    ledger = TuningLedger(Path(root))
    i = 0
    while True:
        ledger.put_answer(_fingerprint(9, i), _record(9, i))
        ledger.save()
        if i == 3:
            started.set()  # a few saves landed; parent may now kill us
        i += 1


class TestConcurrentWriters:
    def test_no_writer_loses_entries(self, tmp_path):
        root = _root(tmp_path / "root", 4)
        ctx = mp.get_context("fork")
        procs = [
            ctx.Process(target=_writer, args=(str(root), w, PER_WRITER))
            for w in range(WRITERS)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        ledger = TuningLedger(root)
        answers = ledger.answers
        assert len(answers) == WRITERS * PER_WRITER
        for w in range(WRITERS):
            for i in range(PER_WRITER):
                assert answers[_fingerprint(w, i)] == _record(w, i)
        assert ledger.salvaged == 0

    def test_equal_schedules_are_byte_identical(self, tmp_path):
        roots = [tmp_path / "a", tmp_path / "b"]
        for root in roots:
            ledger = TuningLedger(root)
            for w in range(2):
                for i in range(8):
                    ledger.put_answer(
                        _fingerprint(w, i), _record(w, i)
                    )
            assert ledger.save()
        names = sorted(p.name for p in roots[0].iterdir())
        assert names == sorted(p.name for p in roots[1].iterdir())
        assert MANIFEST in names
        for name in names:
            assert (roots[0] / name).read_bytes() == (
                roots[1] / name
            ).read_bytes()


class TestKillDuringPersistence:
    def test_sigkill_never_corrupts_a_shard(self, tmp_path):
        root = _root(tmp_path / "root", 2)
        ctx = mp.get_context("fork")
        started = ctx.Event()
        victim = ctx.Process(target=_crash_victim, args=(str(root), started))
        victim.start()
        assert started.wait(timeout=30)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        assert victim.exitcode == -signal.SIGKILL

        # Every file on disk parses: snapshots and the manifest are
        # replaced atomically (the old or the new version, never a
        # torn one), and every complete journal line parses, with at
        # most one torn tail after them (a kill mid-append). The saves
        # that completed before the kill are all there.
        for path in sorted(root.iterdir()):
            if path.name.endswith(".corrupt"):
                raise AssertionError(f"quarantined shard: {path}")
            if path.name.endswith(".lock"):
                continue  # advisory-lock sentinels, always empty
            if path.name.endswith(".journal"):
                *lines, tail = path.read_bytes().split(b"\n")
                for line in lines:
                    json.loads(line)
                assert b"\n" not in tail  # at most one torn tail
                continue
            json.loads(path.read_text())
        reopened = TuningLedger(root)
        answers = reopened.answers
        assert reopened.salvaged == 0
        for i in range(4):
            assert answers[_fingerprint(9, i)] == _record(9, i)

    def test_reload_sees_another_process_saves(self, tmp_path):
        root = _root(tmp_path / "root", 2)
        reader = TuningLedger(root)
        assert reader.answers == {}
        ctx = mp.get_context("fork")
        writer = ctx.Process(target=_writer, args=(str(root), 0, 5))
        writer.start()
        writer.join(timeout=60)
        assert writer.exitcode == 0
        reader.reload()
        assert len(reader.answers) == 5

    def test_interrupted_before_first_save_leaves_empty_root(
        self, tmp_path
    ):
        root = tmp_path / "root"
        TuningLedger(root)  # manifest only, no dirty shards
        names = sorted(
            p.name for p in root.iterdir()
            if not p.name.endswith(".lock")
        )
        assert names == [MANIFEST]
