"""The tuning ledger's journal: what a save appends, what a refresh
reads, group commit, and the compaction rule (`tuner/oracle.py`).

Every pin here counts bytes and calls, never time: a save's cost must
follow what it adds, not the size of the shard it adds to.
"""

import json
import os

import pytest

from repro.obs.metrics import METRICS
from repro.tuner.oracle import MANIFEST, EvalOutcome, TuningLedger
from repro.tuner.space import Decision


def _counter(name: str) -> int:
    return METRICS.snapshot(sources=False).get(name, 0)


def _answer(i: int):
    return f"{i:016x}", {"request": {"i": i}, "answer": {"cost": 1.0}}


def _outcome(n: int) -> EvalOutcome:
    return EvalOutcome(decision=Decision(grid=(n,), dist=("i",)),
                       cost=float(n))


def _root(path, shards: int) -> TuningLedger:
    path.mkdir(parents=True)
    (path / MANIFEST).write_text(
        json.dumps({"version": 1, "shards": shards}) + "\n"
    )
    return TuningLedger(path)


def _journal_bytes(path) -> bytes:
    journal = path.with_name(path.name + ".journal")
    return journal.read_bytes() if journal.exists() else b""


@pytest.mark.parametrize("records", [10, 30_000])
def test_append_bytes_is_the_saves_own_line(tmp_path, records):
    """A save appends its own records and nothing else, whether the
    shard holds 10 records or 30,000."""
    path = tmp_path / "ledger.json"
    ledger = TuningLedger(path)
    for i in range(records):
        ledger.put_answer(*_answer(i))
    compactions = _counter("ledger.compactions")
    assert ledger.save()
    # 30,000 records outgrow the 1 MiB floor: that save compacted.
    # 10 records do not, so the fresh shard keeps its journal.
    assert _counter("ledger.compactions") - compactions == (
        records > 10
    )
    before = _journal_bytes(path)
    appended = _counter("ledger.append_bytes")
    appends = _counter("ledger.appends")
    ledger.put_answer(*_answer(records))
    assert ledger.save()
    line = _journal_bytes(path)[len(before):]
    assert _counter("ledger.append_bytes") - appended == len(line)
    assert _counter("ledger.appends") - appends == 1
    assert line.count(b"\n") == 1 and line.endswith(b"\n")
    assert json.loads(line) == {"answers": dict([_answer(records)])}
    assert len(TuningLedger(path).answers) == records + 1


def test_refresh_reads_exactly_another_saves_bytes(tmp_path, monkeypatch):
    root = tmp_path / "root"
    reader = _root(root, 2)
    writer = TuningLedger(root)
    for i in range(6):
        writer.put_answer(*_answer(i))
    assert writer.save()
    assert len(reader.answers) == 6  # loads both shards
    fingerprint, record = _answer(7)
    shard = root / f"shard-{int(fingerprint[:8], 16) % 2:02d}.json"
    before = _journal_bytes(shard)
    writer.put_answer(fingerprint, record)
    assert writer.save()
    line = _journal_bytes(shard)[len(before):]
    read = []
    pread = os.pread

    def counting(fd, length, offset):
        data = pread(fd, length, offset)
        read.append(data)
        return data

    monkeypatch.setattr(os, "pread", counting)
    reader.refresh()
    assert read == [line]
    assert reader.get_answer(fingerprint) == record
    read.clear()
    reader.refresh()  # nothing new: nothing read
    assert read == []


def test_refresh_after_another_process_compacted(tmp_path):
    path = tmp_path / "ledger.json"
    reader = TuningLedger(path)
    writer = TuningLedger(path)
    writer.put_answer(*_answer(1))
    assert writer.save()
    reader.refresh()
    writer.put_answer(*_answer(2))
    assert writer.save()
    assert writer.compact()
    writer.put_answer(*_answer(3))
    assert writer.save()  # a new journal after the compaction
    reader.put_answer(*_answer(4))  # unsaved here: kept by a refresh
    reader.refresh()
    assert reader.answers == dict(map(_answer, range(1, 5)))


def _tune_like(ledger: TuningLedger):
    """A miss's saves: two rungs with stats, then the answer without."""
    ledger.put("a" * 16, _outcome(2))
    ledger.save(stats={"rung": 1})
    ledger.put("a" * 16, _outcome(4))
    ledger.put("b" * 16, _outcome(8))
    ledger.save(stats={"rung": 2})
    ledger.put_answer(*_answer(5))
    ledger.save()


def test_group_commit_appends_once_per_shard(tmp_path):
    grouped = _root(tmp_path / "grouped", 2)
    appends = _counter("ledger.appends")
    with grouped.group_commit():
        _tune_like(grouped)
        assert _counter("ledger.appends") == appends  # deferred
    touched = {
        int(key[:8], 16) % 2 for key in ("a" * 16, "b" * 16, "0" * 16)
    }
    assert _counter("ledger.appends") - appends == len(touched)
    # Compacted, the files equal a ledger that appended every save.
    plain = _root(tmp_path / "plain", 2)
    _tune_like(plain)
    for ledger in (grouped, plain):
        assert ledger.compact()
    for index in range(2):
        name = f"shard-{index:02d}.json"
        assert (tmp_path / "grouped" / name).read_bytes() == (
            tmp_path / "plain" / name
        ).read_bytes()


def test_compacted_stats_are_the_last_saves(tmp_path):
    """The compacted snapshot carries the last save's ``oracle_stats``
    and omits them when that save passed none."""
    path = tmp_path / "ledger.json"
    ledger = TuningLedger(path)
    ledger.put("w" * 16, _outcome(2))
    assert ledger.save(stats={"scored": 1})
    assert ledger.compact()
    assert json.loads(path.read_text())["oracle_stats"] == {"scored": 1}
    assert not path.with_name(path.name + ".journal").exists()
    ledger.put_answer(*_answer(1))
    assert ledger.save()
    assert ledger.compact()
    assert "oracle_stats" not in json.loads(path.read_text())


def test_torn_tail_is_ignored_then_cut(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = TuningLedger(path)
    ledger.put_answer(*_answer(1))
    assert ledger.save()
    journal = path.with_name(path.name + ".journal")
    with open(journal, "ab") as handle:
        handle.write(b'{"answers":{"00')  # a crashed append
    reopened = TuningLedger(path)
    assert reopened.answers == dict([_answer(1)])
    assert reopened.salvaged == 0
    torn = _counter("ledger.torn_lines")
    reopened.put_answer(*_answer(2))
    assert reopened.save()
    assert _counter("ledger.torn_lines") - torn == 1
    for line in journal.read_bytes().splitlines():
        json.loads(line)
    assert TuningLedger(path).answers == dict(map(_answer, (1, 2)))
