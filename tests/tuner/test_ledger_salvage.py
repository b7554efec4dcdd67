"""Crash-hardened tuning-ledger loads: salvage and quarantine."""

import json

import pytest

from repro.sim.params import LASSEN
from repro.tuner.oracle import (
    EvalOutcome,
    Oracle,
    TuningLedger,
    workload_signature,
)
from repro.machine.cluster import MemoryKind
from repro.tuner.space import enumerate_space
from repro.tuner.workloads import lean_cluster, matmul


@pytest.fixture
def populated(tmp_path):
    """A saved ledger with real oracle entries."""
    path = tmp_path / "ledger.json"
    cluster = lean_cluster(4)
    assignment = matmul(64)
    ledger = TuningLedger(path)
    oracle = Oracle(cluster, params=LASSEN, ledger=ledger)
    space = enumerate_space(assignment, cluster.num_processors)
    oracle.evaluate(assignment, space[:4])
    assert ledger.save()
    assert ledger.compact()  # the tests below edit the snapshot file
    return path, cluster, assignment


class TestSalvage:
    def test_saves_compact_json(self, populated):
        path, _, _ = populated
        text = path.read_text()
        data = json.loads(text)
        assert text == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_indented_layout_still_loads(self, populated):
        # Older versions saved with ``indent=1``; such files load as-is
        # and re-save in the compact layout with the same content.
        path, _, _ = populated
        reference = TuningLedger(path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        ledger = TuningLedger(path)
        assert ledger.salvaged == 0
        assert ledger.entries == reference.entries
        assert not path.with_name(path.name + ".corrupt").exists()
        assert ledger.save()
        assert json.loads(path.read_text()) == data

    def test_clean_ledger_loads_without_salvage(self, populated):
        path, _, _ = populated
        ledger = TuningLedger(path)
        assert ledger.salvaged == 0
        assert len(ledger) == 4
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_truncated_ledger_salvages_complete_entries(self, populated):
        path, _, _ = populated
        text = path.read_text()
        # Tear the file mid-way through the last entry (a torn write on
        # a filesystem without atomic replace).
        path.write_text(text[: int(len(text) * 0.8)])
        ledger = TuningLedger(path)
        assert 0 < ledger.salvaged < 4
        assert len(ledger) == ledger.salvaged
        for key, record in ledger.entries.items():
            assert "/" in key
            assert "decision" in record and "cost" in record

    def test_corrupt_original_is_quarantined(self, populated):
        path, _, _ = populated
        torn = path.read_text()[:-30]
        path.write_text(torn)
        TuningLedger(path)
        quarantine = path.with_name(path.name + ".corrupt")
        assert quarantine.exists()
        assert quarantine.read_text() == torn

    def test_salvaged_entries_round_trip(self, populated):
        path, cluster, assignment = populated
        reference = TuningLedger(path)
        path.write_text(path.read_text()[:-30])
        ledger = TuningLedger(path)
        wsig = workload_signature(
            assignment, cluster, LASSEN,
            MemoryKind.SYSTEM_MEM,
        )
        hits = 0
        for key in ledger.entries:
            decision_key = key.split("/", 1)[1]
            from repro.tuner.space import Decision

            outcome = ledger.get(wsig, Decision.decode(decision_key))
            assert isinstance(outcome, EvalOutcome)
            assert outcome == reference.get(
                wsig, Decision.decode(decision_key)
            )
            hits += 1
        assert hits == ledger.salvaged

    def test_garbage_file_loads_empty(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text("not json at all {{{")
        ledger = TuningLedger(path)
        assert len(ledger) == 0
        assert ledger.salvaged == 0
        assert path.with_name(path.name + ".corrupt").exists()

    def test_save_after_salvage_heals_the_file(self, populated):
        path, _, _ = populated
        path.write_text(path.read_text()[:-30])
        ledger = TuningLedger(path)
        salvaged = len(ledger)
        assert ledger.save()
        healed = json.loads(path.read_text())
        assert healed["version"] == TuningLedger.VERSION
        assert len(healed["entries"]) == salvaged
        # And the healed file loads cleanly.
        again = TuningLedger(path)
        assert again.salvaged == 0
        assert len(again) == salvaged

    def test_wrong_shape_json_loads_empty(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps([1, 2, 3]))
        ledger = TuningLedger(path)
        assert len(ledger) == 0
        # Valid JSON of the wrong shape is not "corrupt": nothing to
        # salvage, nothing quarantined.
        assert not path.with_name(path.name + ".corrupt").exists()
