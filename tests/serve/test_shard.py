"""The tuning ledger's shards: routing, manifest pinning, the path rule,
migration, crash safety, and tuning against a ledger root."""

import json

from repro.machine.cluster import Cluster
from repro.obs.metrics import METRICS
from repro.pipeline import Pipeline
from repro.sim.params import LASSEN
from repro.tuner.joint import tune_pipeline
from repro.tuner.oracle import MANIFEST, ROOT_SHARDS, TuningLedger
from repro.tuner.search import tune
from repro.tuner.workloads import matmul_chain, sized


def _answer(i: int):
    fingerprint = f"{i:016x}"
    return fingerprint, {
        "request": {"index": i},
        "answer": {"decision": f"d{i}", "cost": float(i)},
    }


def _index(hex_key: str, shards: int) -> int:
    """The on-disk routing contract every process must agree on."""
    return int(hex_key[:8], 16) % shards


def _root(path, shards: int) -> TuningLedger:
    """A ledger root pinned to ``shards`` by a pre-written manifest."""
    path.mkdir(parents=True, exist_ok=True)
    (path / MANIFEST).write_text(
        json.dumps({"version": 1, "shards": shards}) + "\n"
    )
    return TuningLedger(path)


def _ledger_hits() -> int:
    return METRICS.snapshot(sources=False).get("oracle.ledger_hits", 0)


class TestRouting:
    def test_shard_index_is_stable_and_in_range(self, tmp_path):
        for shards in (1, 2, 8, 13):
            ledger = _root(tmp_path / f"root{shards}", shards)
            for i in range(64):
                fingerprint, record = _answer(i)
                ledger.put_answer(fingerprint, record)
            assert ledger.save()
            for i in range(64):
                fingerprint, record = _answer(i)
                index = _index(fingerprint, shards)
                assert 0 <= index < shards
                assert TuningLedger(
                    tmp_path / f"root{shards}" / f"shard-{index:02d}.json"
                ).get_answer(fingerprint) == record

    def test_answers_land_on_their_routed_shard(self, tmp_path):
        ledger = _root(tmp_path / "root", 4)
        for i in range(32):
            fingerprint, record = _answer(i)
            ledger.put_answer(fingerprint, record)
        assert ledger.save()
        for i in range(32):
            fingerprint, record = _answer(i)
            index = _index(fingerprint, 4)
            shard = TuningLedger(
                tmp_path / "root" / f"shard-{index:02d}.json"
            )
            assert shard.answers == {
                fp: rec for fp, rec in map(_answer, range(32))
                if _index(fp, 4) == index
            }
            assert shard.get_answer(fingerprint) == record

    def test_manifest_pins_shard_count(self, tmp_path):
        # An existing manifest wins over the fresh-root default —
        # anything else mis-routes every existing key.
        root = tmp_path / "root"
        assert _root(root, 3).shards == 3
        again = TuningLedger(root)
        assert again.shards == 3
        assert json.loads((root / MANIFEST).read_text())["shards"] == 3

    def test_root_shard_is_byte_identical_to_a_json_ledger(self, tmp_path):
        # One format: a root's shard file and a .json ledger holding the
        # same records are the same bytes.
        records = TuningLedger(None)
        tune(sized("matmul", 64), Cluster.cpu_cluster(1), LASSEN,
             ledger=records)
        records.put_answer(*_answer(5))
        for ledger in (
            _root(tmp_path / "root", 1),
            TuningLedger(tmp_path / "single.json"),
        ):
            ledger.copy_from(records)
            assert ledger.save()
            assert ledger.compact()
        assert (tmp_path / "root" / "shard-00.json").read_bytes() == (
            tmp_path / "single.json"
        ).read_bytes()


class TestOpenLedger:
    """The path rule: what layout a ``--ledger`` path opens."""

    def test_none_stays_none(self):
        ledger = TuningLedger(None)
        assert ledger.path is None and ledger.manifest is None
        assert ledger.shards == 1
        ledger.put_answer(*_answer(1))
        assert not ledger.save()  # in memory: nothing to persist to

    def test_json_suffix_is_single_file(self, tmp_path):
        ledger = TuningLedger(tmp_path / "ledger.json")
        assert ledger.manifest is None
        assert ledger.shards == 1
        ledger.put_answer(*_answer(1))
        assert ledger.save()
        assert ledger.compact()  # folds and removes the journal
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ledger.json", "ledger.json.lock",
        ]

    def test_directory_and_extensionless_are_sharded(self, tmp_path):
        existing = tmp_path / "dir"
        existing.mkdir()
        for path in (existing, tmp_path / "fresh"):
            ledger = TuningLedger(path)
            assert ledger.manifest == path / MANIFEST
            assert ledger.shards == ROOT_SHARDS

    def test_existing_file_is_single_file(self, tmp_path):
        path = tmp_path / "noext"
        path.write_text('{"version": 1, "entries": {}}')
        ledger = TuningLedger(path)
        assert ledger.manifest is None
        assert ledger.shards == 1


class TestMigration:
    def test_migrate_moves_entries_and_answers(self, tmp_path):
        source = tmp_path / "single.json"
        single = TuningLedger(source)
        assignment = sized("matmul", 64)
        cluster = Cluster.cpu_cluster(1)
        tune(assignment, cluster, LASSEN, ledger=single)
        fingerprint, record = _answer(7)
        single.put_answer(fingerprint, record)
        assert single.save()
        assert single.compact()
        before = json.loads(source.read_text())

        sharded = _root(tmp_path / "root", 4)
        sharded.copy_from(TuningLedger(source))
        assert sharded.save()
        assert len(sharded) == len(before["entries"])
        assert sharded.entries == before["entries"]
        assert sharded.get_answer(fingerprint) == record
        # Repeatable: the source is untouched.
        assert json.loads(source.read_text()) == before

        # The migrated shards replay for the oracle: an identical
        # re-tune is all ledger hits, zero simulations.
        reopened = TuningLedger(tmp_path / "root")
        result = tune(assignment, cluster, LASSEN, ledger=reopened)
        assert result.search.evaluations == 0
        assert reopened.hits > 0

    def test_cli_migrate_copies_a_json_ledger(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        source = tmp_path / "single.json"
        source.write_text(json.dumps({
            "version": TuningLedger.VERSION,
            "entries": {
                f"{i:016x}/d{i}": {"cost": float(i)} for i in range(5)
            },
            "answers": dict(_answer(i) for i in range(3)),
        }))
        root = tmp_path / "root"
        argv = ["--ledger", str(root), "--migrate", str(source), "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        single = TuningLedger(source)
        assert report["entries"] == len(single) == 5
        assert report["answers"] == len(single.answers) == 3
        migrated = TuningLedger(root)
        assert migrated.entries == single.entries
        assert migrated.answers == single.answers

    def test_cli_migrate_missing_source_exits_1(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        root = tmp_path / "root"
        missing = tmp_path / "absent.json"
        argv = ["--ledger", str(root), "--migrate", str(missing), "--json"]
        assert main(argv) == 1
        assert "no such ledger" in capsys.readouterr().err
        assert not root.exists()

    def test_wsig_routing_matches_workload_signature(self, tmp_path):
        source = tmp_path / "single.json"
        single = TuningLedger(source)
        assignment = sized("matmul", 64)
        cluster = Cluster.cpu_cluster(1)
        tune(assignment, cluster, LASSEN, ledger=single)
        single.save()
        wsigs = {key.split("/", 1)[0] for key in single.entries}
        assert len(wsigs) == 1  # one workload, one signature namespace
        wsig = wsigs.pop()
        sharded = _root(tmp_path / "root", 4)
        sharded.copy_from(single)
        assert sharded.save()
        index = _index(wsig, 4)
        shard = TuningLedger(
            tmp_path / "root" / f"shard-{index:02d}.json"
        )
        assert len(shard) == len(sharded)


class TestCrashSafety:
    def test_corrupt_shard_is_salvaged_not_fatal(self, tmp_path):
        root = tmp_path / "root"
        ledger = _root(root, 2)
        for i in range(8):
            ledger.put_answer(*_answer(i))
        assert ledger.save()
        assert ledger.compact()
        # Torch one shard mid-file, as a partial non-atomic write would.
        victim = root / "shard-00.json"
        victim.write_text(victim.read_text()[:20])
        reopened = TuningLedger(root)
        survivors = reopened.answers
        assert reopened.salvaged == 0  # answers are not salvaged
        assert (root / "shard-00.json.corrupt").exists()
        kept = [
            _answer(i) for i in range(8) if _index(_answer(i)[0], 2) == 1
        ]
        assert survivors == dict(kept)

    def test_save_merges_concurrent_writers(self, tmp_path):
        root = tmp_path / "root"
        a = _root(root, 2)
        b = TuningLedger(root)
        a.put_answer(*_answer(1))
        b.put_answer(*_answer(2))
        assert a.save()
        assert b.save()  # must read-merge, not clobber, a's answer
        answers = TuningLedger(root).answers
        assert _answer(1)[0] in answers
        assert _answer(2)[0] in answers


class TestTuneAgainstARoot:
    """``TuningLedger(root)`` on the tuners opens roots too: a re-tune
    against a root that already holds the workload simulates nothing."""

    def test_tune_replays_a_root(self, tmp_path):
        root = tmp_path / "root"
        assignment = sized("matmul", 64)
        cluster = Cluster.cpu_cluster(1)
        first = tune(assignment, cluster, LASSEN, ledger=TuningLedger(root))
        assert first.search.evaluations > 0
        hits = _ledger_hits()
        again = tune(assignment, cluster, LASSEN, ledger=TuningLedger(root))
        assert again.search.evaluations == 0
        assert _ledger_hits() > hits
        assert again.decision == first.decision
        assert TuningLedger(root).save()

    def test_tune_pipeline_replays_a_root(self, tmp_path):
        root = tmp_path / "root"

        def pipeline():
            return Pipeline(matmul_chain(1024, 256), Cluster.cpu_cluster(2))

        first = tune_pipeline(
            pipeline(), LASSEN, top_k=3, ledger=TuningLedger(root)
        )
        assert sum(
            r.search.evaluations for r in first.stage_results.values()
        ) > 0
        hits = _ledger_hits()
        again = tune_pipeline(
            pipeline(), LASSEN, top_k=3, ledger=TuningLedger(root)
        )
        assert sum(
            r.search.evaluations for r in again.stage_results.values()
        ) == 0
        assert _ledger_hits() > hits
        assert again.decisions == first.decisions
        assert TuningLedger(root).save()


def test_default_shard_count(tmp_path):
    ledger = TuningLedger(tmp_path / "root")
    assert ledger.shards == ROOT_SHARDS == 8
    assert json.loads((tmp_path / "root" / MANIFEST).read_text()) == {
        "shards": 8, "version": 1,
    }
