"""The simulate-oracle: caching, ledger persistence, parallel fan-out."""

import json
import os


from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.tuner.oracle import (
    EvalOutcome,
    INFEASIBLE,
    Oracle,
    TuningLedger,
    workload_signature,
)
from repro.tuner.space import Decision, enumerate_space, from_heuristic
from repro.tuner.workloads import matmul
from repro.sim.params import LASSEN

from prune_off import PruneOff

GIB = 1024 ** 3


def tiny_cluster(nodes=2, mem_bytes=None):
    if mem_bytes is None:
        return Cluster.cpu_cluster(nodes)
    return Cluster.build(
        num_nodes=nodes,
        procs_per_node=2,
        proc_kind=ProcessorKind.CPU_SOCKET,
        proc_mem_kind=MemoryKind.SYSTEM_MEM,
        proc_mem_capacity=mem_bytes,
        system_mem_capacity=mem_bytes,
    )


class TestOracle:
    def test_evaluates_in_input_order(self):
        cluster = tiny_cluster()
        stmt = matmul(256)
        decisions = enumerate_space(stmt, 4)[:6]
        oracle = Oracle(cluster)
        with PruneOff():
            outcomes = oracle.evaluate(stmt, decisions)
        assert [o.decision for o in outcomes] == decisions
        assert all(o.feasible for o in outcomes)
        assert all(o.cost > 0 for o in outcomes)

    def test_static_pruning_skips_dominated_candidates(self):
        # With the analyzer on (the default), loops-leaf candidates
        # whose gemm twin shares the trace are decided statically; they
        # are neither simulated nor counted as errors.
        cluster = tiny_cluster()
        stmt = matmul(256)
        decisions = enumerate_space(stmt, 4)
        oracle = Oracle(cluster)
        outcomes = oracle.evaluate(stmt, decisions)
        pruned = [o for o in outcomes if o.pruned]
        assert pruned and oracle.pruned_static == len(pruned)
        assert oracle.errors == 0
        assert all(not o.feasible for o in pruned)

    def test_oom_candidates_are_infeasible_not_fatal(self):
        # 32 MiB nodes: the heuristic's replicated row/column panels
        # (~50 MB/node) cannot fit, the fully tiled systolic layout
        # (~30 MB/node) can.
        cluster = tiny_cluster(nodes=32, mem_bytes=32 * 1024 * 1024)
        stmt = matmul(4096)
        pull = from_heuristic(stmt, (8, 8))
        cannon = Decision(
            grid=(8, 8), dist=("i", "j"), seq="k", steps_dim=0,
            rotate=(0, 1), tiled=("B", "C"), step_comm=("B", "C"),
            leaf="gemm",
        )
        outcomes = Oracle(cluster).evaluate(stmt, [pull, cannon])
        assert outcomes[0].oom and outcomes[0].cost == INFEASIBLE
        assert outcomes[1].feasible

    def test_does_not_clobber_caller_formats(self):
        cluster = tiny_cluster()
        stmt = matmul(256)
        before = {t.name: t.format for t in stmt.tensors()}
        Oracle(cluster).evaluate(stmt, enumerate_space(stmt, 4)[:4])
        after = {t.name: t.format for t in stmt.tensors()}
        assert before == after

    def test_parallel_jobs_match_sequential(self):
        cluster = tiny_cluster(nodes=4)
        stmt = matmul(512)
        decisions = enumerate_space(stmt, 8)[:12]
        seq = Oracle(cluster, jobs=1).evaluate(stmt, decisions)
        par = Oracle(cluster, jobs=4).evaluate(stmt, decisions)
        assert [(o.decision, o.cost, o.oom) for o in seq] == [
            (o.decision, o.cost, o.oom) for o in par
        ]


class TestLedger:
    def test_retune_is_incremental(self, tmp_path):
        path = tmp_path / "ledger.json"
        cluster = tiny_cluster()
        stmt = matmul(256)
        decisions = enumerate_space(stmt, 4)[:8]

        first = Oracle(cluster, ledger=TuningLedger(path))
        first.evaluate(stmt, decisions)
        assert first.simulated == len(decisions)

        second = Oracle(cluster, ledger=TuningLedger(path))
        outcomes = second.evaluate(stmt, decisions)
        assert second.simulated == 0
        assert second.ledger.hits == len(decisions)
        assert len(outcomes) == len(decisions)

    def test_ledger_keys_are_workload_scoped(self, tmp_path):
        path = tmp_path / "ledger.json"
        cluster = tiny_cluster()
        decisions = enumerate_space(matmul(256), 4)[:3]
        oracle = Oracle(cluster, ledger=TuningLedger(path))
        oracle.evaluate(matmul(256), decisions)
        # A different problem size is a different workload: no hits.
        other = Oracle(cluster, ledger=TuningLedger(path))
        other.evaluate(matmul(512), decisions)
        assert other.simulated == len(decisions)
        assert len(other.ledger) == 2 * len(decisions)

    def test_save_is_atomic_and_sorted(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = TuningLedger(path)
        ledger.put("sig", EvalOutcome(
            decision=Decision(grid=(2,), dist=("i",)), cost=1.0,
        ))
        ledger.save()
        assert ledger.compact()  # the journal folds into the snapshot
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert list(data["entries"]) == sorted(data["entries"])
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_saves_merge_instead_of_clobbering(self, tmp_path):
        """Two ledgers sharing a path (concurrent tunes) must not drop
        each other's entries: save() reloads and merges under the
        advisory lock."""
        path = tmp_path / "ledger.json"
        first = TuningLedger(path)
        second = TuningLedger(path)  # loaded before first saves
        first.put("w1", EvalOutcome(
            decision=Decision(grid=(2,), dist=("i",)), cost=1.0,
        ))
        assert first.save()
        second.put("w2", EvalOutcome(
            decision=Decision(grid=(4,), dist=("j",)), cost=2.0,
        ))
        assert second.save()
        merged = TuningLedger(path)
        assert len(merged) == 2

    def test_save_parses_only_bytes_it_did_not_write(
        self, tmp_path, monkeypatch
    ):
        """A save that finds only the journal bytes this ledger
        appended reads nothing back; another writer's appended line is
        read exactly (its bytes, no more) and merged."""
        path = tmp_path / "ledger.json"
        journal = tmp_path / "ledger.json.journal"
        read = []
        pread = os.pread

        def counting(fd, length, offset):
            data = pread(fd, length, offset)
            read.append(data)
            return data

        first = TuningLedger(path)
        monkeypatch.setattr(os, "pread", counting)

        def outcome(n):
            return EvalOutcome(
                decision=Decision(grid=(n,), dist=("i",)), cost=float(n),
            )

        first.put("w", outcome(2))
        assert first.save()
        first.put("w", outcome(3))
        assert first.save()
        assert read == []
        second = TuningLedger(path)
        assert read == [journal.read_bytes()]  # its load replays both
        before = journal.stat().st_size
        second.put("w", outcome(4))
        assert second.save()
        line = journal.read_bytes()[before:]
        first.put("w", outcome(5))
        assert first.save()
        assert read[1:] == [line]  # first's merge: second's line only
        assert len(TuningLedger(path)) == 4
        assert first.compact()
        assert path.read_text() == json.dumps(
            {"version": 1, "entries": first.entries},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"

    def test_corrupt_ledger_starts_fresh(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text("{ not json")
        ledger = TuningLedger(path)
        assert len(ledger) == 0

    def test_outcome_record_roundtrip(self):
        for outcome in (
            EvalOutcome(
                decision=Decision(grid=(4, 2), dist=("i", "j")),
                cost=0.125, comm_time=0.02, compute_time=0.1,
                inter_node_bytes=1e9, max_memory_bytes=2e9,
            ),
            EvalOutcome(
                decision=Decision(grid=(4,), dist=("k",)),
                cost=INFEASIBLE, oom=True,
            ),
        ):
            assert EvalOutcome.from_record(outcome.to_record()) == outcome


class TestWorkloadSignature:
    def test_pinned_value(self):
        """The ledger key is persistent: a change to what it hashes
        re-keys every existing ledger, so the value is pinned."""
        assert workload_signature(
            matmul(256), Cluster.cpu_cluster(2), LASSEN,
            MemoryKind.SYSTEM_MEM,
        ) == "b3efb9439ea8c31e"

    def test_distinct_per_axis(self):
        c1, c2 = tiny_cluster(2), tiny_cluster(4)
        base = workload_signature(
            matmul(256), c1, LASSEN, MemoryKind.SYSTEM_MEM
        )
        assert base == workload_signature(
            matmul(256), c1, LASSEN, MemoryKind.SYSTEM_MEM
        )
        assert base != workload_signature(
            matmul(512), c1, LASSEN, MemoryKind.SYSTEM_MEM
        )
        assert base != workload_signature(
            matmul(256), c2, LASSEN, MemoryKind.SYSTEM_MEM
        )
        assert base != workload_signature(
            matmul(256), c1, LASSEN.with_(overlap=False),
            MemoryKind.SYSTEM_MEM,
        )
