"""serve-mixed: one client against a ``python -m repro.serve --jobs 1``
daemon started on an empty ledger.

One closed-loop client on one connection sends each request only after
the previous answer arrived. The miss set is a seeded draw of distinct
small requests over four structures (matmul and ttv, on CPU and GPU
anatomies); the first request of each structure is a cold tune and the
rest are warm-started from their tuned neighbors. The seed moves each
problem size by a few steps.

Each repetition starts a fresh daemon on an empty ledger, sends it every
drawn request once (the misses: its cold ops), then a seeded Zipf
stream over the answered set (the hits; on this workload the warm pass
is that hit stream).

Checks: every response is ``ok``; every hit equals its miss answer; a
seeded sample of answers equals an in-process ``api.tune_request``
(cold tunes) or re-prices to the served cost (warm-started ones),
computed after the timed phases.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness

#: (gpu, workload, nodes, sides, jitter step) per structure: one miss
#: per side, each moved by a seeded -1..+1 steps (less than half the
#: gap between sides), so every seed asks distinct requests of about
#: the same cost.
MATRIX_SIDES = (256, 384, 512, 640, 768, 896)
CUBE_SIDES = (64, 96, 128, 160, 192, 224)
STRUCTURES = (
    (False, "matmul", 2, MATRIX_SIDES, 16),
    (False, "ttv", 4, CUBE_SIDES, 8),
    (True, "matmul", 1, MATRIX_SIDES, 16),
    (True, "ttv", 1, CUBE_SIDES, 8),
)
HITS = 10000
#: Nominal seconds of one repetition on a 2-core machine.
REP_SECONDS = 5.5
SAMPLE_CHECKS = 3
START_TIMEOUT_S = 60.0


def draw(seed: int):
    from repro.api import ScheduleRequest
    from repro.machine.cluster import Cluster
    from repro.tuner.workloads import sized

    rng = random.Random(seed)
    per_structure = []
    for gpu, workload, nodes, sides, step in STRUCTURES:
        cluster = (
            Cluster.gpu_cluster(nodes) if gpu else Cluster.cpu_cluster(nodes)
        )
        per_structure.append([
            ScheduleRequest.from_assignment(
                sized(workload, n + step * rng.randint(-1, 1)), cluster
            )
            for n in sides
        ])
    # Interleave structures so cold and warm-started misses mix.
    requests = [r for group in zip(*per_structure) for r in group]
    if len({r.fingerprint() for r in requests}) != len(requests):
        raise ValueError("the miss set must hold distinct requests")
    return requests


def setup(seed: int):
    from repro import api
    from repro.serve.client import ProtocolError, ScheduleClient

    requests = draw(seed)
    rng = random.Random(seed + 1)
    return dict(
        api=api, client_cls=ScheduleClient, protocol_error=ProtocolError,
        requests=requests, records=[r.to_record() for r in requests],
        fingerprints=[r.fingerprint() for r in requests],
        sample=rng.sample(range(len(requests)), SAMPLE_CHECKS),
        stream=harness.zipf_stream(rng, len(requests), HITS),
        daemon_start_s=[], stats={},
    )


class Daemon:
    """A ``python -m repro.serve`` subprocess and one client to it."""

    def __init__(self, state, root: Path):
        self.root = root
        self.protocol_error = state["protocol_error"]
        root.mkdir(parents=True, exist_ok=True)
        sock = root / "d.sock"
        self.log = root / "daemon.log"
        t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--ledger",
                 str(root / "ledger"), "--socket", str(sock),
                 "--jobs", "1"],
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.client = None
        try:
            self.client = self._connect(state, sock, t0)
        except BaseException:
            self.close()
            raise
        self.start_s = time.perf_counter() - t0

    def _connect(self, state, sock: Path, t0: float):
        while time.perf_counter() - t0 < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode}"
                )
            if sock.exists():
                try:
                    client = state["client_cls"](
                        socket_path=str(sock), retries=0, timeout=120.0
                    )
                except OSError:
                    client = None
                if client is not None and client.ping():
                    client.retries = 4
                    return client
            time.sleep(0.002)
        raise RuntimeError("daemon did not start in time")

    def close(self):
        if self.client is not None:
            try:
                self.client.shutdown()
            except (OSError, self.protocol_error):
                pass
            self.client.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            sys.stderr.write(self.log.read_text(errors="replace"))
        shutil.rmtree(self.root, ignore_errors=True)


def run(state, bench: harness.Bench) -> harness.Outcome:
    out = harness.Outcome()
    base = harness.SCRATCH / f"serve-{os.getpid()}"
    answers = None
    try:
        for rep, traced in enumerate(bench.repetitions()):
            daemon = Daemon(state, base / f"rep{rep}")
            state["daemon_start_s"].append(daemon.start_s)
            try:
                answers = _rep(state, bench, out, traced, daemon)
            finally:
                daemon.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    _check_sample(state, out, answers)
    return out


def _schedule(tr, client, record, fingerprint):
    t0 = time.perf_counter()
    with tr.span("serve.client.schedule", rid=fingerprint):
        response = client.schedule(record)
    return response, time.perf_counter() - t0


def _rep(state, bench, out, traced, daemon):
    api = state["api"]
    client = daemon.client
    tr = bench.tracer
    records = state["records"]
    fingerprints = state["fingerprints"]
    miss_s, answers, hit_s, hits = [], [], [], []
    with bench.window(traced):
        for record, fingerprint in zip(records, fingerprints):
            response, took = _schedule(tr, client, record, fingerprint)
            miss_s.append(took)
            bench.probe()
            answers.append(response)
        for j in state["stream"]:
            response, took = _schedule(
                tr, client, records[j], fingerprints[j]
            )
            hit_s.append(took)
            hits.append((j, response))
    for fingerprint, response in zip(fingerprints, answers):
        ok = response.get("status") == "ok"
        out.check(None if ok else f"response {response!r}",
                  f"miss {fingerprint}")
    canonical = [
        api.canonical_json(
            api.ScheduleAnswer.from_record(r["answer"]).canonical_record()
        ) if r.get("status") == "ok" else None
        for r in answers
    ]
    bad = sum(
        1 for j, response in hits
        if response.get("status") != "ok"
        or response.get("provenance") != api.HIT
        or api.canonical_json(api.ScheduleAnswer.from_record(
            response["answer"]).canonical_record()) != canonical[j]
    )
    out.count(len(hits), bad, "hit differs from its miss answer")
    if traced:
        stats = client.stats()
        out.check(None if stats.get("status") == "ok" else repr(stats),
                  "stats op")
        state["stats"] = stats.get("counters", {})
        state["evals"] = {
            prov: sum(
                r["answer"]["evaluations"] for r in answers
                if r.get("status") == "ok"
                and r["answer"]["provenance"] == prov
            )
            for prov in (api.TUNED, api.WARM_STARTED)
        }
    bench.sample(
        traced, op_s=miss_s, warm_s=hit_s, hit_s=hit_s,
        cost_s=[
            r["answer"]["cost"] for r in answers
            if r.get("status") == "ok" and r["answer"]["cost"] != "infeasible"
        ],
    )
    return answers


def _check_sample(state, out, answers):
    """A seeded sample of served answers against in-process results."""
    from repro.machine.cluster import MemoryKind, ProcessorKind
    from repro.machine.grid import Grid
    from repro.machine.machine import Machine
    from repro.core.kernel import compile_kernel
    from repro.tuner.space import Decision, realize

    api = state["api"]
    for i in state["sample"]:
        request = state["requests"][i]
        response = answers[i]
        if response.get("status") != "ok":
            continue  # already counted as failed
        served = api.ScheduleAnswer.from_record(response["answer"])
        if served.provenance == api.TUNED:
            offline = api.tune_request(request, jobs=1).answer
            same = (api.canonical_json(offline.canonical_record())
                    == api.canonical_json(served.canonical_record()))
            out.check(None if same else "served != in-process tune",
                      f"sample {state['fingerprints'][i]}")
            continue
        cluster = request.cluster()
        memory = (
            MemoryKind.GPU_FB
            if cluster.processor_kind is ProcessorKind.GPU
            else MemoryKind.SYSTEM_MEM
        )
        decision = Decision.decode(served.decision)
        machine = Machine(cluster, Grid(*decision.grid))
        schedule, _formats = realize(
            request.assignment(), machine, decision, memory=memory
        )
        cost = compile_kernel(schedule, machine).simulate(
            request.machine_params()
        ).total_time
        out.check(
            None if cost == served.cost
            else f"re-priced {cost!r} != served {served.cost!r}",
            f"sample {state['fingerprints'][i]}",
        )


def per_layer(state, bench) -> dict:
    counters = state["stats"]
    out = {
        name: counters.get(name, 0)
        for name in (
            "serve.hits", "serve.misses", "serve.tunes",
            "serve.warm_started", "serve.deduped", "serve.errors",
            "serve.shed", "serve.crashes",
        )
    }
    asked = out["serve.hits"] + out["serve.misses"]
    out["serve.hit_ratio"] = out["serve.hits"] / asked if asked else 0.0
    out["serve.evals_cold"] = state["evals"][state["api"].TUNED]
    out["serve.evals_warm"] = state["evals"][state["api"].WARM_STARTED]
    out["api.fingerprint_us"] = harness.fingerprint_us(state["requests"])
    # Too unsteady between runs to gate on (see README), so reported
    # here rather than as an end-to-end metric.
    out["serve.hit_p99_ms"] = 1e3 * harness.median(
        [harness.percentile(s["hit_s"], 99) for s in bench.samples]
    )
    return out
