"""tune-cold: schedule searches through ``api.tune_request`` and one
joint ``tune_pipeline``, from an empty ledger and back from it.

The requests are a seeded draw over fixed slots — matmul, matmul-rect,
ttv and ttm at 4–16 nodes on CPU and GPU clusters — whose single cold
tune stays under about 2 s (mttkrp@16, about 30 s, is left out). The
seed moves each slot's weak-scaled problem size by at most one step.
The joint call tunes the chain-matmul pipeline on a lean 16-node
cluster.

Passes of one repetition:

* cold — every request tuned with ``jobs=1`` into a fresh ledger file,
  caches empty; each answer is stored in the ledger as the serving
  worker stores it;
* warm — the ledger re-read from disk and every request re-tuned from
  it, with ``SIM_CACHE``, ``SKELETONS`` and the pipeline memo cleared;
* hits — a seeded Zipf stream of answer lookups by request fingerprint
  in the re-read ledger.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time

import harness

#: (gpu, workload, nodes) — the cold tune of each is 0.3–1.4 s.
SLOTS = (
    (False, "matmul", 4),
    (False, "matmul-rect", 4),
    (False, "ttv", 16),
    (False, "ttm", 4),
    (True, "matmul", 4),
    (True, "ttv", 4),
)
#: Each size is the slot's weak-scaled size moved by a seeded -1..+1
#: multiples of its rounding step, so costs move by a few percent.
MATRIX_STEP = 64
CUBE_STEP = 8
#: The joint pipeline: chain-matmul (n, r) on lean nodes.
PIPELINE_NODES = 16
PIPELINE_SHAPE = (16384, 512)
PIPELINE_KNOBS = dict(top_k=4, max_dims=2, coarse_procs=16)
HITS = 20000
#: Nominal seconds of one repetition on a 2-core machine.
REP_SECONDS = 9.0


def draw(seed: int):
    """The seed's requests (as ``ScheduleRequest``), in slot order."""
    from repro.api import ScheduleRequest
    from repro.bench.weak_scaling import weak_cube_side, weak_matrix_size
    from repro.machine.cluster import Cluster
    from repro.tuner.workloads import sized

    rng = random.Random(seed)
    requests = []
    for gpu, workload, nodes in SLOTS:
        if workload in ("matmul", "matmul-rect"):
            n = weak_matrix_size(8192, nodes, MATRIX_STEP)
            n += MATRIX_STEP * rng.randint(-1, 1)
        else:
            n = weak_cube_side(512, nodes, CUBE_STEP)
            n += CUBE_STEP * rng.randint(-1, 1)
        cluster = (
            Cluster.gpu_cluster(nodes) if gpu else Cluster.cpu_cluster(nodes)
        )
        requests.append(
            ScheduleRequest.from_assignment(sized(workload, n), cluster)
        )
    return requests


def setup(seed: int):
    from repro import api
    from repro.bench.cache import SIM_CACHE
    from repro.machine.cluster import Cluster
    from repro.pipeline import Pipeline
    from repro.pipeline.redistribute import clear_cache
    from repro.sim.params import LASSEN
    from repro.tuner import joint
    from repro.tuner.oracle import SKELETONS, TuningLedger
    from repro.tuner.workloads import lean_cluster, matmul_chain, sized

    requests = draw(seed)
    records = [r.to_record() for r in requests]
    stream = harness.zipf_stream(
        random.Random(seed + 1), len(records), HITS
    )

    def pipeline():
        return Pipeline(
            matmul_chain(*PIPELINE_SHAPE), lean_cluster(PIPELINE_NODES)
        )

    cache_totals = [0, 0]

    def clear_caches():
        """Empty the caches, adding their hit/miss counts to the totals."""
        cache_totals[0] += SIM_CACHE.hits
        cache_totals[1] += SIM_CACHE.misses
        SIM_CACHE.clear()
        SKELETONS.clear()
        clear_cache()

    # First use of the tuner's lazily imported modules, off the clock.
    api.tune_request(
        api.ScheduleRequest.from_assignment(sized("ttv", 64),
                                            Cluster.cpu_cluster(1)),
        jobs=1, ledger=TuningLedger(None),
    )
    clear_caches()
    return dict(
        api=api, requests=requests, records=records, stream=stream,
        fingerprints=[r.fingerprint() for r in requests],
        pipeline=pipeline,
        joint=joint, params=LASSEN, ledger_cls=TuningLedger,
        clear_caches=clear_caches, cache_totals=cache_totals, counts={},
    )


def run(state, bench: harness.Bench) -> harness.Outcome:
    out = harness.Outcome()
    tmp = harness.SCRATCH / f"tune-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for rep, traced in enumerate(bench.repetitions()):
            _rep(state, bench, out, traced, tmp / f"ledger-{rep}.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _tune(state, i, ledger):
    """Op ``i``: tune request ``i`` (the pipeline after the last one)."""
    if i < len(state["requests"]):
        return state["api"].tune_request(
            state["requests"][i], jobs=1, ledger=ledger
        )
    return state["joint"].tune_pipeline(
        state["pipeline"](), state["params"], jobs=1, ledger=ledger,
        **PIPELINE_KNOBS,
    )


def _rep(state, bench, out, traced, ledger_path):
    api = state["api"]
    records = state["records"]
    fingerprints = state["fingerprints"]
    ledger_cls = state["ledger_cls"]
    clear_caches = state["clear_caches"]
    tr = bench.tracer
    rids = fingerprints + ["pipeline"]
    n = len(records)
    op_s, warm_s, hit_s, hits = [], [], [], []
    clear_caches()
    state["cache_totals"][:] = [0, 0]
    with bench.window(traced):
        ledger = ledger_cls(ledger_path)
        results = []
        for i, rid in enumerate(rids):
            t0 = time.perf_counter()
            with tr.span("op", rid=rid):
                result = _tune(state, i, ledger)
                if i < n:
                    # Stored as the serving worker stores answers.
                    ledger.put_answer(rid, {
                        "request": records[i],
                        "answer": result.answer.to_record(),
                    })
                    ledger.save()
            op_s.append(time.perf_counter() - t0)
            bench.probe()
            results.append(result)
        if traced:
            _count_search(state["counts"], results[:n], results[-1])
            state["counts"]["ledger.misses"] = ledger.misses
        _check_cold(out, fingerprints, results[:n], results[-1])
        cold = _summary(api, results[:n], results[-1])
        del results, result

        clear_caches()
        t0 = time.perf_counter()
        ledger = ledger_cls(ledger_path)
        warm_s.append(time.perf_counter() - t0)
        results = []
        for i, rid in enumerate(rids):
            t0 = time.perf_counter()
            with tr.span("op", rid=rid):
                results.append(_tune(state, i, ledger))
            warm_s.append(time.perf_counter() - t0)
        warm = _summary(api, results[:n], results[-1])
        del results

        with tr.span("ledger.lookup"):
            for j in state["stream"]:
                t0 = time.perf_counter()
                fingerprint = api.ScheduleRequest.from_record(
                    records[j]
                ).fingerprint()
                hits.append((j, ledger.get_answer(fingerprint)))
                hit_s.append(time.perf_counter() - t0)
    clear_caches()
    if traced:
        counts = state["counts"]
        counts["ledger.hits"] = ledger.hits
        counts["cache.sim_hits"], counts["cache.sim_misses"] = (
            state["cache_totals"]
        )
    for fingerprint, cold_c, warm_c in zip(
        fingerprints, cold["canonical"], warm["canonical"]
    ):
        out.check(None if warm_c == cold_c else "warm answer differs from cold",
                  f"warm {fingerprint}")
    out.check(
        None if warm["joint"] == cold["joint"]
        else "warm joint plan differs from cold",
        "warm pipeline",
    )
    bad = sum(
        1 for j, hit in hits
        if hit is None or hit["answer"] != cold["answers"][j]
    )
    out.count(len(hits), bad, "ledger answer differs from its cold tune")
    bench.sample(
        traced, op_s=op_s, warm_s=warm_s, hit_s=hit_s, cost_s=cold["costs"],
    )


def _summary(api, results, joint):
    """What the checks compare, so each pass's result objects can be
    freed before the next pass (their size would otherwise slow its
    garbage collections)."""
    return dict(
        canonical=[
            api.canonical_json(r.answer.canonical_record()) for r in results
        ],
        answers=[r.answer.to_record() for r in results],
        joint=(joint.decisions, joint.handoffs, _joint_cost(joint)),
        costs=[
            c for c in [r.answer.cost for r in results] + [_joint_cost(joint)]
            if math.isfinite(c)
        ],
    )


def _check_cold(out, fingerprints, results, joint):
    for fingerprint, result in zip(fingerprints, results):
        search, report = result.search, result.report
        seed_cost = search.seed_outcome.cost
        out.check(
            None if search.best.cost <= seed_cost
            else f"winner {search.best.cost!r} > seed {seed_cost!r}",
            f"cold {fingerprint}",
        )
        out.check(
            None if report is not None
            and report.total_time == result.answer.cost
            else f"report {report!r} does not price answer "
                 f"{result.answer.cost!r}",
            f"cold {fingerprint}",
        )
    joint_cost = _joint_cost(joint)
    independent = _joint_cost(joint, independent=True)
    out.check(
        None if joint_cost <= independent
        else f"joint plan {joint_cost!r} > independent {independent!r}",
        "pipeline",
    )


def _joint_cost(joint, independent=False) -> float:
    report = joint.independent_report if independent else joint.report
    return report.combined.total_time if report is not None else math.inf


def _count_search(counts, results, joint):
    searches = [r.search for r in results]
    searches += [r.search for r in joint.stage_results.values()]
    for name, attr in (
        ("tuner.space_size", "space_size"),
        ("tuner.simulated", "evaluations"),
        ("tuner.pruned_static", "pruned_static"),
        ("tuner.trace_executions", "trace_executions"),
        ("tuner.repriced", "repriced"),
        ("tuner.structures", "structures"),
    ):
        counts[name] = sum(getattr(s, attr) for s in searches)


def per_layer(state, bench) -> dict:
    out = dict(state["counts"])
    executed = out["tuner.trace_executions"] + out["tuner.repriced"]
    # Of the candidates that needed a verdict: settled statically, and
    # priced from a shared skeleton instead of a fresh trace.
    out["tuner.prune_ratio"] = out["tuner.pruned_static"] / (
        out["tuner.pruned_static"] + out["tuner.trace_executions"]
    )
    out["tuner.reprice_ratio"] = out["tuner.repriced"] / executed
    out["api.fingerprint_us"] = harness.fingerprint_us(state["requests"])
    return out
