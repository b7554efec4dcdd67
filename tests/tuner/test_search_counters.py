"""Tuner search counters: the 512-node tune's, counter for counter,
and where a TTV tune's surviving candidates went.

``python -m repro.tune --nodes 512 --jobs 1`` tunes the weak-scaled
square matmul on 512 CPU nodes. ``trace_executions`` counts
simulation-cache misses, so the tune runs against an empty cache, and
the process's cache is restored afterwards.
"""

from repro import api
from repro.bench.cache import SIM_CACHE
from repro.machine.cluster import Cluster
from repro.obs.metrics import METRICS
from repro.tuner.oracle import Oracle
from repro.tuner.search import tune
from repro.tuner.workloads import ttv, weak_scaled


def test_512_node_tune_counters():
    assignment = weak_scaled("matmul", 512)
    cluster = Cluster.cpu_cluster(512)
    request = api.ScheduleRequest.from_assignment(assignment, cluster)
    saved = SIM_CACHE.export()
    counts = SIM_CACHE.hits, SIM_CACHE.misses
    SIM_CACHE.clear()
    try:
        result = api.tune_request(
            request, assignment=assignment, cluster=cluster,
            jobs=1, max_dims=3,
        )
    finally:
        SIM_CACHE.clear()
        SIM_CACHE.install(saved)
        SIM_CACHE.hits, SIM_CACHE.misses = counts
    search = result.search
    assert (
        search.space_size, search.evaluations, search.trace_executions,
        search.pruned_static, search.bound_skipped, search.errors,
    ) == (988, 660, 138, 522, 328, 0)
    assert search.best.decision.encode() == (
        "grid=2x512;dist=i,j;out=face;leaf=gemm"
    )
    assert search.best.cost == 39.098207354184744


def _shared_metric():
    return METRICS.snapshot(sources=False).get("oracle.symmetry_shared", 0)


def _cold_tune(monkeypatch):
    """A TTV tune from an empty cache, with the ``SIM_CACHE`` hits taken
    inside the oracle's evaluations (``tune`` looks the winner up once
    more afterwards) and the ``oracle.symmetry_shared`` metric's
    growth."""
    hits = []
    evaluate = Oracle._evaluate

    def counted(self, *args):
        before = SIM_CACHE.hits
        try:
            return evaluate(self, *args)
        finally:
            hits.append(SIM_CACHE.hits - before)

    monkeypatch.setattr(Oracle, "_evaluate", counted)
    saved = SIM_CACHE.export()
    counts = SIM_CACHE.hits, SIM_CACHE.misses
    metric = _shared_metric()
    SIM_CACHE.clear()
    try:
        result = tune(ttv(64), Cluster.cpu_cluster(4))
    finally:
        SIM_CACHE.clear()
        SIM_CACHE.install(saved)
        SIM_CACHE.hits, SIM_CACHE.misses = counts
    return result.search, sum(hits), _shared_metric() - metric


def test_every_survivor_is_traced_hit_or_shared(monkeypatch):
    search, hits, metric = _cold_tune(monkeypatch)
    survivors = (
        search.evaluations + search.bound_skipped - search.pruned_static
    )
    assert search.symmetry_shared > 0
    assert search.bound_skipped > 0
    assert survivors == (
        search.trace_executions + hits + search.symmetry_shared
        + search.bound_skipped
    )
    assert metric == search.symmetry_shared
    assert f"{search.symmetry_shared} shared by symmetry" in (
        search.describe()
    )
