"""The 512-node beam tune's search, counter for counter.

``python -m repro.tune --nodes 512 --strategy beam --jobs 1`` tunes the
weak-scaled square matmul on 512 CPU nodes; the values below were
recorded before the tune shared machines and canonical forms across
its candidates, none of which may change a count or the
winner. ``trace_executions`` counts simulation-cache misses, so the
tune runs against an empty cache, and the process's cache is restored
afterwards.
"""

from repro import api
from repro.bench.cache import SIM_CACHE
from repro.machine.cluster import Cluster
from repro.tuner.workloads import weak_scaled


def test_512_node_beam_tune_counters():
    assignment = weak_scaled("matmul", 512)
    cluster = Cluster.cpu_cluster(512)
    request = api.ScheduleRequest.from_assignment(assignment, cluster)
    saved = SIM_CACHE.export()
    counts = SIM_CACHE.hits, SIM_CACHE.misses
    SIM_CACHE.clear()
    try:
        result = api.tune_request(
            request, assignment=assignment, cluster=cluster,
            strategy="beam", beam_width=8, jobs=1, max_dims=3,
        )
    finally:
        SIM_CACHE.clear()
        SIM_CACHE.install(saved)
        SIM_CACHE.hits, SIM_CACHE.misses = counts
    search = result.search
    assert (
        search.space_size, search.evaluations, search.trace_executions,
        search.pruned_static, search.errors,
    ) == (988, 342, 210, 522, 0)
    assert search.best.decision.encode() == (
        "grid=2x512;dist=i,j;out=face;leaf=gemm"
    )
    assert search.best.cost == 39.098207354184744
