"""Serving throughput: the hit path must sustain >= 1,000 QPS while a
cold tune runs.

The acceptance bar for the schedule-serving daemon is that exact hits
never queue behind tuning: the answer index lives on the event loop,
misses are forked off through the sweep pool. This benchmark replays a
pipelined hit burst over one unix-socket connection *while a cold tune
of a different workload is in flight* and pins the floor.
"""

import time
from pathlib import Path

from repro.api import ScheduleRequest
from repro.machine.cluster import Cluster
from repro.serve.client import ScheduleClient
from repro.serve.daemon import ScheduleServer, start_background
from repro.tuner.workloads import sized

QPS_FLOOR = 1_000
BURST = 2_000


def test_hit_burst_sustains_qps_floor_during_cold_tune(tmp_path):
    hot = ScheduleRequest.from_assignment(
        sized("matmul", 256), Cluster.cpu_cluster(1)
    )
    # The cold tune must outlast the burst (about 0.3 s): on 16 nodes
    # it takes about 0.75 s once the tuner skips bounded candidates.
    cold = ScheduleRequest.from_assignment(
        sized("mttkrp", 128), Cluster.cpu_cluster(16)
    )
    server = ScheduleServer(
        tmp_path / "ledger",
        socket_path=str(tmp_path / "serve.sock"),
        tune_jobs=2,
    )
    handle = start_background(server)
    try:
        with ScheduleClient(
            socket_path=server.socket_path, timeout=600.0
        ) as client:
            assert client.schedule(hot)["status"] == "ok"  # prime

            pending = client.schedule(cold, wait=False)
            assert pending["status"] == "pending"

            start = time.monotonic()
            responses = client.schedule_batch([hot] * BURST)
            wall = time.monotonic() - start

            assert all(r["provenance"] == "hit" for r in responses)
            qps = BURST / wall
            print(f"\n{BURST} pipelined hits in {wall:.3f}s "
                  f"= {qps:,.0f} QPS (floor {QPS_FLOOR:,})")
            assert qps >= QPS_FLOOR, (
                f"hit path sustained only {qps:,.0f} QPS during a "
                f"concurrent cold tune (floor {QPS_FLOOR:,})"
            )

            # The cold tune was genuinely concurrent, and completes.
            finished = client.schedule(cold)
            assert finished["status"] == "ok"
            assert finished["provenance"] in ("tuned", "warm-started")
    finally:
        handle.stop()
    assert (Path(tmp_path) / "ledger").is_dir()
