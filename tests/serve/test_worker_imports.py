"""The daemon's pre-fork imports hold the whole tune closure: a forked
worker's cold and warm-started tunes import no module of their own, so
no miss pays for compiling one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.api import ScheduleRequest
from repro.machine.cluster import Cluster
from repro.tuner.workloads import sized

SRC = str(Path(repro.__file__).resolve().parents[1])

TUNE_AFTER_DAEMON_IMPORT = """
import json, sys

import repro.serve.daemon  # what the daemon has loaded when it forks

cold, warm, ledger = json.load(sys.stdin)
before = set(sys.modules)
from repro.serve.worker import serve_tune

rows = [serve_tune(cold, ledger_path=ledger)]
rows.append(serve_tune(
    warm, ledger_path=ledger, warm=rows[0]["answer"]["decision"]
))
print(json.dumps({
    "statuses": [row["status"] for row in rows],
    "new": sorted(
        m for m in set(sys.modules) - before if m.startswith("repro")
    ),
}))
"""


def test_cold_and_warm_tunes_import_nothing_after_the_fork(tmp_path):
    cold, warm = (
        ScheduleRequest.from_assignment(
            sized("matmul", n), Cluster.cpu_cluster(2)
        ).to_record()
        for n in (64, 96)
    )
    out = subprocess.run(
        [sys.executable, "-c", TUNE_AFTER_DAEMON_IMPORT],
        input=json.dumps([cold, warm, str(tmp_path / "ledger")]),
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    result = json.loads(out.stdout)
    assert result["statuses"] == ["ok", "ok"]
    assert result["new"] == []
