"""Record ``expected_sim.json``: every sim-weak point's reference outcome.

The reference is the uncompressed ``mode="batched"`` interpreter, not
the orbit executor the benchmark measures. Run from the repository
root (slow: the 4096-node GEMMs take minutes each)::

    PYTHONPATH=src python3 perfbench/record_expected.py

Existing records are kept, so an interrupted run resumes where it
stopped; delete the file to record everything again.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sim_weak  # noqa: E402


def main() -> int:
    from repro.sim.params import LASSEN
    from repro.util.errors import OutOfMemoryError

    path = sim_weak.EXPECTED_PATH
    records = json.loads(path.read_text()) if path.exists() else {}
    # Cheapest first, so a partial file is as useful as it can be.
    todo = sorted(
        (p for p in sim_weak.catalog() if p.key not in records),
        key=lambda p: (p.kernel in sim_weak.GEMMS, p.nodes * (4 if p.gpu else 2)),
    )
    for point in todo:
        start = time.perf_counter()
        kernel = sim_weak.build(point)
        try:
            report = kernel.simulate(LASSEN, mode="batched")
            record = sim_weak.summarize(report)
        except OutOfMemoryError as err:
            record = sim_weak.summarize(oom=(
                err.memory_name, err.needed_bytes, err.capacity_bytes
            ))
        records[point.key] = record
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"{point.key}: {time.perf_counter() - start:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
