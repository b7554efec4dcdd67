"""Shared command-line plumbing for every ``python -m repro.*`` tool.

Each CLI (``repro.tune``, ``repro.bench``, ``repro.faults``,
``repro.analyze``, ``repro.obs``, ``repro.serve``) takes its shared
flags and the rules they carry from here:

* :func:`add_common_args` — the ``--ledger/--jobs/--seed/--json``
  group (``--json`` on every CLI, the others opt-in);
* :func:`add_cluster_args` / :func:`build_cluster` — the
  ``--nodes/--size/--gpu`` workload-cluster group, and
  :func:`workload` / :func:`pipeline_stages` — the problem ``--size``
  names, or the weak-scaled default for ``--nodes`` when it is unset;
* :func:`make_ledger` — the :class:`~repro.tuner.oracle.TuningLedger`
  at ``--ledger``: a ``.json`` file is a one-shard ledger, a directory
  (or a new path without a ``.json`` suffix) a root of shards like the
  serving daemon's;
* :func:`reporter`, :func:`print_metrics` / :func:`emit` — the human
  report, which ``--json`` silences, and the machine-readable
  alternative. Every CLI supports ``--json``; the payload always
  carries the metrics snapshot under ``"metrics"``;
* :func:`guarded` — the failure boundary: a run that raises prints its
  traceback and a one-line "… failed" message, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Dict


def add_common_args(
    parser: argparse.ArgumentParser,
    *,
    ledger: bool = True,
    jobs: bool = True,
    seed: bool = True,
    timeout: bool = False,
    jobs_default: int = 1,
) -> argparse.ArgumentParser:
    """Attach the shared ``--ledger/--jobs/--seed/--json`` group."""
    if ledger:
        parser.add_argument(
            "--ledger",
            default=None,
            help="tuning-ledger path: a .json file holds one shard, "
            "a directory (or extensionless new path) a root of shards; "
            "re-tunes are incremental either way",
        )
    if jobs:
        parser.add_argument(
            "--jobs",
            type=int,
            default=jobs_default,
            help="parallel forked worker slots (one child each)",
        )
    if seed:
        parser.add_argument(
            "--seed",
            type=int,
            default=0,
            help="deterministic search seed",
        )
    if timeout:
        parser.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-candidate wall-clock budget in seconds; a "
            "candidate that exceeds it becomes an oracle error "
            "instead of hanging the run",
        )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON summary on stdout "
        "instead of the human report",
    )
    return parser


def add_cluster_args(
    parser: argparse.ArgumentParser,
    *,
    nodes_default: int = 16,
    system_mem: bool = False,
) -> argparse.ArgumentParser:
    """Attach the shared ``--nodes/--size/--gpu`` cluster group."""
    parser.add_argument(
        "--nodes",
        type=int,
        default=nodes_default,
        help="cluster node count",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="problem side (default: the paper's weak-scaled size)",
    )
    parser.add_argument(
        "--gpu", action="store_true", help="Lassen GPU nodes (4 V100s)"
    )
    if system_mem:
        parser.add_argument(
            "--system-mem-gib",
            type=int,
            default=None,
            help="override CPU node memory (smaller values force the "
            "tuner off replication-heavy schedules)",
        )
    return parser


def build_cluster(args):
    """The cluster the shared ``--nodes/--gpu`` flags describe."""
    from repro.machine.cluster import Cluster

    if getattr(args, "gpu", False):
        return Cluster.gpu_cluster(args.nodes)
    system_mem = getattr(args, "system_mem_gib", None)
    if system_mem is not None:
        return Cluster.cpu_cluster(args.nodes, system_mem_gib=system_mem)
    return Cluster.cpu_cluster(args.nodes)


def workload(args):
    """The ``args.workload`` assignment at ``--size``, or weak-scaled
    to ``--nodes`` when ``--size`` is unset."""
    from repro.tuner.workloads import sized, weak_scaled

    if args.size is not None:
        return sized(args.workload, args.size)
    return weak_scaled(args.workload, args.nodes)


def pipeline_stages(args):
    """The ``args.pipeline`` stages, sized like :func:`workload`."""
    from repro.tuner import workloads

    if args.size is not None:
        return workloads.pipeline_stages(args.pipeline, args.size)
    return workloads.weak_scaled_pipeline(args.pipeline, args.nodes)


def make_ledger(args):
    """Open the ledger named by ``--ledger`` (None when unset)."""
    from repro.tuner.oracle import TuningLedger

    path = getattr(args, "ledger", None)
    return TuningLedger(path) if path is not None else None


def metrics_snapshot() -> Dict:
    from repro.obs.metrics import METRICS

    return METRICS.snapshot()


def _silent(*args, **kwargs) -> None:
    pass


def reporter(args):
    """``print`` for the human report; a no-op under ``--json``."""
    return _silent if getattr(args, "json", False) else print


def print_metrics(stream=None):
    """The registry snapshot, printed after a run's own summary."""
    stream = stream or sys.stdout
    print("== Metrics ==", file=stream)
    for name, value in metrics_snapshot().items():
        print(f"  {name} = {value}", file=stream)


def emit(args, payload: Dict) -> bool:
    """Under ``--json``, print ``payload`` (plus the metrics snapshot)
    as one JSON object and return True; otherwise return False so the
    caller prints its human report (typically ending with
    :func:`print_metrics`)."""
    if not getattr(args, "json", False):
        return False
    body = dict(payload)
    body.setdefault("metrics", metrics_snapshot())
    print(json.dumps(body, sort_keys=True, indent=1))
    return True


def guarded(failure: str, run, *args) -> int:
    """``run(*args)``'s exit status; when it raises, its traceback and
    ``failure`` go to stderr and the status is 1."""
    try:
        return run(*args)
    except Exception:
        traceback.print_exc()
        print(failure, file=sys.stderr)
        return 1


def ledger_failed(ledger, stream=None) -> bool:
    """Shared exit-path check: report unwritable ledgers loudly."""
    stream = stream or sys.stderr
    if ledger is not None and ledger.save_failures:
        print(
            f"tuning ledger could not be written to {ledger.path}",
            file=stream,
        )
        return True
    return False


def workload_sizes(assignment) -> Dict[str, tuple]:
    """Tensor name -> shape, for run banners and JSON payloads."""
    return {t.name: t.shape for t in assignment.tensors()}
