"""Command-line schedule serving: ``python -m repro.serve``.

Usage::

    python -m repro.serve --ledger DIR [--socket PATH | --port N]
        [--jobs 2] [--no-warm] [--timeout SECONDS]
        [--max-pending 64] [--line-limit BYTES]
    python -m repro.serve --ledger DIR --migrate OLD_LEDGER.json

Default mode runs the daemon over the tuning-ledger root at
``--ledger`` (a directory; a fresh root gets 8 shards) until a client
sends ``shutdown`` (or SIGINT/SIGTERM, both of which drain gracefully:
no new tunes admitted, in-flight ones finished, waiters answered). A
``.json`` ledger is refused with a one-line error: the daemon keeps
its quarantine store beside the shards. A unix socket (``--socket``)
is preferred; without one the daemon binds localhost TCP.

``--migrate`` copies every record of another ledger (typically a
one-shard ``.json`` file) into the ``--ledger`` ledger, routed to its
shards, and exits (the source is left untouched).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import cli
from repro.serve import protocol


def _run_daemon(args) -> int:
    import asyncio

    from repro.serve.daemon import ScheduleServer

    try:
        server = ScheduleServer(
            Path(args.ledger),
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            tune_jobs=args.jobs,
            warm_start=not args.no_warm,
            timeout_s=args.timeout,
            max_pending=args.max_pending,
            quarantine_after=args.quarantine_after,
            worker_retries=args.worker_retries,
            line_limit=args.line_limit,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    where = args.socket or f"{args.host}:{args.port}"
    print(
        f"serving schedules from {server.ledger.path} "
        f"({server.ledger.shards} shards, {len(server.index)} cached "
        f"answers) on {where}"
    )
    try:
        asyncio.run(server.serve_until_stopped())
    except KeyboardInterrupt:
        pass
    return 0


def _run_migrate(args) -> int:
    from repro.tuner.oracle import TuningLedger

    source = Path(args.migrate)
    if not source.exists():
        print(f"no such ledger: {source}", file=sys.stderr)
        return 1
    target = TuningLedger(args.ledger)
    target.copy_from(TuningLedger(source))
    target.save()
    entries = len(target)
    answers = len(target.answers)
    payload = {
        "migrated_from": str(source),
        "root": str(target.path),
        "shards": target.shards,
        "entries": entries,
        "answers": answers,
    }
    if not cli.emit(args, payload):
        print(
            f"migrated {entries} entries and {answers} answers from "
            f"{source} into {target.path} ({target.shards} shards)"
        )
    if target.save_failures:
        print(
            f"migration could not write {target.path}", file=sys.stderr
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve tuned schedules from a tuning-ledger root.",
    )
    parser.add_argument(
        "--socket",
        default=None,
        help="unix socket path (preferred over TCP)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=protocol.DEFAULT_PORT
    )
    parser.add_argument(
        "--migrate",
        metavar="LEDGER_JSON",
        default=None,
        help="copy this ledger's records into --ledger and exit",
    )
    parser.add_argument(
        "--no-warm",
        action="store_true",
        help="disable transfer warm-starting of misses",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="distinct misses allowed in flight before the daemon "
        "sheds with status 'overloaded'",
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        help="consecutive worker crashes before a request is "
        "quarantined with a durable infeasible answer",
    )
    parser.add_argument(
        "--worker-retries",
        type=int,
        default=2,
        help="crash retries per tune dispatch (with backoff)",
    )
    parser.add_argument(
        "--line-limit",
        type=int,
        default=1 << 20,
        help="per-line byte bound on the NDJSON stream (raise for "
        "very large einsum requests)",
    )
    cli.add_common_args(
        parser, seed=False, timeout=True, jobs_default=2
    )
    args = parser.parse_args(argv)
    if args.ledger is None:
        parser.error("--ledger DIR is required")
    run = _run_migrate if args.migrate is not None else _run_daemon
    return cli.guarded("serve run failed", run, args)


if __name__ == "__main__":
    sys.exit(main())
