"""Command-line schedule serving: ``python -m repro.serve``.

Usage::

    python -m repro.serve --ledger DIR [--socket PATH | --port N]
        [--jobs 2] [--no-warm] [--timeout SECONDS]
        [--max-pending 64] [--line-limit BYTES]
    python -m repro.serve --ledger DIR --migrate OLD_LEDGER.json
    python -m repro.serve --smoke [--json]
    python -m repro.serve --chaos [--seed N] [--json]

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

``--smoke`` is the CI serve-smoke job: it starts a daemon on a
temporary unix socket, replays a canned mixed hit/miss/warm trace
with the client, and exits non-zero unless

* hit answers are byte-identical to offline ``Kernel.tune`` answers
  for the same request (canonical payload comparison);
* a warm-started miss executed strictly fewer oracle simulations than
  the cold tune of the same request;
* concurrent identical misses were deduplicated in flight;
* a pipelined hit burst completed while a cold tune was still
  running (the hit path never blocks on tuning);
* the ``serve.*`` counters account for all of the above, and the
  error, crash, quarantine, shed and drain counters stay at zero.

``--chaos`` is the CI chaos-smoke job: a seeded
:class:`repro.faults.chaos.ChaosPlan` (worker kills, a poison request,
dropped connections, torn and oversized frames, one daemon restart
mid-burst) replayed against a temporary daemon. It exits non-zero
unless every healthy request's final answer is byte-identical to the
offline tune, the poison request was quarantined at the crash cap, and
the client recovered every injected failure. The JSON payload includes
``answers_digest`` — equal seeds must produce equal digests, which is
what the CI job asserts by running the scenario twice.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
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


def _canon(answer_record) -> str:
    from repro.api import ScheduleAnswer, canonical_json

    return canonical_json(
        ScheduleAnswer.from_record(answer_record).canonical_record()
    )


#: Counters a healthy smoke trace leaves at zero: any failed request,
#: crashed or quarantined tune, shed miss or drain error fails it.
ZERO_COUNTERS = (
    "serve.errors",
    "serve.crashes",
    "serve.quarantined",
    "serve.shed",
    "serve.drained",
)


def _run_smoke(args) -> int:
    """The CI serve-smoke trace (see the module docstring)."""
    import tempfile

    from repro.api import ScheduleRequest, tune_request
    from repro.machine.cluster import Cluster
    from repro.serve.client import ScheduleClient
    from repro.serve.daemon import ScheduleServer, start_background
    from repro.tuner.workloads import sized

    failures = []
    cold = ScheduleRequest.from_assignment(
        sized("matmul", 256), Cluster.cpu_cluster(1)
    )
    warm = ScheduleRequest.from_assignment(
        sized("matmul", 512), Cluster.cpu_cluster(2)
    )
    burst_tune = ScheduleRequest.from_assignment(
        sized("ttm", 128), Cluster.cpu_cluster(2)
    )

    # Offline ground truth, through the same unified API the daemon
    # uses: the hit answer must be byte-identical to this, and the
    # warm-started tune strictly cheaper than this cold one.
    offline_cold = tune_request(cold)
    offline_warm_as_cold = tune_request(warm)

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        sock = str(Path(tmp) / "serve.sock")
        server = ScheduleServer(
            Path(tmp) / "ledger",
            socket_path=sock,
            tune_jobs=args.jobs,
            timeout_s=args.timeout,
        )
        handle = start_background(server)
        try:
            with ScheduleClient(socket_path=sock, timeout=600.0) as c:
                if not c.ping():
                    failures.append("ping failed")

                # Miss -> cold tune.
                first = c.schedule(cold)
                if first.get("provenance") != "tuned":
                    failures.append(
                        f"first query should tune, got {first}"
                    )

                # In-flight dedup: identical misses share one tune.
                c.schedule(warm, wait=False)
                c.schedule(warm, wait=False)
                warmed = c.schedule(warm)  # joins the in-flight tune
                if warmed.get("status") != "ok":
                    failures.append(f"warm query failed: {warmed}")

                # Hit burst while a cold tune is in flight.
                c.schedule(burst_tune, wait=False)
                burst = 200
                start = time.monotonic()
                responses = c.schedule_batch([cold] * burst)
                wall = time.monotonic() - start
                hit_rate = burst / wall if wall > 0 else float("inf")
                bad = [
                    r for r in responses
                    if r.get("provenance") != "hit"
                    or r.get("status") != "ok"
                ]
                if bad:
                    failures.append(
                        f"{len(bad)}/{burst} burst queries were not "
                        f"clean hits (first: {bad[0]})"
                    )
                hit_answer = responses[0].get("answer", {})

                # Drain the background tune before stopping.
                finished = c.schedule(burst_tune)
                if finished.get("status") != "ok":
                    failures.append(
                        f"background tune failed: {finished}"
                    )
                stats = c.stats()
        finally:
            handle.stop()

    # Byte-identity: served hit vs offline Kernel.tune-path answer.
    if _canon(hit_answer) != _canon(offline_cold.answer.to_record()):
        failures.append(
            "hit answer is not byte-identical to the offline tune:\n"
            f"  served:  {_canon(hit_answer)}\n"
            f"  offline: {_canon(offline_cold.answer.to_record())}"
        )

    # Transfer warm-starting: strictly fewer simulations than cold.
    warm_answer = warmed.get("answer", {})
    cold_evals = offline_warm_as_cold.search.evaluations
    warm_evals = warm_answer.get("evaluations", cold_evals)
    if warm_answer.get("provenance") != "warm-started":
        failures.append(
            f"expected a warm-started tune, got "
            f"{warm_answer.get('provenance')!r}"
        )
    elif not warm_evals < cold_evals:
        failures.append(
            f"warm-started tune ran {warm_evals} simulations, cold "
            f"ran {cold_evals}: not strictly fewer"
        )

    counters = stats.get("counters", {})
    for name, floor in (
        ("serve.hits", 200),
        ("serve.misses", 3),
        ("serve.deduped", 1),
        ("serve.tunes", 3),
        ("serve.warm_started", 1),
    ):
        if counters.get(name, 0) < floor:
            failures.append(
                f"counter {name} = {counters.get(name, 0)}, "
                f"expected >= {floor}"
            )
    for name in ZERO_COUNTERS:
        if counters.get(name, 0):
            failures.append(f"{name} = {counters[name]} during smoke")

    payload = {
        "failures": failures,
        "hit_qps": round(hit_rate, 1),
        "warm_evaluations": warm_evals,
        "cold_evaluations": cold_evals,
        "counters": counters,
    }
    if not cli.emit(args, payload):
        print(
            f"smoke: {200} pipelined hits at ~{hit_qps_text(hit_rate)} "
            f"during a live tune; warm {warm_evals} vs cold "
            f"{cold_evals} simulations"
        )
        for name, value in sorted(counters.items()):
            print(f"  {name} = {value}")
        cli.print_metrics()
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    if not failures and not args.json:
        print("serve smoke OK: hits byte-identical, warm tune cheaper")
    return 1 if failures else 0


def hit_qps_text(rate: float) -> str:
    return f"{rate:,.0f} QPS"


def _run_chaos(args) -> int:
    """The CI chaos-smoke scenario (see the module docstring)."""
    import hashlib
    import tempfile

    from repro.api import (
        QUARANTINED,
        ScheduleRequest,
        canonical_json,
        tune_request,
    )
    from repro.faults.chaos import ChaosController, ChaosPlan, PoisonRequest
    from repro.machine.cluster import Cluster
    from repro.serve.client import ScheduleClient
    from repro.serve.daemon import ScheduleServer, start_background
    from repro.tuner.workloads import sized

    failures = []
    seed = args.seed
    healthy = [
        ScheduleRequest.from_assignment(
            sized("matmul", size), Cluster.cpu_cluster(1)
        )
        for size in (48, 64, 96)
    ]
    poison = ScheduleRequest.from_assignment(
        sized("matmul", 80), Cluster.cpu_cluster(1)
    )
    poison_fp = poison.fingerprint()

    # Offline ground truth through the same unified engine.
    offline = {
        r.fingerprint(): _canon(tune_request(r).answer.to_record())
        for r in healthy
    }

    rounds = 4
    operations = rounds * len(healthy) + 4
    # kills=1 with worker_retries=1 and quarantine_after=2: a sampled
    # kill costs a healthy request one retry, never a quarantine; only
    # the poison request (crashes every attempt) reaches the cap.
    plan = ChaosPlan.sample(
        seed,
        operations=operations,
        dispatches=4,
        kills=1,
        drops=2,
        torn=1,
        oversized=1,
        restart=True,
    ).with_events(PoisonRequest(poison_fp))
    restart_after = plan.restart_after() or (operations // 2)
    controller = ChaosController(plan)

    quarantine_after = 2

    def new_server(tmp):
        return ScheduleServer(
            Path(tmp) / "ledger",
            socket_path=str(Path(tmp) / "serve.sock"),
            tune_jobs=args.jobs,
            timeout_s=args.timeout,
            worker_retries=1,
            quarantine_after=quarantine_after,
            retry_backoff_s=0.01,
            chaos=controller,
        )

    answers = {}
    poison_responses = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        server = new_server(tmp)
        handle = start_background(server)
        client = ScheduleClient(
            socket_path=server.socket_path,
            timeout=120.0,
            retries=8,
            backoff_s=0.05,
            chaos=controller,
        )
        try:
            # Fire-and-forget one request now; poll it after the
            # restart (the rebuilt shard index must serve it).
            pending_fp = healthy[0].fingerprint()
            client.schedule(healthy[0], wait=False)

            sequence = [
                healthy[i % len(healthy)] for i in range(operations - 2)
            ]
            sequence.insert(2, poison)
            completed = 0
            restarted = False
            for request in sequence:
                fp = request.fingerprint()
                response = client.schedule(request, deadline_s=120.0)
                completed += 1
                if fp == poison_fp:
                    poison_responses.append(response)
                elif response.get("status") == "ok":
                    answers[fp] = _canon(response["answer"])
                else:
                    failures.append(
                        f"healthy request {fp} failed: {response}"
                    )
                if not restarted and completed >= restart_after:
                    restarted = True
                    handle.stop()
                    server = new_server(tmp)
                    handle = start_background(server)

            if not restarted:
                handle.stop()
                server = new_server(tmp)
                handle = start_background(server)

            polled = client.poll(pending_fp)
            if polled.get("status") != "ok":
                failures.append(
                    f"poll after restart failed: {polled}"
                )
            elif _canon(polled["answer"]) != offline[pending_fp]:
                failures.append(
                    "polled answer diverged from the offline tune"
                )
            stats = client.stats()
        finally:
            client.close()
            handle.stop()

    for fp, canon in answers.items():
        if canon != offline[fp]:
            failures.append(
                f"served answer for {fp} is not byte-identical to "
                f"the offline tune"
            )
    missing = set(offline) - set(answers)
    if missing:
        failures.append(f"no final answer for {sorted(missing)}")

    quarantined = [
        r for r in poison_responses
        if r.get("provenance") == QUARANTINED
    ]
    if not quarantined:
        failures.append(
            f"poison request was never quarantined: {poison_responses}"
        )

    counters = stats.get("counters", {})
    if counters.get("serve.crashes", 0) < quarantine_after:
        failures.append(
            f"expected >= {quarantine_after} detected worker crashes, "
            f"saw {counters.get('serve.crashes', 0)}"
        )
    if counters.get("serve.quarantined", 0) < 1:
        failures.append("serve.quarantined never incremented")
    if counters.get("serve.reconnects", 0) < 1:
        failures.append(
            "client never reconnected despite injected drops"
        )

    digest = hashlib.sha256(
        canonical_json(
            {fp: answers[fp] for fp in sorted(answers)}
        ).encode()
    ).hexdigest()
    payload = {
        "seed": seed,
        "plan": plan.encode(),
        "events_fired": {
            "kills": controller.kills_fired,
            "poison": controller.poison_fired,
            "drops": controller.drops_fired,
            "torn": controller.torn_fired,
            "oversized": controller.oversized_fired,
        },
        "answers_digest": digest,
        "counters": counters,
        "failures": failures,
    }
    if not cli.emit(args, payload):
        print(
            f"chaos seed {seed}: plan [{plan.encode()}]\n"
            f"  fired: {payload['events_fired']}\n"
            f"  answers_digest: {digest}"
        )
        for name, value in sorted(counters.items()):
            print(f"  {name} = {value}")
    for failure in failures:
        print(f"CHAOS FAILURE: {failure}", file=sys.stderr)
    if not failures and not args.json:
        print(
            "chaos smoke OK: every answer byte-identical, poison "
            "quarantined, client recovered every injected failure"
        )
    return 1 if failures else 0


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
        "--smoke",
        action="store_true",
        help="self-contained hit/miss/warm trace against a temporary "
        "daemon; non-zero exit on any mismatch (the CI job)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="seeded chaos scenario (worker kills, poison request, "
        "dropped/torn/oversized frames, daemon restart) against a "
        "temporary daemon; non-zero exit unless every failure is "
        "recovered (the CI chaos-smoke job)",
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
        parser, timeout=True, jobs_default=2
    )
    args = parser.parse_args(argv)

    try:
        if args.smoke:
            return _run_smoke(args)
        if args.chaos:
            return _run_chaos(args)
        if args.ledger is None:
            parser.error(
                "--ledger DIR is required (except --smoke/--chaos)"
            )
        if args.migrate is not None:
            return _run_migrate(args)
        return _run_daemon(args)
    except Exception:
        traceback.print_exc()
        print("serve run failed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
