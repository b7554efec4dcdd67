"""Chaos soak: the serving layer under a seeded failure schedule.

The acceptance bar for the resilience layer, end to end: a request
burst runs while a :class:`~repro.faults.chaos.ChaosPlan` kills tune
workers mid-fork, drops client connections before replies, tears and
oversizes frames, crashes every dispatch of one poison request, and
restarts the daemon mid-burst. The soak then pins the three serving
guarantees:

* **Exactness survives chaos** — every healthy request eventually
  answers byte-identically to an offline in-process tune of the same
  request, crashes, retries, reconnects and the restart notwithstanding.
* **Deadlines hold** — no client call blocks meaningfully past its
  ``deadline_s`` (reconnect backoff is the only slack).
* **Quarantine caps re-tunes** — the poison request is dispatched at
  most ``quarantine_after`` times ever, then served as a durable
  infeasible-with-reason answer, including by the restarted daemon.
"""

import time
from pathlib import Path

from repro.api import ScheduleRequest, canonical_json, tune_request
from repro.faults.chaos import ChaosController, ChaosPlan, PoisonRequest
from repro.machine.cluster import Cluster
from repro.obs.metrics import METRICS
from repro.serve.client import ScheduleClient
from repro.serve.daemon import ScheduleServer, start_background
from repro.tuner.workloads import sized

SEED = 1017
DEADLINE_S = 60.0
#: Reconnect/backoff slack on top of the daemon-enforced deadline.
DEADLINE_SLACK_S = 15.0
QUARANTINE_AFTER = 3
WORKER_RETRIES = 2


def _canonical(answer_record):
    from repro.api import ScheduleAnswer

    return ScheduleAnswer.from_record(answer_record).canonical_record()


def test_chaos_soak_answers_stay_exact_and_bounded(tmp_path):
    healthy = [
        ScheduleRequest.from_assignment(
            sized("matmul", size), Cluster.cpu_cluster(1)
        )
        for size in (48, 64, 96, 128)
    ]
    poison = ScheduleRequest.from_assignment(
        sized("matmul", 80), Cluster.cpu_cluster(1)
    )
    poison_fp = poison.fingerprint()
    offline = {
        r.fingerprint(): tune_request(r).answer.to_record()
        for r in healthy
    }

    rounds = 4
    # Each round cycles the healthy set; the poison request is asked
    # twice — once to get quarantined, once to verify the quarantined
    # answer serves as a hit without a single new dispatch.
    sequence = [healthy[i % len(healthy)] for i in range(rounds * 4)]
    # After every healthy request tuned once: the sampled worker kills
    # (dispatch indices below ``dispatches``) land on healthy forks,
    # not on the poison request's own crashes.
    sequence.insert(len(healthy) + 2, poison)
    sequence.insert(len(sequence) - 2, poison)
    operations = len(sequence)

    plan = ChaosPlan.sample(
        SEED,
        operations=operations,
        dispatches=len(healthy) + 1,
        kills=2,
        drops=2,
        torn=1,
        oversized=1,
        restart=True,
    ).with_events(PoisonRequest(fingerprint=poison_fp))
    controller = ChaosController(plan)
    restart_after = plan.restart_after() or operations // 2
    print(f"\nchaos plan: {plan.encode()}")

    def new_server():
        return ScheduleServer(
            tmp_path / "ledger",
            socket_path=str(tmp_path / "serve.sock"),
            tune_jobs=2,
            worker_retries=WORKER_RETRIES,
            quarantine_after=QUARANTINE_AFTER,
            retry_backoff_s=0.01,
            chaos=controller,
        )

    before = METRICS.snapshot(sources=False)
    start = time.monotonic()
    server = new_server()
    handle = start_background(server)
    client = ScheduleClient(
        socket_path=server.socket_path,
        timeout=DEADLINE_S + DEADLINE_SLACK_S,
        retries=8,
        backoff_s=0.05,
        chaos=controller,
    )
    responses = {}
    slowest = 0.0
    restarted = False
    try:
        for completed, request in enumerate(sequence):
            t0 = time.monotonic()
            response = client.schedule(request, deadline_s=DEADLINE_S)
            wall = time.monotonic() - t0
            slowest = max(slowest, wall)
            assert wall < DEADLINE_S + DEADLINE_SLACK_S, (
                f"op {completed} blocked {wall:.1f}s past its "
                f"{DEADLINE_S}s deadline"
            )
            responses.setdefault(request.fingerprint(), []).append(
                response
            )
            if not restarted and completed + 1 >= restart_after:
                restarted = True
                handle.stop()
                server = new_server()
                handle = start_background(server)
    finally:
        client.close()
        handle.stop()
    wall = time.monotonic() - start

    # Every healthy request answered, byte-identical to the offline
    # tune — on every ask, before and after the restart.
    for fingerprint, expected in offline.items():
        answers = responses[fingerprint]
        assert answers, f"{fingerprint} never answered"
        for response in answers:
            assert response["status"] == "ok", response
            assert canonical_json(
                _canonical(response["answer"])
            ) == canonical_json(_canonical(expected))

    # The poison request was quarantined with a reason, and its second
    # ask was served from the index: total dispatches stay capped at
    # the consecutive-crash threshold.
    for response in responses[poison_fp]:
        assert response["status"] == "ok"
        assert response["provenance"] == "quarantined"
        assert response["answer"]["cost"] == "infeasible"
        assert response["answer"]["quarantine_reason"]
    assert controller.poison_fired <= QUARANTINE_AFTER, (
        f"poison request dispatched {controller.poison_fired} times "
        f"(cap {QUARANTINE_AFTER})"
    )

    after = METRICS.snapshot(sources=False)
    delta = {
        name: after.get(name, 0) - before.get(name, 0)
        for name in after
        if name.startswith("serve.")
    }
    assert delta.get("serve.crashes", 0) >= QUARANTINE_AFTER
    assert delta.get("serve.quarantined", 0) >= 1
    assert delta.get("serve.reconnects", 0) >= 1
    assert controller.kills_fired >= 1, "no healthy worker was killed"
    assert controller.drops_fired + controller.torn_fired >= 2

    print(
        f"{operations} ops under chaos in {wall:.2f}s "
        f"(slowest op {slowest:.2f}s); fired: "
        f"kills={controller.kills_fired} "
        f"poison={controller.poison_fired} "
        f"drops={controller.drops_fired} "
        f"torn={controller.torn_fired} "
        f"oversized={controller.oversized_fired} restart=1"
    )
    assert (Path(tmp_path) / "ledger").is_dir()
