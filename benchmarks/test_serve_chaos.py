"""Chaos soak: the serving layer under a seeded failure schedule.

The acceptance bar for the resilience layer, end to end: a request
burst runs while a :class:`~repro.faults.chaos.ChaosPlan` kills tune
workers mid-fork, drops client connections before replies, tears and
oversizes frames, crashes every dispatch of one poison request, and
restarts the daemon mid-burst. The scenario then pins the three
serving guarantees:

* **Exactness survives chaos** — every healthy request answers
  byte-identically to an offline in-process tune of the same request
  on every ask, crashes, retries, reconnects and the restart
  notwithstanding.
* **Deadlines hold** — no client call blocks meaningfully past its
  ``deadline_s`` (reconnect backoff is the only slack).
* **Quarantine caps re-tunes** — the poison request is dispatched at
  most ``quarantine_after`` times ever, then served as a durable
  infeasible-with-reason answer, including by the restarted daemon.

One scenario body runs two request shapes. ``SHORT`` is the CI
chaos-smoke shape (seeds 7 and 1): three healthy requests, the poison
asked once, and one fire-and-forget request polled after the restart.
``SOAK`` (seed 1017) cycles four healthy requests and asks the poison
twice. Each row pins its plan, the events that fired, and the digest
of the final answers, recorded from the seeded scenario: equal seeds
must replay byte for byte.
"""

import hashlib
import time
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.api import (
    QUARANTINED,
    ScheduleAnswer,
    ScheduleRequest,
    canonical_json,
    tune_request,
)
from repro.faults.chaos import ChaosController, ChaosPlan, PoisonRequest
from repro.machine.cluster import Cluster
from repro.obs.metrics import METRICS
from repro.serve.client import ScheduleClient
from repro.serve.daemon import ScheduleServer, start_background
from repro.tuner.workloads import sized

#: Reconnect/backoff slack on top of the daemon-enforced deadline.
DEADLINE_SLACK_S = 15.0


@dataclass(frozen=True)
class Shape:
    sizes: Tuple[int, ...]  # healthy matmul sides; the poison is 80
    healthy_ops: int  # healthy asks, cycling ``sizes``
    poison_at: Tuple[int, ...]  # poison insertions, applied in order
    operations: int  # ChaosPlan.sample's client-event range
    dispatches: int  # ... and its worker-kill range
    kills: int
    worker_retries: int
    quarantine_after: int
    deadline_s: float
    #: Fire-and-forget ``sizes[0]`` before the burst and poll it after
    #: the restart (the rebuilt shard index must serve it).
    pending: bool


#: kills=1 with worker_retries=1 and quarantine_after=2: a sampled kill
#: costs a healthy request one retry, never a quarantine; only the
#: poison request (crashes every attempt) reaches the cap.
SHORT = Shape(
    sizes=(48, 64, 96),
    healthy_ops=14,
    poison_at=(2,),
    operations=16,
    dispatches=4,
    kills=1,
    worker_retries=1,
    quarantine_after=2,
    deadline_s=120.0,
    pending=True,
)
#: The poison is asked after every healthy request tuned once, so the
#: sampled kills land on healthy forks, and again near the end, to
#: check the quarantined answer serves as a hit with no new dispatch.
SOAK = Shape(
    sizes=(48, 64, 96, 128),
    healthy_ops=16,
    poison_at=(6, 15),
    operations=18,
    dispatches=5,
    kills=2,
    worker_retries=2,
    quarantine_after=3,
    deadline_s=60.0,
    pending=False,
)

POISON_FP = "0822c960897817fb"
SHORT_DIGEST = (
    "3e616ca0f88c2fec4d2a63d0fb941cab3f9c6e42f3e658a16e0412a882cd005c"
)
ROWS = [
    pytest.param(
        7,
        SHORT,
        "seed=7;kill-worker(dispatch=2);drop(reply=4);drop(reply=6);"
        "torn(send=1);oversized(send=2,size=2097152);restart(after=9);"
        f"poison(fingerprint={POISON_FP})",
        dict(kills=0, poison=2, drops=2, torn=1, oversized=1),
        SHORT_DIGEST,
        id="short-seed7",
    ),
    # Seed 7's worker kill lands on the poison request; seed 1 also
    # fires one ordinary kill, on a worker that already served a miss.
    pytest.param(
        1,
        SHORT,
        "seed=1;kill-worker(dispatch=1);drop(reply=2);drop(reply=4);"
        "torn(send=3);oversized(send=15,size=2097152);restart(after=8);"
        f"poison(fingerprint={POISON_FP})",
        dict(kills=1, poison=2, drops=2, torn=1, oversized=1),
        SHORT_DIGEST,
        id="short-seed1",
    ),
    pytest.param(
        1017,
        SOAK,
        "seed=1017;kill-worker(dispatch=3);kill-worker(dispatch=4);"
        "drop(reply=3);drop(reply=6);torn(send=11);"
        "oversized(send=9,size=2097152);restart(after=6);"
        f"poison(fingerprint={POISON_FP})",
        dict(kills=2, poison=3, drops=2, torn=1, oversized=1),
        "8177cf238f43c4c399ac73dd4ad782dbddba0bb81e6acb3a4f513d4f5489ad57",
        id="soak-seed1017",
    ),
]


def _canon(answer_record) -> str:
    return canonical_json(
        ScheduleAnswer.from_record(answer_record).canonical_record()
    )


@pytest.mark.parametrize("seed, shape, plan_text, fired, digest", ROWS)
def test_chaos_soak_answers_stay_exact_and_bounded(
    tmp_path, seed, shape, plan_text, fired, digest
):
    healthy = [
        ScheduleRequest.from_assignment(
            sized("matmul", size), Cluster.cpu_cluster(1)
        )
        for size in shape.sizes
    ]
    poison = ScheduleRequest.from_assignment(
        sized("matmul", 80), Cluster.cpu_cluster(1)
    )
    assert poison.fingerprint() == POISON_FP
    offline = {
        r.fingerprint(): _canon(tune_request(r).answer.to_record())
        for r in healthy
    }

    sequence = [
        healthy[i % len(healthy)] for i in range(shape.healthy_ops)
    ]
    for index in shape.poison_at:
        sequence.insert(index, poison)

    plan = ChaosPlan.sample(
        seed,
        operations=shape.operations,
        dispatches=shape.dispatches,
        kills=shape.kills,
        drops=2,
        torn=1,
        oversized=1,
        restart=True,
    ).with_events(PoisonRequest(fingerprint=POISON_FP))
    assert plan.encode() == plan_text
    controller = ChaosController(plan)
    restart_after = plan.restart_after()
    print(f"\nchaos plan: {plan.encode()}")

    def new_server():
        return ScheduleServer(
            tmp_path / "ledger",
            socket_path=str(tmp_path / "serve.sock"),
            tune_jobs=2,
            worker_retries=shape.worker_retries,
            quarantine_after=shape.quarantine_after,
            retry_backoff_s=0.01,
            chaos=controller,
        )

    before = METRICS.snapshot(sources=False)
    start = time.monotonic()
    server = new_server()
    handle = start_background(server)
    client = ScheduleClient(
        socket_path=server.socket_path,
        timeout=shape.deadline_s + DEADLINE_SLACK_S,
        retries=8,
        backoff_s=0.05,
        chaos=controller,
    )
    responses = {}
    slowest = 0.0
    restarted = False
    pending = healthy[0] if shape.pending else None
    try:
        if pending is not None:
            client.schedule(pending, wait=False)
        for completed, request in enumerate(sequence):
            t0 = time.monotonic()
            response = client.schedule(request, deadline_s=shape.deadline_s)
            wall = time.monotonic() - t0
            slowest = max(slowest, wall)
            assert wall < shape.deadline_s + DEADLINE_SLACK_S, (
                f"op {completed} blocked {wall:.1f}s past its "
                f"{shape.deadline_s}s deadline"
            )
            responses.setdefault(request.fingerprint(), []).append(
                response
            )
            if not restarted and completed + 1 >= restart_after:
                restarted = True
                handle.stop()
                server = new_server()
                handle = start_background(server)
        if pending is not None:
            polled = client.poll(pending.fingerprint())
    finally:
        client.close()
        handle.stop()
    wall = time.monotonic() - start
    assert restarted

    # Every healthy request answered, byte-identical to the offline
    # tune — on every ask, before and after the restart.
    for fingerprint, expected in offline.items():
        answers = responses.get(fingerprint)
        assert answers, f"{fingerprint} never answered"
        for response in answers:
            assert response["status"] == "ok", response
            assert _canon(response["answer"]) == expected
    if pending is not None:
        assert polled["status"] == "ok", polled
        assert _canon(polled["answer"]) == offline[pending.fingerprint()]
    # The served answers equal the offline ones, so this digest pins
    # what every ask answered.
    assert hashlib.sha256(canonical_json(offline).encode()).hexdigest() == (
        digest
    )

    # The poison request was quarantined with a reason on every ask
    # (a second ask is served from the index): total dispatches stay
    # capped at the consecutive-crash threshold.
    for response in responses[POISON_FP]:
        assert response["status"] == "ok"
        assert response["provenance"] == QUARANTINED
        assert response["answer"]["cost"] == "infeasible"
        assert response["answer"]["quarantine_reason"]
    assert controller.poison_fired <= shape.quarantine_after, (
        f"poison request dispatched {controller.poison_fired} times "
        f"(cap {shape.quarantine_after})"
    )

    after = METRICS.snapshot(sources=False)
    delta = {
        name: after.get(name, 0) - before.get(name, 0)
        for name in after
        if name.startswith("serve.")
    }
    assert delta.get("serve.crashes", 0) >= shape.quarantine_after
    assert delta.get("serve.quarantined", 0) >= 1
    assert delta.get("serve.reconnects", 0) >= 1
    assert dict(
        kills=controller.kills_fired,
        poison=controller.poison_fired,
        drops=controller.drops_fired,
        torn=controller.torn_fired,
        oversized=controller.oversized_fired,
    ) == fired

    print(
        f"{len(sequence)} ops under chaos in {wall:.2f}s "
        f"(slowest op {slowest:.2f}s); fired: {fired}"
    )
    assert (tmp_path / "ledger").is_dir()
