"""Search strategies over the schedule space.

Two strategies, picked automatically by space size:

* **exhaustive** — simulate every canonical candidate at full scale;
  right for the small spaces of low processor counts.
* **beam + successive halving** — score the whole space on a *coarse*
  projection first (grids shrunk toward ``coarse_procs`` processors, the
  problem weak-scaled down to match, a proportionally smaller cluster),
  then promote a geometrically shrinking beam of survivors through
  intermediate sizes up to the full machine. Only the final beam — plus
  the heuristic seed, which is never eliminated — is simulated at full
  scale, so the 512-node space costs a few full-size simulations
  instead of thousands.

Both are deterministic: candidate order is the canonical-key order,
ties break on the key, and the only randomness (sampling an oversized
rung 0) comes from an explicit ``seed``. Two runs with the same seed
therefore evaluate the same candidates and write identical ledgers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster
from repro.machine.machine import Machine
from repro.sim.params import LASSEN, MachineParams
from repro.tuner.oracle import (
    EvalOutcome,
    Oracle,
    TuningLedger,
)
from repro.tuner.space import (
    Decision,
    coarsen,
    enumerate_space,
    from_heuristic,
    scale_assignment,
    warm_variants,
)

#: Spaces at most this large are searched exhaustively under
#: ``strategy="auto"``.
EXHAUSTIVE_THRESHOLD = 128

#: Beam search's promotion factor: each rung has ``ETA`` times the
#: processors of the one below and keeps ``beam_width * ETA**r``
#: survivors, ``r`` rungs from the top.
ETA = 4

#: Rung 0 scores at most this many candidates; a larger space is
#: sampled down (seeded) before the coarse projection.
MAX_RUNG0 = 4096

#: How many top-ranked outcomes a search keeps for its callers (the
#: joint pipeline tuner builds per-stage candidate pools from these).
RANKED_KEEP = 32


@dataclass
class SearchOutcome:
    """Everything a tuning run decided and measured."""

    best: EvalOutcome
    seed_outcome: EvalOutcome
    strategy: str
    space_size: int
    evaluations: int
    rungs: List[Dict] = field(default_factory=list)
    #: Top outcomes of the final (full-scale) rung, best first.
    ranked: List[EvalOutcome] = field(default_factory=list)
    #: Candidates whose compile/simulation *errored* (OOMs excluded).
    errors: int = 0
    #: Candidates the static analyzer rejected before any simulation
    #: (provable OOMs and dominated leaves — see
    #: :mod:`repro.analysis.prune`).
    pruned_static: int = 0
    #: Candidates that missed ``SIM_CACHE`` and ran a trace (see
    #: :mod:`repro.tuner.oracle`).
    trace_executions: int = 0
    #: Candidates given their index-symmetry class leader's outcome
    #: instead of a simulation (see :class:`~repro.tuner.oracle.Oracle`).
    symmetry_shared: int = 0
    #: Final-rung candidates skipped because a static time lower bound
    #: proved they cannot reach :data:`RANKED_KEEP` (see
    #: :meth:`~repro.tuner.oracle.Oracle.evaluate_top`).
    bound_skipped: int = 0
    #: Always 0; kept only because ``perfbench/tune_cold.py`` reads
    #: them. A ``benchmark`` change drops both (ROADMAP item 9).
    repriced: int = 0
    structures: int = 0

    @property
    def improved(self) -> bool:
        """Did the search beat the heuristic seed?"""
        return self.best.cost < self.seed_outcome.cost

    def describe(self) -> str:
        lines = [
            f"strategy {self.strategy}: {self.space_size} candidates, "
            f"{self.evaluations} evaluated "
            f"({self.pruned_static} statically pruned, "
            f"{self.trace_executions} trace executions, "
            f"{self.symmetry_shared} shared by symmetry), "
            f"{self.bound_skipped} skipped by bound",
        ]
        for rung in self.rungs:
            lines.append(
                f"  rung @{rung['procs']} procs: {rung['candidates']} "
                f"candidates -> {rung['survivors']} survivors"
            )
        seed = self.seed_outcome
        seed_cost = "OOM" if not seed.feasible else f"{seed.cost:.4f}s"
        lines.append(f"  heuristic seed: {seed_cost} ({seed.decision.encode()})")
        best_cost = (
            "infeasible" if not self.best.feasible
            else f"{self.best.cost:.4f}s"
        )
        lines.append(
            f"  best: {best_cost} ({self.best.decision.encode()})"
        )
        return "\n".join(lines)


def _rank(outcomes: Sequence[EvalOutcome]) -> List[EvalOutcome]:
    return sorted(outcomes, key=lambda o: (o.cost, o.decision.key()))


def _evaluate_final(
    assignment: Assignment,
    oracle: Oracle,
    decisions: List[Decision],
    seed_decision: Optional[Decision],
) -> List[EvalOutcome]:
    """The final rung's outcomes: with a ``seed_decision``, only those
    that can reach the top :data:`RANKED_KEEP` (bound-ordered, see
    :meth:`~repro.tuner.oracle.Oracle.evaluate_top`); otherwise all."""
    if seed_decision is None:
        return oracle.evaluate(assignment, decisions)
    return oracle.evaluate_top(
        assignment, decisions, RANKED_KEEP, seed_decision
    )


def exhaustive_search(
    assignment: Assignment,
    oracle: Oracle,
    decisions: Sequence[Decision],
    seed_decision: Optional[Decision] = None,
) -> Tuple[List[EvalOutcome], List[Dict]]:
    """Every candidate at full scale, ranked. Given the
    ``seed_decision`` (simulated first), the ranking is exact only in
    its top :data:`RANKED_KEEP`: the candidates a static time bound
    proves cannot reach it are skipped and left out."""
    outcomes = _evaluate_final(
        assignment, oracle, list(decisions), seed_decision
    )
    rung = {
        "procs": oracle.cluster.num_processors,
        "candidates": len(decisions),
        "survivors": 1,
    }
    return _rank(outcomes), [rung]


def _problem_exponent(assignment: Assignment) -> float:
    """Weak-scaling exponent: per-processor footprint is preserved when
    extents scale with procs^(1/ndim) of the largest tensor."""
    ndim = max((t.ndim for t in assignment.tensors()), default=1)
    return 1.0 / max(1, ndim if ndim else 1)


def beam_search(
    assignment: Assignment,
    oracle: Oracle,
    decisions: Sequence[Decision],
    seed_decision: Decision,
    beam_width: int = 8,
    coarse_procs: int = 64,
    seed: int = 0,
    protected: Sequence[Decision] = (),
    bound_skip: bool = False,
) -> Tuple[List[EvalOutcome], List[Dict]]:
    """Successive halving from a coarse projection up to full scale.

    Returns the final-rung outcomes (full scale, ranked) and per-rung
    statistics. The seed decision survives every cut, so the final
    ranking always contains the heuristic; ``protected`` decisions
    (e.g. warm-start projections of a pre-failure winner) get the same
    immunity. With ``bound_skip`` the full-scale rung is ranked exactly
    only in its top :data:`RANKED_KEEP`, as in :func:`exhaustive_search`.

    Two guards keep the coarse rungs honest:

    * candidates that are *statically* infeasible at full scale (their
      home-instance memory lower bound exceeds capacity — replication
      footprints shrink relative to capacity under coarsening, so the
      coarse rung alone would rank them well) are pinned to infinite
      cost on every rung instead of being simulated coarsely;
    * if the final full-scale rung comes back with no feasible
      candidate anyway, the beam is refilled with the next-ranked
      survivors of the previous rung until one fits or the space is
      exhausted.
    """
    full_procs = oracle.cluster.num_processors
    rng = random.Random(seed)
    pinned = [seed_decision] + [
        d for d in protected if d != seed_decision
    ]
    candidates = list(decisions)
    for d in pinned:
        if d not in candidates:
            candidates.append(d)
    candidates.sort(key=Decision.key)
    if len(candidates) > MAX_RUNG0:
        keep = set(rng.sample(range(len(candidates)), MAX_RUNG0))
        sampled = [c for i, c in enumerate(candidates) if i in keep]
        for d in pinned:
            if d not in sampled:
                sampled.append(d)
        candidates = sampled
    # Rung ladder: coarse, coarse*ETA, ..., full.
    targets: List[int] = []
    procs = min(coarse_procs, full_procs)
    while procs < full_procs:
        targets.append(procs)
        procs *= ETA
    targets.append(full_procs)

    # Full-scale static verdicts, for the coarse rungs to honour (a
    # lone full-scale rung gets them from the oracle).
    dead: Dict[Decision, str] = {}
    if len(targets) > 1:
        for c in candidates:
            reason = oracle.prune_reason(assignment, c)
            if reason is not None:
                dead[c] = reason

    exponent = _problem_exponent(assignment)
    rungs: List[Dict] = []
    prev_ranking: List[Decision] = []
    rung0_ranking: List[Decision] = []
    for level, procs in enumerate(targets):
        last = level == len(targets) - 1
        if last:
            # Each pruned candidate counts once: the oracle counts the
            # ones it evaluates here, the rest were cut on coarse rungs.
            tried = set(candidates)
            oracle.pruned_static += sum(1 for d in dead if d not in tried)
            outcomes = _evaluate_final(
                assignment, oracle, candidates,
                seed_decision if bound_skip else None,
            )
            ranked = _rank(outcomes)
            # Refill: if nothing in the beam fits at full scale, pull
            # the next-ranked survivors of the previous rung, then —
            # because coarse rungs are blind to fetch-staging OOMs that
            # only appear at scale — fall all the way back to the full
            # rung-0 ranking before giving up.
            pool = [
                d for d in prev_ranking
                if d not in tried and d not in dead
            ]
            pool += [
                d for d in rung0_ranking
                if d not in tried and d not in set(pool) and d not in dead
            ]
            while pool and not any(o.feasible for o in ranked):
                refill, pool = pool[:beam_width], pool[beam_width:]
                candidates = candidates + refill
                ranked = _rank(
                    ranked + oracle.evaluate(assignment, refill)
                )
            rungs.append({
                "procs": procs,
                "candidates": len(candidates),
                "survivors": 1,
            })
            return ranked, rungs
        cluster = oracle.cluster
        coarse_cluster = cluster.resized(
            max(1, procs // cluster.procs_per_node)
        )
        actual = coarse_cluster.num_processors
        scale = (actual / full_procs) ** exponent
        coarse_assignment = scale_assignment(assignment, scale)
        coarse_oracle = oracle.for_cluster(coarse_cluster)
        alive = [c for c in candidates if c not in dead]
        coarse_outcomes = dict(zip(alive, coarse_oracle.evaluate(
            coarse_assignment, [coarsen(c, actual) for c in alive]
        )))
        oracle.merge_counters(coarse_oracle)
        outcomes = []
        for original in candidates:
            if original in dead:
                outcomes.append(
                    EvalOutcome.pruned_by(original, dead[original])
                )
                continue
            co = coarse_outcomes[original]
            outcomes.append(EvalOutcome(
                decision=original,
                cost=co.cost,
                oom=co.oom,
                error=co.error,
                comm_time=co.comm_time,
                compute_time=co.compute_time,
                inter_node_bytes=co.inter_node_bytes,
                max_memory_bytes=co.max_memory_bytes,
            ))
        ranked = _rank(outcomes)
        prev_ranking = [o.decision for o in ranked]
        if level == 0:
            rung0_ranking = prev_ranking
        remaining = len(targets) - 1 - level
        keep = max(beam_width * ETA ** (remaining - 1), beam_width)
        survivors = [o.decision for o in ranked[:keep]]
        for d in pinned:
            if d not in survivors:
                survivors.append(d)
        rungs.append({
            "procs": procs,
            "candidates": len(candidates),
            "survivors": len(survivors),
        })
        candidates = survivors
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class TuneResult:
    """What ``Kernel.tune`` hands back: an ordinary schedule + formats.

    ``schedule``/``formats`` replay deterministically from ``decision``
    (see :func:`repro.tuner.space.realize`); ``kernel`` is the compiled
    result and ``report`` its simulation on the tuned machine.
    """

    decision: Decision
    schedule: object
    formats: Dict[str, object]
    machine: Machine
    kernel: object
    report: object
    search: SearchOutcome
    #: The canonical :class:`repro.api.ScheduleAnswer` when the tune
    #: came through the unified API (``Kernel.tune``, the serving
    #: daemon); ``None`` for direct :func:`tune` calls.
    answer: object = None

    def describe(self) -> str:
        lines = [f"tuned schedule: {self.decision.describe()}"]
        for name, fmt in sorted(self.formats.items()):
            lines.append(f"  format {name}: {fmt.notation()}")
        lines.append(self.search.describe())
        return "\n".join(lines)


def default_seed_grid(assignment: Assignment, num_procs: int) -> Tuple[int, ...]:
    """The grid the heuristic seed targets when only a cluster is given:
    the most-square factorization over the output's dimensionality."""
    dims = min(
        3, max(1, len(assignment.free_vars)), len(assignment.all_vars)
    )
    return balanced_grid(num_procs, dims)


def balanced_grid(p: int, dims: int) -> Tuple[int, ...]:
    """Most-balanced ``dims``-way factorization of ``p`` (descending)."""
    if dims <= 1:
        return (p,)
    best: Optional[Tuple[int, ...]] = None
    best_spread: Optional[float] = None

    def rec(remaining: int, left: int, prefix: Tuple[int, ...]):
        nonlocal best, best_spread
        if left == 1:
            shape = tuple(sorted(prefix + (remaining,), reverse=True))
            spread = shape[0] / shape[-1]
            if best_spread is None or (spread, shape) < (best_spread, best):
                best, best_spread = shape, spread
            return
        f = 1
        while f * f <= remaining:
            if remaining % f == 0:
                rec(remaining // f, left - 1, prefix + (f,))
                rec(f, left - 1, prefix + (remaining // f,))
            f += 1

    rec(p, dims, ())
    assert best is not None
    return best


def tune(
    assignment: Assignment,
    cluster: Cluster,
    params: MachineParams = LASSEN,
    *,
    seed_grid: Optional[Sequence[int]] = None,
    memory=None,
    strategy: str = "auto",
    static_prune: bool = True,
    beam_width: int = 8,
    coarse_procs: int = 64,
    seed: int = 0,
    jobs: int = 1,
    max_dims: int = 3,
    ledger: Optional[TuningLedger] = None,
    warm_start: Optional[Decision] = None,
    objective: str = "total",
    failure_rate: float = 0.0,
    timeout_s: Optional[float] = None,
) -> TuneResult:
    """Search the schedule space for one assignment on one cluster.

    The heuristic (:func:`~repro.tuner.space.from_heuristic`, the
    decision :meth:`repro.core.kernel.Kernel.autoschedule` compiles,
    normalized) seeds the search and survives every cut, so the result
    is never worse than the one-shot heuristic.
    Returns a :class:`TuneResult` whose schedule and formats are
    realized on the *caller's* assignment (formats applied), compiled
    and simulated.

    ``warm_start`` injects a known-good decision from another machine
    size (fault replanning's pre-failure winner, or the serving
    daemon's nearest tuned neighbor): its same-rank grid projections
    join the space and survive every beam cut, so the re-tune can only
    improve on replaying the old structure.

    ``strategy="warm"`` goes further: instead of joining the full
    space, the search is *restricted* to the warm neighborhood — the
    warm start's grid projections plus the heuristic seed — and
    evaluated exhaustively. That is the serving daemon's transfer
    path: strictly fewer oracle simulations than a cold tune of the
    same workload, at the cost of never out-exploring the neighbor's
    structure. Requires ``warm_start``.

    ``objective="expected"`` optimizes expected cost under a per-phase
    failure probability of ``failure_rate`` instead of raw simulated
    time: the final ranking is re-scored with recomputation exposure
    and checkpoint placement (the ``Decision.checkpoint`` axis) by
    :func:`repro.faults.objective.rerank_expected`. ``timeout_s``
    bounds each candidate's wall-clock evaluation (see
    :class:`~repro.tuner.oracle.Oracle`).
    """
    from repro.core.kernel import compile_kernel  # local: avoid cycle

    if objective not in ("total", "expected"):
        raise ValueError(
            f"unknown objective {objective!r} "
            f"(expected 'total' or 'expected')"
        )
    p = cluster.num_processors
    if seed_grid is None:
        seed_grid = default_seed_grid(assignment, p)
    seed_decision = from_heuristic(assignment, seed_grid)
    warm = []
    if warm_start is not None:
        warm = warm_variants(assignment, warm_start, p)
    if strategy == "warm":
        if warm_start is None:
            raise ValueError("strategy='warm' requires a warm_start")
        # The warm neighborhood only: no space enumeration at all —
        # this is what makes a warm-started serve miss strictly
        # cheaper than a cold tune.
        space = sorted(
            set(warm) | {seed_decision}, key=Decision.key
        )
    else:
        space = enumerate_space(assignment, p, max_dims=max_dims)
        if seed_decision not in space:
            space = sorted(space + [seed_decision], key=Decision.key)
        extra = [d for d in warm if d not in set(space)]
        if extra:
            space = sorted(space + extra, key=Decision.key)

    oracle = Oracle(
        cluster,
        params=params,
        memory=memory,
        jobs=jobs,
        ledger=ledger,
        static_prune=static_prune,
        timeout_s=timeout_s,
    )
    if strategy == "auto":
        strategy = (
            "exhaustive"
            if len(space) <= EXHAUSTIVE_THRESHOLD
            else "beam"
        )
    # ``rerank_expected`` re-scores the whole ranking, so only the
    # total-time objective may leave its tail unsimulated.
    bound_skip = objective == "total"
    if strategy in ("exhaustive", "warm"):
        ranked, rungs = exhaustive_search(
            assignment, oracle, space,
            seed_decision if bound_skip else None,
        )
    elif strategy == "beam":
        ranked, rungs = beam_search(
            assignment,
            oracle,
            space,
            seed_decision,
            beam_width=beam_width,
            coarse_procs=coarse_procs,
            seed=seed,
            protected=warm,
            bound_skip=bound_skip,
        )
    else:
        raise ValueError(
            f"unknown strategy {strategy!r} "
            f"(expected 'auto', 'exhaustive', 'beam' or 'warm')"
        )
    if objective == "expected":
        from repro.faults.objective import rerank_expected  # local: cycle

        ranked = rerank_expected(
            ranked,
            assignment,
            params=params,
            num_nodes=cluster.num_nodes,
            failure_rate=failure_rate,
        )
    by_decision = {o.decision: o for o in ranked}
    seed_outcome = by_decision[seed_decision]
    best = ranked[0]
    if not best.feasible:
        # Nothing fits (including the heuristic): surface the seed so
        # callers get a deterministic, inspectable answer.
        best = seed_outcome
    outcome = SearchOutcome(
        best=best,
        seed_outcome=seed_outcome,
        strategy=strategy,
        space_size=len(space),
        evaluations=oracle.simulated,
        rungs=rungs,
        ranked=ranked[:RANKED_KEEP],
        errors=oracle.errors,
        pruned_static=oracle.pruned_static,
        trace_executions=oracle.trace_executions,
        symmetry_shared=oracle.symmetry_shared,
        bound_skipped=oracle.bound_skipped,
    )

    from repro.tuner.space import realize

    machine = oracle.machine(best.decision.grid)
    schedule, formats = realize(
        assignment, machine, best.decision, memory=oracle.memory
    )
    kernel = compile_kernel(schedule, machine)
    report = None
    if best.feasible:
        from repro.bench.cache import SIM_CACHE

        report = SIM_CACHE.simulate(kernel, params)
    return TuneResult(
        decision=best.decision,
        schedule=schedule,
        formats=formats,
        machine=machine,
        kernel=kernel,
        report=report,
        search=outcome,
    )
