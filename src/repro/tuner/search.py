"""The schedule search: every candidate of the space, bound-ordered.

:func:`tune` enumerates the canonical schedule space at full scale and
ranks it exactly in its top ``keep`` (1 for an answer, the joint
tuner's ``top_k`` for its candidate pools): the heuristic seed is
simulated first, then one candidate per index-symmetry class in order
of a static time lower bound, until the bound alone proves that no
remaining candidate can reach the top (branch and bound's fathoming
rule; :meth:`~repro.tuner.oracle.Oracle.evaluate_top`). A warm-started
tune (``strategy="warm"``) ranks only the warm neighborhood the same
way.

The search is deterministic: candidate order is the canonical-key
order and ties break on the key, so two equal runs evaluate the same
candidates and write identical ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster
from repro.machine.grid import balanced_grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN, MachineParams
from repro.tuner.oracle import (
    EvalOutcome,
    Oracle,
    TuningLedger,
)
from repro.tuner.space import (
    Decision,
    enumerate_space,
    from_heuristic,
    warm_variants,
)

@dataclass
class SearchOutcome:
    """Everything a tuning run decided and measured."""

    best: EvalOutcome
    seed_outcome: EvalOutcome
    strategy: str
    space_size: int
    evaluations: int
    #: The top ``keep`` outcomes, best first.
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
    #: Candidates skipped because a static time lower bound
    #: proved they cannot reach the top ``keep`` (see
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


def exhaustive_search(
    assignment: Assignment,
    oracle: Oracle,
    decisions: Sequence[Decision],
    seed_decision: Optional[Decision] = None,
    keep: int = 1,
) -> List[EvalOutcome]:
    """Every candidate at full scale, ranked. Given the
    ``seed_decision`` (simulated first), the ranking is exact only in
    its top ``keep``: the candidates a static time bound proves cannot
    reach it are skipped and left out (see
    :meth:`~repro.tuner.oracle.Oracle.evaluate_top`)."""
    if seed_decision is None:
        outcomes = oracle.evaluate(assignment, list(decisions))
    else:
        outcomes = oracle.evaluate_top(
            assignment, list(decisions), keep, seed_decision
        )
    return _rank(outcomes)


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


def tune(
    assignment: Assignment,
    cluster: Cluster,
    params: MachineParams = LASSEN,
    *,
    seed_grid: Optional[Sequence[int]] = None,
    memory=None,
    strategy: str = "exhaustive",
    jobs: int = 1,
    max_dims: int = 3,
    ledger: Optional[TuningLedger] = None,
    warm_start: Optional[Decision] = None,
    objective: str = "total",
    failure_rate: float = 0.0,
    timeout_s: Optional[float] = None,
    keep: int = 1,
) -> TuneResult:
    """Search the schedule space for one assignment on one cluster.

    The heuristic (:func:`~repro.tuner.space.from_heuristic`, the
    decision :meth:`repro.core.kernel.Kernel.autoschedule` compiles,
    normalized) seeds the search and is always simulated, so the
    result is never worse than the one-shot heuristic.
    Returns a :class:`TuneResult` whose schedule and formats are
    realized on the *caller's* assignment (formats applied), compiled
    and simulated.

    ``warm_start`` injects a known-good decision from another machine
    size (fault replanning's pre-failure winner, or the serving
    daemon's nearest tuned neighbor): its same-rank grid projections
    join the space, so the re-tune can only improve on replaying the
    old structure.

    ``strategy="warm"`` goes further: instead of joining the full
    space, the search is *restricted* to the warm neighborhood — the
    warm start's grid projections plus the heuristic seed — and
    evaluated exhaustively. That is the serving daemon's transfer
    path: strictly fewer oracle simulations than a cold tune of the
    same workload, at the cost of never out-exploring the neighbor's
    structure. Requires ``warm_start``.

    ``objective="expected"`` optimizes expected cost under a per-phase
    failure probability of ``failure_rate`` instead of raw simulated
    time: the ranking is re-scored with recomputation exposure and
    checkpoint placement (the ``Decision.checkpoint`` axis) by
    :func:`repro.faults.objective.rerank_expected`. That re-scores
    every candidate, so this objective skips nothing by bound and
    simulates every survivor of static pruning. ``timeout_s``
    bounds each candidate's wall-clock evaluation (see
    :class:`~repro.tuner.oracle.Oracle`).

    ``keep`` is how many outcomes ``search.ranked`` holds, best first.
    With ``objective="total"`` the search simulates until its bound
    proves those ``keep`` exact, so a deeper ranking costs more
    simulations. Answers (:func:`repro.api.tune_request`, the serving
    daemon, fault replanning) read only ``best`` and keep the default
    1; :func:`repro.tuner.joint.tune_pipeline` passes its ``top_k``,
    because it builds each stage's candidate pool from the ranking.
    """
    from repro.core.kernel import compile_kernel  # local: avoid cycle

    if objective not in ("total", "expected"):
        raise ValueError(
            f"unknown objective {objective!r} "
            f"(expected 'total' or 'expected')"
        )
    if strategy not in ("exhaustive", "warm"):
        raise ValueError(
            f"unknown strategy {strategy!r} "
            f"(expected 'exhaustive' or 'warm')"
        )
    if not 0.0 <= failure_rate <= 1.0:
        raise ValueError(
            f"failure_rate must lie in [0, 1], got {failure_rate!r}"
        )
    if keep < 1:
        raise ValueError(f"keep must be at least 1, got {keep}")
    if max_dims < 1:
        raise ValueError(f"max_dims must be at least 1, got {max_dims}")
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
        timeout_s=timeout_s,
    )
    # ``rerank_expected`` re-scores the whole ranking, so only the
    # total-time objective may leave its tail unsimulated.
    ranked = exhaustive_search(
        assignment, oracle, space,
        seed_decision if objective == "total" else None,
        keep,
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
        ranked=ranked[:keep],
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
