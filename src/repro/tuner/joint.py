"""Joint pipeline tuning: per-stage schedules plus handoff formats.

Tuning each stage of a pipeline in isolation optimizes the wrong
objective: the best stand-alone schedule for a consumer may expect its
input in a layout the producer does not write, and the redistribution
between them can dwarf the time either stage saves. The joint mode
searches the *pipeline* space:

* each stage ranges over the top ``top_k`` candidates of its own
  single-kernel search (:func:`repro.tuner.search.tune` with
  ``keep=top_k`` ranks exactly that many);
* each intermediate tensor additionally ranges over a **handoff
  choice** — ``redistribute`` (the consumer reads its own derived
  format, paying explicit copy traffic when it differs from the
  producer's) or ``direct`` (the consumer's input format is overridden
  to whatever the producer wrote, making the handoff free and folding
  any extra fetch cost into the consumer stage itself);

and every combination is scored end to end through
``PipelinePlan.simulate()`` — the same orbit-simulator oracle, with
per-stage reports shared through :data:`~repro.bench.cache.SIM_CACHE`
and redistribution reports memoized per layout pair, so a combination
costs little more than its handoff planning.

The independently-tuned combination (every stage's own winner, all
handoffs ``redistribute``) is always part of the enumeration, so the
joint result can never be worse than tuning stages separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.pipeline.pipeline import (
    HANDOFF_DIRECT,
    HANDOFF_REDISTRIBUTE,
    Pipeline,
    PipelinePlan,
)
from repro.pipeline.report import PipelineReport
from repro.sim.params import LASSEN, MachineParams
from repro.tuner.oracle import Oracle, TuningLedger
from repro.tuner.search import TuneResult, tune
from repro.tuner.space import Decision, enumerate_space, formats_for
from repro.util.errors import OutOfMemoryError, ReproError

#: Default number of per-stage candidates the joint product ranges over.
DEFAULT_TOP_K = 6

#: How many format-compatible consumer candidates are injected per
#: producer candidate, and how many get oracle-scored to pick them.
COMPAT_KEEP = 2
COMPAT_EVAL_CAP = 16


@dataclass
class PipelineTuneResult:
    """What joint pipeline tuning decided and measured."""

    decisions: Dict[str, Decision]
    handoffs: Dict[str, str]
    plan: PipelinePlan
    report: Optional[PipelineReport]
    independent_plan: PipelinePlan
    independent_report: Optional[PipelineReport]
    stage_results: Dict[str, TuneResult]
    combinations: int
    evaluations: int
    injection_errors: int = 0

    @property
    def improved(self) -> bool:
        """Did the joint schedule beat independently-tuned stages?"""
        if self.report is None or self.independent_report is None:
            return self.report is not None
        return (
            self.report.combined.total_time
            < self.independent_report.combined.total_time
        )

    @property
    def errors(self) -> int:
        """Candidate compile/simulation errors across all stage searches
        and the handoff-compatibility injection pass."""
        return (
            sum(r.search.errors for r in self.stage_results.values())
            + self.injection_errors
        )

    def describe(self) -> str:
        lines = [
            f"joint pipeline tune: {self.combinations} combinations, "
            f"{self.evaluations} pipeline simulations"
        ]
        for name, result in self.stage_results.items():
            best = result.search.best
            cost = "OOM" if not best.feasible else f"{best.cost:.4f}s"
            lines.append(
                f"  stage {name}: independent best {cost} "
                f"({best.decision.describe()})"
            )
        if self.independent_report is not None:
            lines.append(
                f"  independent pipeline (default handoffs): "
                f"{self.independent_report.combined.total_time:.4f}s "
                f"({self.independent_report.redistribution_time:.4f}s "
                f"redistributing)"
            )
        else:
            lines.append("  independent pipeline: infeasible")
        if self.report is not None:
            lines.append(
                f"  joint pipeline: "
                f"{self.report.combined.total_time:.4f}s "
                f"({self.report.redistribution_time:.4f}s redistributing)"
            )
            for tensor in sorted(self.handoffs):
                lines.append(
                    f"    handoff {tensor}: {self.handoffs[tensor]}"
                )
        else:
            lines.append("  joint pipeline: infeasible")
        return "\n".join(lines)


def _candidate_pool(result: TuneResult) -> List[Decision]:
    """One stage's feasible ranked decisions, best first (its search
    ranked ``top_k``); its answer alone when none is feasible."""
    pool = [o.decision for o in result.search.ranked if o.feasible]
    return pool or [result.decision]


def _inject_compatible(
    pipeline: Pipeline,
    pools: Dict[str, List[Decision]],
    oracle_for: Dict[str, Oracle],
    memory,
    max_dims: int,
) -> None:
    """Extend consumer pools with handoff-compatible candidates.

    A stage's stand-alone top-K rarely contains schedules that read an
    intermediate in the layout its producer happens to write — those
    schedules lose the stand-alone race precisely because they are
    shaped by the handoff, which the stand-alone objective cannot see.
    For every producer candidate, this pass enumerates the consumer's
    space for candidates whose derived format of the intermediate (and
    grid) match the producer's realized output, scores a capped number
    through the oracle at full scale, and appends the best few feasible
    ones to the consumer's pool. This is the *handoff-format choice*:
    the joint product then contains combinations where the handoff is
    free by construction.
    """
    procs = pipeline.cluster.num_processors
    spaces: Dict[str, List[Decision]] = {}
    for edge_tensor in pipeline.intermediates:
        producer_name = pipeline.producers[edge_tensor]
        producer_stage = pipeline.stage(producer_name)
        targets = []
        for decision in pools[producer_name]:
            fmt = formats_for(
                producer_stage.assignment, decision, memory
            )[edge_tensor]
            target = (decision.grid, fmt.notation())
            # Distinct producer decisions often realize the same output
            # layout; scanning it once keeps only the genuinely best
            # matches in the pool.
            if target not in targets:
                targets.append(target)
        for consumer_name in pipeline.consumers_of(edge_tensor):
            consumer_stage = pipeline.stage(consumer_name)
            if consumer_name not in spaces:
                spaces[consumer_name] = enumerate_space(
                    consumer_stage.assignment, procs, max_dims=max_dims
                )
            pool = pools[consumer_name]
            for grid, notation in targets:
                matched = [
                    c
                    for c in spaces[consumer_name]
                    if c.grid == grid
                    and c not in pool
                    and formats_for(
                        consumer_stage.assignment, c, memory
                    )[edge_tensor].notation() == notation
                ][:COMPAT_EVAL_CAP]
                if not matched:
                    continue
                outcomes = oracle_for[consumer_name].evaluate(
                    consumer_stage.assignment, matched
                )
                feasible = sorted(
                    (o for o in outcomes if o.feasible),
                    key=lambda o: (o.cost, o.decision.key()),
                )
                pool.extend(
                    o.decision for o in feasible[:COMPAT_KEEP]
                )


def _combo_key(
    decisions: Dict[str, Decision], handoffs: Dict[str, str]
) -> str:
    """Deterministic tie-break identity of one combination."""
    parts = [f"{n}={decisions[n].encode()}" for n in sorted(decisions)]
    parts += [f"{t}:{handoffs[t]}" for t in sorted(handoffs)]
    return "|".join(parts)


def tune_pipeline(
    pipeline: Pipeline,
    params: MachineParams = LASSEN,
    *,
    top_k: int = DEFAULT_TOP_K,
    memory=None,
    jobs: int = 1,
    max_dims: int = 3,
    ledger: Optional[TuningLedger] = None,
    timeout_s: Optional[float] = None,
    coarse_procs: Optional[int] = None,
) -> PipelineTuneResult:
    """Jointly tune every stage of a pipeline plus its handoff formats.

    Runs the single-kernel search per stage (the search knobs are
    forwarded, and each ranks its top ``top_k``), then scores the
    product of each stage's ``top_k`` candidates × per-edge handoff
    choices through ``PipelinePlan.simulate()``. Deterministic:
    candidate pools come from the deterministic per-stage searches,
    combinations are enumerated in a fixed order, and cost ties break
    on the encoded combination. ``top_k`` below 1 raises
    ``ValueError``, as does ``max_dims`` below 1 (from :func:`tune`).

    ``coarse_procs`` is accepted and ignored; it is kept only because
    ``perfbench/tune_cold.py`` passes it. A ``benchmark`` change drops
    it (ROADMAP item 9).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    memory = memory if memory is not None else pipeline.cluster.default_memory

    stage_results: Dict[str, TuneResult] = {}
    pools: Dict[str, List[Decision]] = {}
    oracle_for: Dict[str, Oracle] = {}
    stage_names = [s.name for s in pipeline.stages]
    for stage in pipeline.stages:
        result = tune(
            stage.assignment,
            pipeline.cluster,
            params,
            memory=memory,
            jobs=jobs,
            max_dims=max_dims,
            ledger=ledger,
            timeout_s=timeout_s,
            keep=top_k,
        )
        stage_results[stage.name] = result
        pools[stage.name] = _candidate_pool(result)
        oracle_for[stage.name] = Oracle(
            pipeline.cluster,
            params=params,
            memory=memory,
            jobs=jobs,
            ledger=ledger,
            timeout_s=timeout_s,
        )
    _inject_compatible(pipeline, pools, oracle_for, memory, max_dims)
    injection_errors = sum(o.errors for o in oracle_for.values())

    producer_of = dict(pipeline.producers)
    consumers_of = {
        tensor: pipeline.consumers_of(tensor)
        for tensor in pipeline.intermediates
    }

    def evaluate(
        decisions: Dict[str, Decision], handoffs: Dict[str, str]
    ) -> Tuple[Optional[PipelinePlan], Optional[PipelineReport]]:
        try:
            plan = pipeline.schedule_with(
                decisions, memory=memory, handoffs=handoffs
            )
            report = plan.simulate(params)
        except (OutOfMemoryError, ReproError):
            return None, None
        return plan, report

    best = None
    best_key: Optional[Tuple[float, str]] = None
    combinations = 0
    evaluations = 0
    for combo in product(*(pools[name] for name in stage_names)):
        decisions = dict(zip(stage_names, combo))
        options: List[List[str]] = []
        for tensor in pipeline.intermediates:
            grids_match = all(
                decisions[consumer].grid
                == decisions[producer_of[tensor]].grid
                for consumer in consumers_of[tensor]
            )
            options.append(
                [HANDOFF_REDISTRIBUTE, HANDOFF_DIRECT]
                if grids_match
                else [HANDOFF_REDISTRIBUTE]
            )
        for handoff_combo in product(*options):
            handoffs = dict(zip(pipeline.intermediates, handoff_combo))
            combinations += 1
            plan, report = evaluate(decisions, handoffs)
            if report is None:
                continue
            evaluations += 1
            key = (
                report.combined.total_time,
                _combo_key(decisions, handoffs),
            )
            if best_key is None or key < best_key:
                best = (decisions, handoffs, plan, report)
                best_key = key

    independent_decisions = {
        name: stage_results[name].decision for name in stage_names
    }
    independent_handoffs = {
        tensor: HANDOFF_REDISTRIBUTE for tensor in pipeline.intermediates
    }
    independent_plan, independent_report = evaluate(
        independent_decisions, independent_handoffs
    )
    if independent_plan is None:
        # Still hand back an inspectable plan, even when it cannot be
        # simulated within capacity.
        independent_plan = pipeline.schedule_with(
            independent_decisions,
            memory=memory,
            handoffs=independent_handoffs,
        )
    if best is None:
        decisions, handoffs = independent_decisions, independent_handoffs
        plan, report = independent_plan, independent_report
    else:
        decisions, handoffs, plan, report = best
    return PipelineTuneResult(
        decisions=decisions,
        handoffs=handoffs,
        plan=plan,
        report=report,
        independent_plan=independent_plan,
        independent_report=independent_report,
        stage_results=stage_results,
        combinations=combinations,
        evaluations=evaluations,
        injection_errors=injection_errors,
    )
