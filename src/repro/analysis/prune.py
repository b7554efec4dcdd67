"""Static pruning verdicts the tuner consults before simulating.

Two rules keep candidates out of the simulator entirely:

* **memory infeasibility** — the :mod:`~repro.analysis.membound` peak
  lower bound already exceeds the target memory's capacity, so every
  simulation would end in the same OOM.
* **leaf dominance** — a ``loops``-leaf candidate whose ``gemm`` twin is
  a *distinct* canonical candidate. The phase fingerprint masks the
  leaf, so both candidates replay the identical trace; communication is
  identical and the loops leaf is priced at the lower (or equal)
  ``naive_leaf_efficiency``, so its cost can never beat the twin's and
  the ranking tie-break (decision key, ``"gemm" < "loops"``) prefers
  the twin even on equality. The rule only fires when the machine
  params actually order the efficiencies that way.

:func:`prune_reason` returns the human-readable reason string (one of
the module constants) or ``None`` when the candidate must be simulated.

A tune asks for the same memory bound many times: candidates that
differ only in ``leaf`` or ``rotate`` share one. A :class:`PruneMemo`,
owned by the tune's oracle, computes each bound once per
:func:`~repro.analysis.membound.bound_key`. The dominance verdict reads
only the assignment's precomputed variable sets and needs no memo.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.membound import MemoryBound, bound_key, memory_bounds
from repro.ir.tensor import Assignment
from repro.machine.cluster import Cluster, MemoryKind
from repro.machine.machine import Machine
from repro.obs.metrics import METRICS
from repro.sim.params import MachineParams

STATIC_OOM = "static: home-instance lower bound exceeds memory capacity"
STATIC_DOMINATED = (
    "static: loops leaf dominated by its gemm twin "
    "(identical trace, lower efficiency)"
)


def prune_reason(
    assignment: Assignment,
    decision,
    cluster: Cluster,
    memory: MemoryKind = MemoryKind.SYSTEM_MEM,
    params: Optional[MachineParams] = None,
    memo: Optional["PruneMemo"] = None,
    machine: Optional[Machine] = None,
) -> Optional[str]:
    """Why ``decision`` need not be simulated, or ``None``.

    ``memo`` reuses verdicts computed earlier in the same tune;
    ``machine`` is the decision's grid on ``cluster`` when the caller
    has one.
    """
    bounds = memo.memory_bounds if memo is not None else memory_bounds
    if bounds(assignment, decision, cluster, memory, machine).infeasible:
        return STATIC_OOM
    if params is not None and _dominated_loops(assignment, decision, params):
        return STATIC_DOMINATED
    return None


class PruneMemo:
    """Static verdicts of one tune, each computed once.

    Holds every verdict it computed and is never cleared, so it must not
    outlive the tune: the oracle that owns it shares it with its coarse
    siblings only.
    """

    def __init__(self):
        self._bounds: Dict[Tuple, MemoryBound] = {}

    def memory_bounds(
        self, assignment: Assignment, decision, cluster: Cluster,
        memory: MemoryKind, machine: Optional[Machine] = None,
    ) -> MemoryBound:
        key = bound_key(assignment, decision, cluster, memory)
        bound = self._bounds.get(key)
        if bound is None:
            METRICS.inc("analysis.bound_memo_misses")
            bound = memory_bounds(
                assignment, decision, cluster, memory, machine
            )
            self._bounds[key] = bound
        else:
            METRICS.inc("analysis.bound_memo_hits")
        return bound


def _dominated_loops(
    assignment: Assignment, decision, params: MachineParams
) -> bool:
    from repro.tuner.space import LEAF_LOOPS

    if decision.leaf != LEAF_LOOPS:
        return False
    if params.naive_leaf_efficiency > params.gemm_efficiency:
        return False
    # The twin is ``normalize`` of the decision with the ``gemm`` leaf.
    # It differs from this ``loops`` decision exactly when normalize
    # keeps the gemm leaf, i.e. for a contraction with at least two
    # local loops; otherwise it folds back to this very decision and
    # nothing dominates it.
    return bool(assignment.reduction_vars) and len(assignment.all_vars) >= 2
