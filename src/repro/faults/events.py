"""The fault event model: deterministic, seeded failure schedules.

Production clusters lose nodes and change size mid-job; the paper's
schedules assume neither. A :class:`FaultPlan` is a small, hashable
schedule of such events:

* :class:`KillNode` — node ``node`` dies at phase boundary ``phase``
  (before step ``phase`` starts), optionally scoped to one pipeline
  ``stage``;
* :class:`Resize` — the machine shrinks or grows to ``nodes`` nodes at
  the pipeline boundary *before* stage ``boundary``.

Plans are injected into the executors (``Kernel.trace(fault_plan=...)``)
through the trace's step hook: both the batched and the
orbit-compressed interpreter create every bulk-synchronous phase through
``Trace.new_step``, so a kill interrupts either one at exactly the same
boundary, with the same completed partial trace.

Everything is deterministic: :meth:`FaultPlan.sample` draws from
``random.Random(seed)`` only, and :func:`lost_instances` enumerates the
dead node's home pieces in sorted tensor/coordinate order — equal seeds
therefore produce byte-identical downstream
:class:`~repro.faults.replan.RecoveryReport`\\ s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import NodeFailure
from repro.util.geometry import Interval, Rect


@dataclass(frozen=True)
class KillNode:
    """Node ``node`` dies just before step ``phase`` of ``stage``."""

    phase: int
    node: int
    stage: Optional[str] = None

    def encode(self) -> str:
        scope = f"@{self.stage}" if self.stage is not None else ""
        return f"kill(node={self.node},phase={self.phase}{scope})"


@dataclass(frozen=True)
class Resize:
    """Regrid to ``nodes`` nodes at the boundary before ``boundary``."""

    boundary: str
    nodes: int

    def encode(self) -> str:
        return f"resize(before={self.boundary},nodes={self.nodes})"


@dataclass(frozen=True)
class EventPlan:
    """A frozen, hashable schedule of events.

    ``events`` is a tuple of event records, each with an ``encode()``;
    ``seed`` records how the plan was drawn (``None`` for hand-built
    plans). Frozen and hashable, so plans can ride in ledger keys and
    test parametrizations.
    """

    events: Tuple = ()
    seed: Optional[int] = None

    def encode(self) -> str:
        seed = "" if self.seed is None else f"seed={self.seed};"
        return seed + ";".join(e.encode() for e in self.events)


@dataclass(frozen=True)
class FaultPlan(EventPlan):
    """A deterministic schedule of failure and resize events:
    :class:`KillNode` and :class:`Resize` records."""

    def kill_for(self, stage: Optional[str] = None) -> Optional[KillNode]:
        """The kill event scoped to ``stage`` (first match wins).

        A single-kernel execution looks up ``stage=None``; events with
        ``stage=None`` also apply there. Pipeline stages match on name.
        """
        for event in self.events:
            if not isinstance(event, KillNode):
                continue
            if event.stage == stage or (stage is None and event.stage is None):
                return event
        return None

    def resize_before(self, stage: str) -> Optional[Resize]:
        """The resize event scheduled at the boundary before ``stage``."""
        for event in self.events:
            if isinstance(event, Resize) and event.boundary == stage:
                return event
        return None

    @staticmethod
    def sample(
        seed: int,
        num_nodes: int,
        max_phase: int,
        stages: Sequence[Optional[str]] = (None,),
        resize_choices: Sequence[int] = (),
    ) -> "FaultPlan":
        """Draw one kill event (and optional resizes) deterministically.

        The kill lands on a uniformly random node and phase in
        ``[1, max_phase]`` of a uniformly random stage; each non-first
        stage independently gets a resize boundary drawn from
        ``resize_choices`` with probability 1/2. Equal seeds produce
        equal plans, byte for byte.
        """
        if num_nodes < 2:
            raise ValueError("fault sampling needs at least 2 nodes")
        rng = random.Random(seed)
        stage = stages[rng.randrange(len(stages))]
        events: List = [KillNode(
            phase=rng.randint(1, max(1, max_phase)),
            node=rng.randrange(num_nodes),
            stage=stage,
        )]
        for boundary in stages[1:]:
            if resize_choices and boundary is not None and rng.random() < 0.5:
                events.append(Resize(
                    boundary=boundary,
                    nodes=resize_choices[rng.randrange(len(resize_choices))],
                ))
        return FaultPlan(events=tuple(events), seed=seed)


# ----------------------------------------------------------------------
# Lost-instance enumeration.
# ----------------------------------------------------------------------


def lost_instances(plan, machine, node: int) -> Tuple:
    """Home instances a dead node held: ``(tensor, coords, rect)``.

    Executor-independent (derived from the plan's tensor formats with
    the same vectorized distribution arithmetic the orbit executor
    uses), so the batched and orbit interpreters raise identical
    :class:`~repro.util.errors.NodeFailure` payloads. Sorted by tensor
    name, then machine coordinates.
    """
    out = []
    all_coords = np.stack(
        np.unravel_index(np.arange(machine.size), tuple(machine.shape)),
        axis=1,
    ).astype(np.int64)
    for name in sorted(plan.tensors):
        tensor = plan.tensors[name]
        fmt = tensor.format
        if fmt is None or not fmt.distributions:
            continue
        b_lo, b_hi, ok = fmt.owned_rect_batch(
            machine, all_coords, tensor.shape
        )
        for j in range(machine.size):
            if not ok[j]:
                continue
            coords = tuple(int(c) for c in all_coords[j])
            if machine.proc_at(coords).node_id != node:
                continue
            rect = Rect(tuple(
                Interval(int(b_lo[d, j]), int(b_hi[d, j]))
                for d in range(tensor.ndim)
            ))
            if rect.is_empty:
                continue
            out.append((name, coords, rect))
    return tuple(sorted(out, key=lambda item: (item[0], item[1])))


def install_fault_hook(trace, fault_plan, executor):
    """Arm ``trace`` so the planned kill interrupts the execution.

    The hook fires before each step is created; on the planned phase it
    raises :class:`~repro.util.errors.NodeFailure` carrying the exact
    phase, the surviving node count, the dead node's home instances,
    and the partial trace of completed steps.
    """
    kill = fault_plan.kill_for()
    if kill is None:
        return
    machine = executor.machine
    num_nodes = machine.cluster.num_nodes
    if not 0 <= kill.node < num_nodes:
        raise ValueError(
            f"fault plan kills node {kill.node} of a "
            f"{num_nodes}-node cluster"
        )

    def hook(index: int, label: str):
        if index != kill.phase:
            return
        # Record the high water of the completed prefix when the
        # environment tracks it (both symbolic interpreters do).
        high_water = getattr(executor.env, "high_water", None)
        if high_water is not None:
            trace.memory_high_water = dict(high_water)
        raise NodeFailure(
            phase=index,
            node=kill.node,
            surviving_nodes=num_nodes - 1,
            lost=lost_instances(executor.plan, machine, kill.node),
            partial_trace=trace,
            step_label=label,
        )

    trace.step_hook = hook
