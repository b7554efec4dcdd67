"""Automatic schedule and format selection (the paper's Section 9).

The paper names auto-scheduling as the natural next step: "With
automatic schedule and format selection, application developers could
independently achieve high performance." This module implements that
extension with a transparent heuristic in the spirit of the paper's own
manual schedules:

1. **Distribution choice.** Distribute the loops that index the
   *output* tensor (owner-computes: inputs are pulled toward a
   stationary output, Section 3.3). If the output has too few
   dimensions for the machine, reduction loops are also distributed
   (distributed reductions trade memory for parallelism).
2. **Format choice.** The output is tiled by the distributed loops;
   each input is tiled by the modes it shares with distributed loops
   and replicated over machine dimensions it does not touch — exactly
   the placement pattern of the paper's TTV/TTM/MTTKRP schedules.
3. **Communication.** Inputs indexed by every distributed loop are
   communicated at the innermost distributed variable (they are local);
   others at the same point, where the bounding analysis fetches their
   full per-task requirement once per task.
4. **Leaf.** Contractions with at least two dense loops substitute a
   GEMM leaf; element-wise kernels parallelize the innermost local
   loop.

The result is returned as a regular :class:`Schedule` plus per-tensor
formats, so a performance engineer can inspect and override it — the
paper's "productivity tool" split between application developers and
performance engineers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.formats.distribution import (
    Broadcast,
    DimName,
    Distribution,
)
from repro.formats.format import Format
from repro.ir.expr import IndexVar
from repro.ir.tensor import Assignment
from repro.machine.cluster import MemoryKind, ProcessorKind
from repro.machine.machine import Machine
from repro.scheduling.schedule import Schedule

_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class AutoScheduleResult:
    """An automatically derived schedule and the formats it assumes."""

    schedule: Schedule
    formats: Dict[str, Format]
    distributed_vars: List[IndexVar]

    def describe(self) -> str:
        lines = ["auto-schedule:"]
        for name, fmt in self.formats.items():
            lines.append(f"  format {name}: {fmt.notation()}")
        lines.append(
            "  distribute: "
            + ", ".join(v.name for v in self.distributed_vars)
        )
        return "\n".join(lines)


def choose_distributed_vars(
    assignment: Assignment, machine_dim: int
) -> List[IndexVar]:
    """Pick which loops to distribute (step 1 of the heuristic)."""
    candidates = list(assignment.free_vars)
    if len(candidates) < machine_dim:
        candidates += [
            v for v in assignment.reduction_vars if v not in candidates
        ]
    return candidates[:machine_dim]


def derive_formats(
    assignment: Assignment,
    distributed: List[IndexVar],
    machine: Machine,
    memory: MemoryKind,
) -> Dict[str, Format]:
    """Derive per-tensor distributions from the distribution choice.

    A tensor mode indexed by the d-th distributed loop is partitioned by
    machine dimension d; machine dimensions whose loop does not index
    the tensor broadcast it (replication), matching the paper's
    higher-order kernel formats.
    """
    formats: Dict[str, Format] = {}
    for access in [assignment.lhs] + list(assignment.rhs.accesses()):
        tensor = access.tensor
        if tensor.name in formats or tensor.ndim == 0:
            if tensor.ndim == 0:
                formats.setdefault(tensor.name, Format(memory=memory))
            continue
        mode_names = [_NAMES[d] for d in range(tensor.ndim)]
        machine_dims: List = []
        grid_dim = machine.levels[0].dim
        for mdim in range(grid_dim):
            if mdim < len(distributed) and distributed[mdim] in access.indices:
                mode = access.indices.index(distributed[mdim])
                machine_dims.append(DimName(mode_names[mode]))
            else:
                # Machine dimensions this tensor does not follow hold
                # replicas (including dims with no distributed loop).
                machine_dims.append(Broadcast())
        dist = Distribution(mode_names, machine_dims)
        formats[tensor.name] = Format(dist, memory=memory)
    return formats


def auto_schedule(
    assignment: Assignment,
    machine: Machine,
    memory: MemoryKind = MemoryKind.SYSTEM_MEM,
) -> AutoScheduleResult:
    """Derive a distribution schedule and formats automatically; the
    tensors' formats are replaced by the derived ones."""
    grid = machine.levels[0]
    distributed = choose_distributed_vars(assignment, grid.dim)
    formats = derive_formats(assignment, distributed, machine, memory)
    for tensor in assignment.tensors():
        if tensor.name in formats:
            tensor.format = formats[tensor.name]

    sched = Schedule(assignment)
    # Move the distributed loops outermost (they may be reduction vars
    # interleaved with free vars).
    order = distributed + [
        v for v in assignment.all_vars if v not in distributed
    ]
    sched.reorder(order)
    outers, inners = [], []
    for var, extent in zip(distributed, grid.shape):
        outer = IndexVar(f"{var.name}_o")
        inner = IndexVar(f"{var.name}_i")
        sched.divide(var, outer, inner, extent)
        outers.append(outer)
        inners.append(inner)
    sched.reorder(outers + inners)
    sched.distribute(outers)
    for tensor in assignment.tensors():
        sched.communicate(tensor, outers[-1])

    # Leaf: GEMM for contractions, parallel loops for element-wise.
    local_loops = [v for v in sched.loop_vars() if v not in outers]
    if assignment.reduction_vars and len(local_loops) >= 2:
        kernel = (
            "cublas_gemm"
            if machine.cluster.processor_kind is ProcessorKind.GPU
            else "blas_gemm"
        )
        sched.substitute(local_loops, kernel)
    elif local_loops:
        sched.parallelize(local_loops[0])
    return AutoScheduleResult(
        schedule=sched, formats=formats, distributed_vars=outers
    )
