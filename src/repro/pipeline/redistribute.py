"""Pricing inter-stage redistributions, memoized across a process.

The planner itself lives in :mod:`repro.core.transfer`
(:func:`~repro.core.transfer.redistribution_trace`): it emits the exact
:class:`~repro.runtime.trace.Copy` traffic a layout change requires,
batched through the same owner arithmetic the orbit executor uses. This
module prices that trace on the cost model and memoizes the result the
way :data:`~repro.bench.cache.SIM_CACHE` memoizes kernel simulations —
a joint tuning run re-scores the same handoff for many stage-schedule
combinations, and the redistribution cost is a pure function of the
layouts, the cluster, and the cost-model parameters (the tensor's name
does not matter, so equal-shaped handoffs share one entry).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bench.cache import cluster_signature, params_key
from repro.core.transfer import redistribution_trace
from repro.formats.format import Format
from repro.ir.tensor import TensorVar
from repro.machine.machine import Machine
from repro.sim.costmodel import CostModel
from repro.sim.params import MachineParams
from repro.sim.report import SimReport

_MEMO: Dict[Tuple, SimReport] = {}


def _memo_key(
    tensor: TensorVar,
    src_format: Format,
    src_machine: Machine,
    dst_format: Format,
    dst_machine: Machine,
    params: MachineParams,
) -> Tuple:
    return (
        tensor.shape,
        tensor.dtype.str,
        src_format.notation(),
        src_format.memory.value,
        src_machine.shape,
        dst_format.notation(),
        dst_format.memory.value,
        dst_machine.shape,
        cluster_signature(src_machine.cluster),
        params_key(params),
    )


def redistribution_report(
    tensor: TensorVar,
    src_format: Format,
    src_machine: Machine,
    dst_format: Format,
    dst_machine: Machine,
    params: MachineParams,
) -> SimReport:
    """Simulated cost of moving ``tensor`` between two layouts."""
    key = _memo_key(
        tensor, src_format, src_machine, dst_format, dst_machine, params
    )
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    trace = redistribution_trace(
        tensor, src_format, src_machine, dst_format, dst_machine
    )
    report = CostModel(src_machine.cluster, params).time_trace(trace)
    _MEMO[key] = report
    return report


def clear_cache():
    _MEMO.clear()
