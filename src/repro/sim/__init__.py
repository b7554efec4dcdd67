"""Discrete-event performance model of the paper's testbed.

The executor produces a lockstep trace (copy batches + per-processor leaf
work); this package turns it into time. The model is calibrated to the
Lassen supercomputer (Section 7 experimental setup): dual-socket Power9
nodes, four NVLink-connected 16 GiB V100s per node, an EDR InfiniBand
NIC per node, with Legion's measured GPU-direct bandwidth limitation and
its 4-of-40-cores runtime tax.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.params": ("LASSEN", "MachineParams"),
    "repro.sim.costmodel": ("CostModel",),
    "repro.sim.report": ("SimReport",),
})
