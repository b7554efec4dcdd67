"""Machine abstraction (Section 3.1 of the paper).

A distributed machine is modelled as a multi-dimensional grid of abstract
processors, each with a local memory. The abstraction is hierarchical: a
machine may be a grid of nodes, each of which is itself a grid of GPUs or CPU
sockets. The *logical* grid (:class:`Machine`) is mapped onto a *physical*
:class:`Cluster` of nodes, processors, and memories; the separation lets the
same schedule target differently shaped hardware.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.machine.cluster": (
        "Cluster", "Memory", "MemoryKind", "Node", "Processor",
        "ProcessorKind",
    ),
    "repro.machine.grid": ("Grid",),
    "repro.machine.machine": ("Machine",),
})
