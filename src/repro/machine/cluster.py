"""Physical cluster description: nodes, processors, memories.

The cluster is the *physical* half of the machine abstraction. A
:class:`Cluster` is a number of identical nodes; each node holds one or
more processors (CPU sockets or GPUs), each with an attached local
memory. The logical grid view (:class:`repro.machine.machine.Machine`)
maps grid coordinates onto these processors.

Like the Legion runtime DISTAL targets, a cluster answers questions about
its resources rather than keeping one object per resource: it stores only
its node anatomy (node count, processors per node, processor kind, the
processors' memory kind and capacity, the system memory capacity). The
:class:`Processor`, :class:`Node` and :class:`Memory` objects are built on
first access and kept, and the simulator's hot paths read the same facts
as numpy columns (node and memory id of every processor, system memory of
every node, capacity and GPU flag of every memory) without building any.

Capacities live here; link bandwidths and compute rates live in
:mod:`repro.sim.params` because they parameterize the cost model, not the
program semantics.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

GIB = 1024 ** 3


class ProcessorKind(enum.Enum):
    """Kind of abstract processor a task can run on."""

    CPU_SOCKET = "cpu"
    GPU = "gpu"


class MemoryKind(enum.Enum):
    """Kind of memory a tensor instance can live in.

    Matches the paper's ``Memory::GPU_MEM`` format argument (Figure 2): the
    format language can pin tensors into GPU framebuffer memory or leave
    them in node system memory.
    """

    SYSTEM_MEM = "sysmem"
    GPU_FB = "gpu_fb"


@dataclass
class Memory:
    """One physical memory: a node's DRAM or one GPU's framebuffer."""

    name: str
    kind: MemoryKind
    capacity_bytes: int
    node_id: int

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, Memory) and self.name == other.name

    def __repr__(self) -> str:
        return f"Memory({self.name})"


@dataclass
class Processor:
    """One abstract processor: a CPU socket or a single GPU."""

    proc_id: int
    kind: ProcessorKind
    node_id: int
    local_index: int
    memory: Memory

    def __hash__(self):
        return self.proc_id

    def __eq__(self, other):
        return isinstance(other, Processor) and self.proc_id == other.proc_id

    def __repr__(self) -> str:
        return f"Proc({self.proc_id}:{self.kind.value}@n{self.node_id})"


@dataclass
class Node:
    """One cluster node: its processors plus a shared system memory."""

    node_id: int
    processors: List[Processor]
    system_memory: Memory


class LazySeq(Sequence):
    """A read-only sequence whose items are built on first access.

    Each item is built once by ``make(index)`` and then kept, so the
    same index always returns the same object; :attr:`built` counts
    the items built so far.
    """

    def __init__(self, length: int, make: Callable[[int], object]):
        self._len = length
        self._make = make
        self._items: Dict[int, object] = {}

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"index {index} out of range for {self._len}")
        item = self._items.get(i)
        if item is None:
            item = self._items[i] = self._make(i)
        return item

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(self._len))

    @property
    def built(self) -> int:
        return len(self._items)


class Cluster:
    """A homogeneous cluster, stored as its node anatomy.

    Every node holds ``procs_per_node`` processors of one kind and a
    system memory; each processor's memory is either that system
    memory (``proc_mem_kind`` is ``SYSTEM_MEM``: CPU sockets) or a
    framebuffer of its own. Memory ids follow :meth:`memories` order:
    per node, the system memory first, then the framebuffers.

    ``processors``, ``nodes`` and :meth:`memories` build their
    :class:`Processor`/:class:`Node`/:class:`Memory` objects on first
    access; the ``*_of_*`` methods give the same facts as numpy columns
    without building any. Use the :meth:`cpu_cluster` /
    :meth:`gpu_cluster` factories for Lassen-like configurations (the
    paper's testbed: dual-socket Power9 nodes with four V100 GPUs
    each), or :meth:`build` for arbitrary shapes.
    """

    def __init__(
        self,
        num_nodes: int,
        procs_per_node: int,
        proc_kind: ProcessorKind,
        proc_mem_kind: MemoryKind,
        proc_mem_capacity: int,
        system_mem_capacity: int = 256 * GIB,
    ):
        if num_nodes <= 0 or procs_per_node <= 0:
            raise ValueError("node and processor counts must be positive")
        if proc_mem_capacity <= 0 or system_mem_capacity <= 0:
            raise ValueError("memory capacities must be positive")
        self.num_nodes = num_nodes
        self.procs_per_node = procs_per_node
        self.processor_kind = proc_kind
        self.proc_mem_kind = proc_mem_kind
        self.proc_mem_capacity = proc_mem_capacity
        self.system_mem_capacity = system_mem_capacity
        self._shared = proc_mem_kind is MemoryKind.SYSTEM_MEM
        self.mems_per_node = 1 if self._shared else 1 + procs_per_node
        self.processors = LazySeq(self.num_processors, self._processor)
        self.nodes = LazySeq(num_nodes, self._node)
        self._memories = LazySeq(
            num_nodes * self.mems_per_node, self._memory
        )

    @classmethod
    def build(cls, *args, **kwargs) -> "Cluster":
        """Generic constructor for a homogeneous cluster (the same
        arguments as the class)."""
        return cls(*args, **kwargs)

    @property
    def anatomy(self) -> Tuple:
        """The constructor arguments: everything the cluster is."""
        return (
            self.num_nodes,
            self.procs_per_node,
            self.processor_kind,
            self.proc_mem_kind,
            self.proc_mem_capacity,
            self.system_mem_capacity,
        )

    def resized(self, nodes: int) -> "Cluster":
        """A cluster of ``nodes`` nodes with this node anatomy."""
        return Cluster(nodes, *self.anatomy[1:])

    def __reduce__(self):
        return (Cluster, self.anatomy)

    @property
    def num_processors(self) -> int:
        return self.num_nodes * self.procs_per_node

    @property
    def default_memory(self) -> MemoryKind:
        """Where schedules place tensors unless told otherwise: GPU
        framebuffers on GPU clusters, node system memory elsewhere."""
        return (
            MemoryKind.GPU_FB
            if self.processor_kind is ProcessorKind.GPU
            else MemoryKind.SYSTEM_MEM
        )

    def memories(self) -> Sequence[Memory]:
        """All distinct memories in the cluster, indexed by memory id."""
        return self._memories

    def memory_name(self, mem_id: int) -> str:
        node, slot = divmod(mem_id, self.mems_per_node)
        return f"n{node}/sysmem" if slot == 0 else f"n{node}/fb{slot - 1}"

    # -- on-demand objects ----------------------------------------------

    def _memory(self, mem_id: int) -> Memory:
        node, slot = divmod(mem_id, self.mems_per_node)
        if slot == 0:
            kind, capacity = MemoryKind.SYSTEM_MEM, self.system_mem_capacity
        else:
            kind, capacity = self.proc_mem_kind, self.proc_mem_capacity
        return Memory(self.memory_name(mem_id), kind, capacity, node)

    def _processor(self, proc_id: int) -> Processor:
        node, local = divmod(proc_id, self.procs_per_node)
        mem_id = node * self.mems_per_node
        if not self._shared:
            mem_id += 1 + local
        return Processor(
            proc_id, self.processor_kind, node, local, self._memories[mem_id]
        )

    def _node(self, node_id: int) -> Node:
        first = node_id * self.procs_per_node
        return Node(
            node_id,
            self.processors[first:first + self.procs_per_node],
            self._memories[node_id * self.mems_per_node],
        )

    # -- columns ----------------------------------------------------------

    def node_of_proc(self) -> np.ndarray:
        return (
            np.arange(self.num_processors, dtype=np.int64)
            // self.procs_per_node
        )

    def procmem_of_proc(self) -> np.ndarray:
        """Memory id of each processor's local memory."""
        if self._shared:
            return self.node_of_proc()
        node, local = np.divmod(
            np.arange(self.num_processors, dtype=np.int64),
            self.procs_per_node,
        )
        return node * self.mems_per_node + 1 + local

    def sysmem_of_node(self) -> np.ndarray:
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        return nodes * self.mems_per_node

    def mem_capacity(self) -> np.ndarray:
        per_node = [self.system_mem_capacity]
        per_node += [self.proc_mem_capacity] * (self.mems_per_node - 1)
        return np.tile(np.asarray(per_node, dtype=np.int64), self.num_nodes)

    def mem_gpu(self) -> np.ndarray:
        """Whether each memory is a GPU framebuffer."""
        fb = self.proc_mem_kind is MemoryKind.GPU_FB
        per_node = [False] + [fb] * (self.mems_per_node - 1)
        return np.tile(np.asarray(per_node, dtype=bool), self.num_nodes)

    @staticmethod
    def cpu_cluster(
        num_nodes: int,
        sockets_per_node: int = 2,
        system_mem_gib: int = 256,
    ) -> "Cluster":
        """A Lassen-like CPU cluster; each socket is one abstract processor.

        The paper models "each CPU socket as an abstract DISTAL processor"
        (Section 7.1.1); Lassen nodes are dual-socket Power9 with 256 GiB.
        """
        return Cluster.build(
            num_nodes=num_nodes,
            procs_per_node=sockets_per_node,
            proc_kind=ProcessorKind.CPU_SOCKET,
            proc_mem_kind=MemoryKind.SYSTEM_MEM,
            proc_mem_capacity=system_mem_gib * GIB,
            system_mem_capacity=system_mem_gib * GIB,
        )

    @staticmethod
    def gpu_cluster(
        num_nodes: int,
        gpus_per_node: int = 4,
        framebuffer_gib: int = 16,
        reserved_gib: float = 1.0,
    ) -> "Cluster":
        """A Lassen-like GPU cluster: four 16 GiB V100s per node.

        ``reserved_gib`` models the framebuffer the CUDA context and the
        runtime's internal pools consume; tensor instances can only use
        the remainder (this is what pushes replication-heavy algorithms
        over the edge at scale, Section 7.1.2). Each node's system
        memory is Lassen's 256 GiB.
        """
        usable = int((framebuffer_gib - reserved_gib) * GIB)
        return Cluster.build(
            num_nodes=num_nodes,
            procs_per_node=gpus_per_node,
            proc_kind=ProcessorKind.GPU,
            proc_mem_kind=MemoryKind.GPU_FB,
            proc_mem_capacity=usable,
            system_mem_capacity=256 * GIB,
        )

    def __repr__(self) -> str:
        kind = self.processor_kind.value
        return (
            f"Cluster({self.num_nodes} nodes x {self.procs_per_node} "
            f"{kind} procs)"
        )
