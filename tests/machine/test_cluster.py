"""Unit tests for the physical cluster model."""

import pickle

import pytest

from repro.algorithms.matmul import cannon
from repro.api import ScheduleRequest
from repro.bench.cache import cluster_signature
from repro.machine.cluster import (
    GIB,
    Cluster,
    MemoryKind,
    ProcessorKind,
)
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.costmodel import CostModel
from repro.sim.params import LASSEN
from repro.tuner.workloads import lean_cluster, matmul, ttv


class TestCpuCluster:
    def test_shape(self):
        cl = Cluster.cpu_cluster(4)
        assert cl.num_nodes == 4
        assert cl.procs_per_node == 2
        assert cl.num_processors == 8
        assert cl.processor_kind is ProcessorKind.CPU_SOCKET

    def test_sockets_share_system_memory(self):
        cl = Cluster.cpu_cluster(2)
        node = cl.nodes[0]
        mems = {proc.memory for proc in node.processors}
        assert len(mems) == 1
        assert node.processors[0].memory.kind is MemoryKind.SYSTEM_MEM

    def test_processor_hash_pairs_with_equality(self):
        # Processors are identified by id: two clusters of one anatomy
        # build equal processors that hash alike.
        a, b = Cluster.cpu_cluster(2), Cluster.cpu_cluster(2)
        assert a.processors[1] == b.processors[1]
        assert hash(a.processors[1]) == hash(b.processors[1])
        assert len(set(a.processors) | set(b.processors)) == 4

    def test_node_ids(self):
        cl = Cluster.cpu_cluster(3)
        assert [p.node_id for p in cl.processors] == [0, 0, 1, 1, 2, 2]


class TestGpuCluster:
    def test_shape(self):
        cl = Cluster.gpu_cluster(2)
        assert cl.procs_per_node == 4
        assert cl.num_processors == 8
        assert cl.processor_kind is ProcessorKind.GPU

    def test_framebuffers_distinct(self):
        cl = Cluster.gpu_cluster(1)
        mems = {proc.memory for proc in cl.processors}
        assert len(mems) == 4
        for mem in mems:
            assert mem.kind is MemoryKind.GPU_FB

    def test_capacity_reserve(self):
        cl = Cluster.gpu_cluster(1, framebuffer_gib=16, reserved_gib=1.0)
        fb = cl.processors[0].memory
        assert fb.capacity_bytes == 15 * GIB

    def test_memories_include_sysmem(self):
        cl = Cluster.gpu_cluster(1)
        kinds = {m.kind for m in cl.memories()}
        assert kinds == {MemoryKind.SYSTEM_MEM, MemoryKind.GPU_FB}


class TestValidation:
    def test_empty_cluster(self):
        with pytest.raises(ValueError):
            Cluster.build(
                0, 2, ProcessorKind.CPU_SOCKET, MemoryKind.SYSTEM_MEM, GIB
            )
        with pytest.raises(ValueError):
            Cluster.cpu_cluster(2).resized(0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            Cluster.build(
                num_nodes=0,
                procs_per_node=1,
                proc_kind=ProcessorKind.CPU_SOCKET,
                proc_mem_kind=MemoryKind.SYSTEM_MEM,
                proc_mem_capacity=GIB,
            )


# ----------------------------------------------------------------------
# On-demand objects against an eager reference.
# ----------------------------------------------------------------------


def _eager(num_nodes, procs_per_node, proc_kind, proc_mem_kind,
           proc_mem_capacity, system_mem_capacity):
    """The objects an eager build makes, as field tuples: one Memory per
    node's DRAM and per framebuffer, one Processor per socket or GPU,
    memories listed per node, system memory first."""
    procs, nodes, mems = [], [], []
    for node_id in range(num_nodes):
        sysmem = (f"n{node_id}/sysmem", MemoryKind.SYSTEM_MEM,
                  system_mem_capacity, node_id)
        mems.append(sysmem)
        local_procs = []
        for local in range(procs_per_node):
            if proc_mem_kind is MemoryKind.SYSTEM_MEM:
                mem = sysmem
            else:
                mem = (f"n{node_id}/fb{local}", proc_mem_kind,
                       proc_mem_capacity, node_id)
                mems.append(mem)
            proc_id = len(procs)
            procs.append((proc_id, proc_kind, node_id, local, mem))
            local_procs.append(proc_id)
        nodes.append((node_id, local_procs, sysmem))
    return procs, nodes, mems


def _mem_fields(mem):
    return (mem.name, mem.kind, mem.capacity_bytes, mem.node_id)


ANATOMIES = {
    "cpu-1-socket": lambda: Cluster.cpu_cluster(3, sockets_per_node=1),
    "cpu-2-socket": lambda: Cluster.cpu_cluster(3),
    "gpu": lambda: Cluster.gpu_cluster(2),
    "lean": lambda: lean_cluster(3),
    "coarse-rung": lambda: Cluster.gpu_cluster(16).resized(16 // 4),
}


@pytest.fixture(params=sorted(ANATOMIES))
def cluster(request):
    return ANATOMIES[request.param]()


class TestOnDemandParity:
    def test_objects_match_eager_build(self, cluster):
        procs, nodes, mems = _eager(*cluster.anatomy)
        assert len(cluster.processors) == len(procs)
        assert [
            (p.proc_id, p.kind, p.node_id, p.local_index,
             _mem_fields(p.memory))
            for p in cluster.processors
        ] == procs
        assert [
            (n.node_id, [p.proc_id for p in n.processors],
             _mem_fields(n.system_memory))
            for n in cluster.nodes
        ] == nodes
        assert [_mem_fields(m) for m in cluster.memories()] == mems

    def test_objects_are_built_once(self, cluster):
        last = cluster.num_processors - 1
        assert cluster.processors[last] is cluster.processors[-1]
        assert cluster.nodes[-1].processors[-1] is cluster.processors[last]
        node = cluster.nodes[0]
        assert node is cluster.nodes[0]
        assert node.system_memory is cluster.memories()[0]
        for proc in node.processors:
            if cluster.processor_kind is ProcessorKind.CPU_SOCKET:
                assert proc.memory is node.system_memory
            else:
                assert proc.memory is cluster.memories()[
                    1 + proc.local_index
                ]
        with pytest.raises(IndexError):
            cluster.processors[cluster.num_processors]

    def test_columns_agree_with_objects(self, cluster):
        mems = list(cluster.memories())
        mem_id = {m.name: i for i, m in enumerate(mems)}
        assert cluster.node_of_proc().tolist() == [
            p.node_id for p in cluster.processors
        ]
        assert cluster.procmem_of_proc().tolist() == [
            mem_id[p.memory.name] for p in cluster.processors
        ]
        assert cluster.sysmem_of_node().tolist() == [
            mem_id[n.system_memory.name] for n in cluster.nodes
        ]
        assert cluster.mem_capacity().tolist() == [
            m.capacity_bytes for m in mems
        ]
        assert cluster.mem_gpu().tolist() == [
            m.kind is MemoryKind.GPU_FB for m in mems
        ]
        assert [cluster.memory_name(i) for i in range(len(mems))] == [
            m.name for m in mems
        ]

    def test_pickle_round_trip(self, cluster):
        cluster.processors[0]
        back = pickle.loads(pickle.dumps(cluster))
        assert back.anatomy == cluster.anatomy
        assert repr(back) == repr(cluster)
        assert list(back.processors) == list(cluster.processors)
        assert list(back.memories()) == list(cluster.memories())
        assert [
            _mem_fields(p.memory) for p in back.processors
        ] == [_mem_fields(p.memory) for p in cluster.processors]


class TestAnatomyPins:
    """Signatures and request fingerprints read the cluster's anatomy;
    their values are pinned so ledgers and served answers stay keyed
    as before."""

    SIGNATURES = {
        "cpu-1-socket": (3, 1, "cpu", "sysmem", 256 * GIB, 256 * GIB),
        "cpu-2-socket": (3, 2, "cpu", "sysmem", 256 * GIB, 256 * GIB),
        "gpu": (2, 4, "gpu", "gpu_fb", 15 * GIB, 256 * GIB),
        "lean": (3, 1, "cpu", "sysmem", GIB, GIB),
        "coarse-rung": (4, 4, "gpu", "gpu_fb", 15 * GIB, 256 * GIB),
    }
    FINGERPRINTS = {
        "cpu-1-socket": ("ba8f529cf9f0661b", "924a9569cf1e5644"),
        "cpu-2-socket": ("a5f185a017883300", "6ecffe6d37842665"),
        "gpu": ("b93158157012dc29", "b8814173155398b7"),
        "lean": ("d2697dd8370110ca", "24c47221bebf5c05"),
        "coarse-rung": ("d7b51516c11b5302", "8d232d46a881f5b3"),
    }

    def test_cluster_signatures(self):
        for name, build in ANATOMIES.items():
            assert cluster_signature(build()) == self.SIGNATURES[name]

    def test_request_fingerprints(self):
        for name, build in ANATOMIES.items():
            cl = build()
            got = (
                ScheduleRequest.from_assignment(matmul(512), cl),
                ScheduleRequest.from_assignment(ttv(64), cl, seed=3),
            )
            assert tuple(r.fingerprint() for r in got) == (
                self.FINGERPRINTS[name]
            )
            assert got[0].cluster().anatomy == cl.anatomy


class TestObjectsStayUnbuilt:
    """Simulation reads the cluster's columns; it builds objects only
    for the processors that carry a Work class."""

    def test_cost_model_builds_nothing(self):
        cl = Cluster.cpu_cluster(1024)
        CostModel(cl, LASSEN)
        assert (cl.processors.built, cl.nodes.built,
                cl.memories().built) == (0, 0, 0)

    def test_streamed_simulation_builds_few_processors(self):
        cl = Cluster.cpu_cluster(1024)
        kernel = cannon(Machine(cl, Grid(64, 32)), 8192)
        kernel.simulate(LASSEN)
        assert 0 < cl.processors.built < 0.01 * cl.num_processors
        assert cl.nodes.built == 0
        assert cl.memories().built <= cl.processors.built
