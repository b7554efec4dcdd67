"""Memory and communication bounds: sound against the executor, and
pinned on a memory-constrained cluster."""

import pytest

from repro.analysis import comm_lower_bound, memory_bounds
from repro.core.kernel import compile_kernel
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.sim.params import LASSEN
from repro.sim.costmodel import CostModel
from repro.tuner.space import enumerate_space, realize
from repro.tuner.workloads import matmul, ttm


def observed_peak(assignment, decision, cluster, bound):
    """Execute the candidate and read the target memory's high water."""
    machine = Machine(cluster, Grid(*decision.grid))
    schedule, _ = realize(assignment, machine, decision)
    kernel = compile_kernel(schedule, machine)
    result = kernel.trace(check_capacity=False, mode="batched")
    return result.memory_high_water.get(bound.memory_name, 0)


class TestMemoryBounds:
    @pytest.mark.parametrize(
        "assignment", [matmul(512), ttm(64)], ids=["matmul", "ttm"]
    )
    def test_brackets_the_executor(self, assignment):
        cluster = Cluster.cpu_cluster(4)
        for decision in enumerate_space(
            assignment, cluster.num_processors
        ):
            bound = memory_bounds(assignment, decision, cluster)
            peak = observed_peak(assignment, decision, cluster, bound)
            enc = decision.encode()
            assert bound.lower_bytes <= peak, (
                f"{enc}: lower bound {bound.lower_bytes} exceeds "
                f"observed peak {peak}"
            )
            assert peak <= bound.upper_bytes, (
                f"{enc}: observed peak {peak} exceeds upper bound "
                f"{bound.upper_bytes}"
            )

    def test_tighter_than_the_old_static_check(self):
        # Pinned on a memory-constrained cluster: the bound proves 364 of
        # the 500 candidates infeasible; the floor-block check it
        # replaced proved 126.
        assignment = matmul(4096)
        cluster = Cluster.build(
            num_nodes=32,
            procs_per_node=2,
            proc_kind=ProcessorKind.CPU_SOCKET,
            proc_mem_kind=MemoryKind.SYSTEM_MEM,
            proc_mem_capacity=32 * 1024 * 1024,
            system_mem_capacity=32 * 1024 * 1024,
        )
        space = enumerate_space(assignment, cluster.num_processors)
        infeasible = sum(
            memory_bounds(
                assignment, decision, cluster, MemoryKind.SYSTEM_MEM
            ).infeasible
            for decision in space
        )
        assert len(space) == 500
        assert infeasible == 364

    def test_components_are_reported(self):
        assignment = matmul(1024)
        cluster = Cluster.cpu_cluster(4)
        space = enumerate_space(assignment, cluster.num_processors)
        stepped = [d for d in space if d.step_comm and d.rotate]
        assert stepped
        bound = memory_bounds(assignment, stepped[0], cluster)
        assert bound.home_bytes > 0
        assert bound.lower_bytes <= bound.upper_bytes
        assert "peak in" in bound.describe()


class TestCommBound:
    def test_sound_against_every_candidate(self):
        # No schedule the tuner can express moves less than the bound
        # (per average node).
        assignment = matmul(1024)
        cluster = Cluster.cpu_cluster(4, system_mem_gib=1)
        # Condition on one tensor's worth of local bytes: much tighter
        # than capacity, still sound for single-tensor-resident nodes.
        bound = comm_lower_bound(assignment, cluster, LASSEN)
        model = CostModel(cluster, LASSEN)
        for decision in enumerate_space(
            assignment, cluster.num_processors
        ):
            machine = Machine(cluster, Grid(*decision.grid))
            schedule, _ = realize(assignment, machine, decision)
            kernel = compile_kernel(schedule, machine)
            result = kernel.trace(check_capacity=False, mode="orbit")
            report = model.time_trace(result.trace)
            per_node = report.inter_node_bytes / bound.num_nodes
            assert per_node >= bound.per_node_bytes

    def test_matmul_uses_the_itt_model_when_memory_is_small(self):
        assignment = matmul(8192)
        cluster = Cluster.cpu_cluster(64, system_mem_gib=1)
        bound = comm_lower_bound(
            assignment, cluster, LASSEN, local_bytes=64 * 1024 * 1024
        )
        assert bound.per_node_bytes > 0
        volume_only = comm_lower_bound(
            assignment, cluster, LASSEN, local_bytes=64 * 1024 * 1024
        )
        assert bound.model in ("volume", "itt-loomis-whitney")
        assert bound.per_node_bytes == volume_only.per_node_bytes

    def test_certificate(self):
        assignment = matmul(8192)
        cluster = Cluster.cpu_cluster(16, system_mem_gib=2)
        bound = comm_lower_bound(assignment, cluster, LASSEN)
        if bound.per_node_bytes == 0:
            assert bound.certificate(10**9) is None
        else:
            total = bound.per_node_bytes * bound.num_nodes
            assert bound.certificate(total) == pytest.approx(1.0)
            assert bound.certificate(2 * total) == pytest.approx(2.0)
