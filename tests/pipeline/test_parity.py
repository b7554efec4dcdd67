"""Parity contracts: single-stage pipelines and the handoff planner.

* ``Pipeline.simulate()`` on a single-stage pipeline is byte-identical
  to ``Kernel.simulate()`` on the same compiled kernel;
* a matched producer/consumer format emits zero redistribution
  ``Copy``s;
* the direct redistribution planner moves exactly the bytes the
  compiled transfer kernel (``core/transfer.py``) moves, whenever both
  apply (same machine grid).
"""

import pytest

from repro import (
    Format,
    Grid,
    LASSEN,
    Machine,
    Pipeline,
    TensorVar,
    redistribution_bytes,
)
from repro.core.transfer import formats_equivalent, redistribution_trace
from repro.machine.cluster import Cluster
from repro.tuner.space import Decision, normalize
from repro.tuner.workloads import matmul, matmul_chain


@pytest.fixture
def cluster():
    return Cluster.cpu_cluster(8)


def chain_decisions(pipe, grid_t=(2, 2), grid_d=(2, 2), tiled=("T",)):
    return {
        "T": normalize(
            pipe.stage("T").assignment,
            Decision(grid=grid_t, dist=("i", "j")),
        ),
        "D": normalize(
            pipe.stage("D").assignment,
            Decision(grid=grid_d, dist=("i", "l"), tiled=tiled),
        ),
    }


class TestSingleStageParity:
    def test_byte_identical_to_kernel_simulate(self):
        cluster = Cluster.cpu_cluster(4)
        pipe = Pipeline([matmul(2048)], cluster)
        plan = pipe.autoschedule()
        combined = plan.simulate(LASSEN).combined
        reference = plan.stages[0].kernel.simulate(LASSEN)
        assert combined == reference  # dataclass equality: every field

    def test_single_stage_report_has_no_edges(self):
        cluster = Cluster.cpu_cluster(4)
        plan = Pipeline([matmul(1024)], cluster).autoschedule()
        report = plan.simulate()
        assert report.edges == []
        assert report.redistribution_time == 0.0
        assert report.redistribution_bytes == 0.0


class TestMatchedHandoff:
    def test_matched_formats_emit_zero_copies(self, cluster):
        """Stage D tiles T over the same (2, 2) grid stage T writes it
        on — the handoff is matched and plans no traffic at all."""
        pipe = Pipeline(matmul_chain(512), cluster)
        plan = pipe.schedule_with(chain_decisions(pipe))
        src, src_m, dst, dst_m = plan.handoff_formats(pipe.edges[0])
        assert formats_equivalent(src, src_m, dst, dst_m)
        report = plan.simulate()
        assert report.edges[0].matched
        assert report.redistribution_bytes == 0.0
        assert report.redistribution_time == 0.0
        # The planner agrees: byte-for-byte nothing moves.
        T = plan.stage("D").tensor("T")
        trace = redistribution_trace(T, src, src_m, dst, dst_m)
        assert trace.copies == []
        # And the combined report is exactly the sum of the stages.
        assert report.combined.total_time == pytest.approx(
            sum(s.report.total_time for s in report.stages)
        )

    def test_mismatched_formats_plan_traffic(self, cluster):
        pipe = Pipeline(matmul_chain(512), cluster)
        decisions = chain_decisions(pipe, tiled=())  # D pulls T replicas
        plan = pipe.schedule_with(decisions)
        report = plan.simulate()
        assert not report.edges[0].matched
        assert report.redistribution_bytes > 0
        assert report.combined.total_time == pytest.approx(
            report.stage_time + report.redistribution_time
        )

    def test_direct_handoff_is_always_matched(self, cluster):
        pipe = Pipeline(matmul_chain(512), cluster)
        decisions = chain_decisions(pipe, tiled=())
        plan = pipe.schedule_with(decisions, handoffs={"T": "direct"})
        report = plan.simulate()
        assert report.edges[0].matched
        assert report.redistribution_bytes == 0.0


class TestPlannerTransferParity:
    @pytest.mark.parametrize("grid,src_fmt,dst_fmt", [
        ((4, 4), "ab -> ab", "ab -> ba"),
        ((4, 4), "ab -> a*", "ab -> ab"),
        ((4, 4), "ab -> *b", "ab -> ab"),
        ((16,), "ab -> a", "ab -> b"),
    ])
    def test_same_grid_bytes_match_transfer_kernel(
        self, cluster, grid, src_fmt, dst_fmt
    ):
        machine = Machine(cluster, Grid(*grid))
        src = Format(src_fmt)
        dst = Format(dst_fmt)
        T = TensorVar("T", (512, 512), src)
        planned = redistribution_trace(T, src, machine, dst, machine)
        reference = redistribution_bytes(T, dst, machine)
        assert planned.total_copy_bytes == reference

    def test_replicated_destination_counts_full_fanout(self, cluster):
        """A pull-replicated consumer layout needs the data at *every*
        replica holder — the planner charges the whole fan-out (unlike
        the compiled identity kernel, which writes one output copy and
        leaves replicas to materialize lazily on use)."""
        machine = Machine(cluster, Grid(4, 4))
        T = TensorVar("T", (512, 512))
        trace = redistribution_trace(
            T, Format("ab -> ab"), machine, Format("ab -> a*"), machine
        )
        # Each of the 16 holders needs its 4-tile row block; the tile
        # at its own coordinate is already local.
        assert trace.total_copy_bytes == 3 * T.nbytes

    def test_cross_grid_redistribution_is_conservative(self, cluster):
        """Across grids the transfer kernel cannot be compiled; the
        planner still moves at most one full copy of the tensor."""
        src_m = Machine(cluster, Grid(4, 4))
        dst_m = Machine(cluster, Grid(2, 8))
        fmt = Format("ab -> ab")
        T = TensorVar("T", (512, 512))
        trace = redistribution_trace(T, fmt, src_m, fmt, dst_m)
        assert 0 < trace.total_copy_bytes <= T.nbytes
        # Re-tiling (4,4) -> (2,8) keeps every row-block of 128 rows on
        # a node boundary subset: some pieces stay local.
        assert trace.total_copy_bytes < T.nbytes

    def test_same_shape_different_levels_not_equivalent(self):
        """A flat ``Grid(2, 4)`` and a hierarchical ``Grid(2) x Grid(4)``
        concatenate to the same shape but place grid points on different
        processors (row-major over all procs vs. nodes-then-local)."""
        small = Cluster.cpu_cluster(num_nodes=2, sockets_per_node=4)
        flat = Machine(small, Grid(4, 2))
        nested = Machine(small, Grid(4), Grid(2))
        assert flat.shape == nested.shape
        # Point (1, 0): row-major over all procs lands on node 0's third
        # socket, the hierarchical outer level wraps onto node 1.
        assert flat.proc_at((1, 0)) is not nested.proc_at((1, 0))
        fmt = Format("ab -> ab")
        assert not formats_equivalent(fmt, flat, fmt, nested)
        assert formats_equivalent(fmt, nested, fmt, nested)

    def test_memory_kind_change_is_a_real_transfer(self):
        from repro.machine.cluster import MemoryKind

        gpu = Cluster.gpu_cluster(4)
        machine = Machine(gpu, Grid(4, 4))
        sys_fmt = Format("ab -> ab", memory=MemoryKind.SYSTEM_MEM)
        fb_fmt = Format("ab -> ab", memory=MemoryKind.GPU_FB)
        assert not formats_equivalent(sys_fmt, machine, fb_fmt, machine)
        T = TensorVar("T", (512, 512))
        trace = redistribution_trace(T, sys_fmt, machine, fb_fmt, machine)
        # Same blocking: every piece crosses PCIe but stays on its node.
        assert trace.total_copy_bytes == T.nbytes
        assert trace.inter_node_bytes == 0
