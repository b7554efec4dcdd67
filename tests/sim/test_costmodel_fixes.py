"""Regression tests for the cost-model bugfixes.

* Mixed-kernel steps: flops are priced per kernel, not all at the last
  kernel's efficiency (the ``Work.add`` clobbering bug).
* Broadcast trees: ``ceil(fan_out/2)`` interior nodes forward the full
  payload (the seed spread half a payload over every receiver).
* Task overhead scales with ``Work.invocations`` (over-decomposition
  launches more tasks per processor per step).
* The vectorized ``comm_time`` matches on columnar and list inputs.
* Hand-priced steps pin the forwarder quota, the out-of-core naive leaf
  and the price-memo counters exactly.
* Orbit class representatives refuse pricing: a representative stands
  for members whose endpoints it does not carry (pricing it as
  ``count`` copies of itself mispriced every step).
"""

import pytest

from repro.algorithms.matmul import summa
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine
from repro.runtime.trace import Copy, CopyColumns, Step, Trace, Work
from repro.sim.costmodel import CostModel
from repro.sim.params import LASSEN
from repro.util.errors import RepresentativeCopyError
from repro.util.geometry import Interval, Rect


def copy_between(cluster, src, dst, nbytes, tensor="T", reduce=False):
    sp = cluster.processors[src]
    dp = cluster.processors[dst]
    return Copy(
        tensor=tensor,
        rect=Rect.of(Interval(0, nbytes // 8)),
        nbytes=nbytes,
        src_proc=sp,
        dst_proc=dp,
        src_mem=sp.memory,
        dst_mem=dp.memory,
        reduce=reduce,
    )


@pytest.fixture
def cpu1():
    return Cluster.cpu_cluster(1)


class TestMixedKernelPricing:
    def test_each_kernel_priced_at_own_efficiency(self, cpu1):
        model = CostModel(cpu1, LASSEN)
        rate = LASSEN.cpu_socket_gflops * LASSEN.runtime_core_fraction

        step = Step(label="mixed")
        work = step.work_for(cpu1.processors[0])
        work.add(1e12, 0.0, "blas_gemm", False)
        work.add(1e12, 0.0, None, False)  # a naive leaf in the same step

        expected = 1e12 / (rate * LASSEN.gemm_efficiency) + 1e12 / (
            rate * LASSEN.naive_leaf_efficiency
        )
        assert model.compute_time(step) == pytest.approx(expected)

    def test_seed_bug_would_underprice(self, cpu1):
        # The seed priced both terms at the last-added kernel's
        # efficiency; adding the naive leaf last must NOT discount the
        # GEMM flops (nor vice versa).
        model = CostModel(cpu1, LASSEN)
        rate = LASSEN.cpu_socket_gflops * LASSEN.runtime_core_fraction

        gemm_last = Step(label="gemm-last")
        w = gemm_last.work_for(cpu1.processors[0])
        w.add(1e12, 0.0, None, False)
        w.add(1e12, 0.0, "blas_gemm", False)

        naive_last = Step(label="naive-last")
        w = naive_last.work_for(cpu1.processors[0])
        w.add(1e12, 0.0, "blas_gemm", False)
        w.add(1e12, 0.0, None, False)

        t1 = model.compute_time(gemm_last)
        t2 = model.compute_time(naive_last)
        assert t1 == pytest.approx(t2)  # order-independent
        all_at_gemm = 2e12 / (rate * LASSEN.gemm_efficiency)
        assert t1 > all_at_gemm  # naive flops are not discounted

    def test_out_of_core_naive_leaf(self):
        # A GPU leaf whose data is staged from host memory runs at the
        # out-of-core efficiency on top of the naive-leaf efficiency:
        # both divide the GPU's flop rate.
        cluster = Cluster.gpu_cluster(1)
        model = CostModel(cluster, LASSEN)
        step = Step(label="naive-ooc")
        step.work_for(cluster.processors[0]).add(
            1e12, 0.0, None, False, staged_bytes=1e6
        )
        expected = 1e12 / (
            LASSEN.gpu_gflops
            * LASSEN.naive_leaf_efficiency
            * LASSEN.out_of_core_efficiency
        )
        assert model.compute_time(step) == pytest.approx(expected, rel=1e-12)

    def test_work_tracks_per_kernel_flops(self):
        w = Work()
        w.add(100.0, 0.0, "blas_gemm", False)
        w.add(50.0, 0.0, None, False)
        w.add(25.0, 0.0, "blas_gemm", False)
        assert w.kernel_flops == {"blas_gemm": 125.0, None: 50.0}
        assert w.flops == 175.0
        assert w.kernel == "blas_gemm"  # label survives a None add


class TestBroadcastForwarding:
    def test_interior_nodes_forward_full_payload(self):
        # Broadcast A: node 0 -> nodes 1..5 (fan-out 5, so ceil(5/2) = 3
        # interior receivers forward the full payload once). Node 1 is
        # interior in A *and* roots its own broadcast B to nodes 6..10,
        # so its out-link carries 1 forward + 2 root payloads = 3 — the
        # worst link. The seed charged every receiver only half a
        # forward, reporting 2.5 payloads on that link.
        cluster = Cluster.cpu_cluster(11, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        nbytes = 250_000_000
        copies = [
            copy_between(cluster, 0, dst, nbytes, tensor="A")
            for dst in (1, 2, 3, 4, 5)
        ]
        copies += [
            copy_between(cluster, 1, dst, nbytes, tensor="B")
            for dst in (6, 7, 8, 9, 10)
        ]
        t = model.comm_time(copies)
        payload = nbytes / LASSEN.nic_bw
        stages = 3  # ceil(log2(5 + 1))
        assert t == pytest.approx(
            3 * payload + LASSEN.latency * stages, rel=1e-9
        )

    @pytest.mark.parametrize("fan_out", [5, 6])
    def test_forwarder_quota_is_ceil_half(self, fan_out):
        # Broadcast T: node 0 -> nodes 1..fan_out, one per node, so its
        # first ceil(fan_out / 2) = 3 receivers (nodes 1..3) forward one
        # payload each. Node 3 (the last forwarder) and node 4 (the
        # first receiver that does not forward) also root big singleton
        # copies to spare nodes. Node 3's out-link is the worst link by
        # half a payload over node 4's; one forwarder more or fewer
        # moves the worst link.
        cluster = Cluster.cpu_cluster(fan_out + 3, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        nbytes = 100_000_000
        copies = [
            copy_between(cluster, 0, dst, nbytes, tensor="T")
            for dst in range(1, fan_out + 1)
        ]
        copies += [
            copy_between(cluster, 3, fan_out + 1, 4 * nbytes, tensor="S3"),
            copy_between(cluster, 4, fan_out + 2, 9 * nbytes // 2,
                         tensor="S4"),
        ]
        t = model.comm_time(copies)
        payload = LASSEN.collective_efficiency * nbytes / LASSEN.nic_bw
        stages = 3  # ceil(log2(fan_out + 1))
        assert t == pytest.approx(
            5 * payload + LASSEN.latency * stages, rel=1e-12
        )

    @pytest.mark.parametrize("fan_out, forwards", [(2, 0), (3, 1)])
    def test_forwarding_starts_above_fan_out_two(self, fan_out, forwards):
        # Broadcast T: node 0 -> nodes 1..fan_out. Node 1, its first
        # receiver, also roots a singleton copy of three payloads, so
        # its out-link is the worst link, plus one payload if it
        # forwards T.
        cluster = Cluster.cpu_cluster(fan_out + 2, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        nbytes = 100_000_000
        copies = [
            copy_between(cluster, 0, dst, nbytes, tensor="T")
            for dst in range(1, fan_out + 1)
        ]
        copies.append(
            copy_between(cluster, 1, fan_out + 1, 3 * nbytes, tensor="S")
        )
        t = model.comm_time(copies)
        payload = LASSEN.collective_efficiency * nbytes / LASSEN.nic_bw
        stages = 2  # ceil(log2(fan_out + 1))
        assert t == pytest.approx(
            (3 + forwards) * payload + LASSEN.latency * stages, rel=1e-12
        )

    def test_small_fanout_does_not_forward(self):
        # Fan-out of 2 fits under the source's relay factor: receivers
        # never retransmit.
        cluster = Cluster.cpu_cluster(3, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        nbytes = 250_000_000
        copies = [
            copy_between(cluster, 0, d, nbytes, tensor="T") for d in (1, 2)
        ]
        t = model.comm_time(copies)
        payload = nbytes / LASSEN.nic_bw
        stages = 2  # ceil(log2(3))
        assert t == pytest.approx(
            2 * payload + LASSEN.latency * stages, rel=1e-9
        )


class TestStepPrices:
    def test_each_step_priced_by_comm_time(self):
        # Steps A, B, A, (no copies), B: every step's price is its own
        # comm_time, so the two A steps price to the same float. (A and
        # B move the same bytes in opposite directions.)
        cluster = Cluster.cpu_cluster(2, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        trace = Trace()
        for batch in ("A", "B", "A", None, "B"):
            step = trace.new_step(f"step-{batch}")
            if batch is not None:
                src = 0 if batch == "A" else 1
                step.copies.append(copy_between(
                    cluster, src, 1 - src, 1 << 20, tensor=batch
                ))
        phases = model.time_trace(trace, breakdown=True).breakdown.phases
        prices = [phase.comm_s for phase in phases]
        assert prices == [model.comm_time(s.columns()) for s in trace.steps]
        assert prices[0] == prices[2]
        assert prices[3] == 0.0


class TestTaskOverheadScaling:
    def _trace_with_invocations(self, cluster, invocations):
        trace = Trace()
        step = trace.new_step("s")
        work = step.work_for(cluster.processors[0])
        for _ in range(invocations):
            work.add(1e9, 0.0, "blas_gemm", False)
        return trace

    def test_overhead_scales_with_invocations(self, cpu1):
        model = CostModel(cpu1, LASSEN)
        t1 = model.time_trace(self._trace_with_invocations(cpu1, 1))
        t4 = model.time_trace(self._trace_with_invocations(cpu1, 4))
        # 4 leaf launches: 4x the flops and 3 extra task overheads.
        assert t4.total_time == pytest.approx(
            4 * (t1.total_time - LASSEN.task_overhead)
            + 4 * LASSEN.task_overhead
        )

    def test_step_without_work_pays_one_overhead(self, cpu1):
        model = CostModel(cpu1, LASSEN)
        trace = Trace()
        trace.new_step("fetch-only")
        assert model.time_trace(trace).total_time == pytest.approx(
            LASSEN.task_overhead
        )


class TestColumnarEquivalence:
    def test_columns_match_copy_list(self):
        cluster = Cluster.cpu_cluster(4, sockets_per_node=2)
        model = CostModel(cluster, LASSEN)
        copies = [
            copy_between(cluster, 0, 2, 8_000_000, tensor="A"),
            copy_between(cluster, 0, 4, 8_000_000, tensor="A"),
            copy_between(cluster, 0, 1, 8_000_000, tensor="A"),  # intra
            copy_between(cluster, 3, 0, 16_000_000, tensor="B", reduce=True),
            copy_between(cluster, 5, 0, 16_000_000, tensor="B", reduce=True),
        ]
        via_list = model.comm_time(copies)
        via_columns = model.comm_time(CopyColumns.from_copies(copies))
        assert via_list == via_columns

    def test_step_caches_columns(self):
        cluster = Cluster.cpu_cluster(2, sockets_per_node=1)
        step = Step(label="s")
        step.copies.append(copy_between(cluster, 0, 1, 800))
        cols = step.columns()
        assert step.columns() is cols  # cached
        step.copies.append(copy_between(cluster, 1, 0, 800))
        cols2 = step.columns()  # invalidated by growth
        assert cols2.n == 2


class TestRepresentativesRefusePricing:
    def test_orbit_steps_price_per_member(self):
        machine = Machine(Cluster.cpu_cluster(16), Grid(8, 4))
        kernel = summa(machine, 1024)
        orbit = kernel.trace(mode="orbit").trace
        scalar = kernel.trace(mode="scalar").trace
        model = CostModel(machine.cluster, LASSEN)
        assert len(orbit.steps) == len(scalar.steps)
        compressed = 0
        for o_step, s_step in zip(orbit.steps, scalar.steps):
            if not o_step.copies:
                assert not s_step.copies
                continue
            compressed += 1
            assert any(c.count > 1 for c in o_step.copies), o_step.label
            with pytest.raises(RepresentativeCopyError):
                model.comm_time(o_step.copies)
            with pytest.raises(RepresentativeCopyError):
                CopyColumns.from_copies(o_step.copies)
            assert model.comm_time(o_step.columns()) == model.comm_time(
                s_step.copies
            ), o_step.label
        assert compressed == 8
