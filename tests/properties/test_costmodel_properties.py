"""Property-based checks on the cost model.

Physical sanity: time is monotone in bytes, overlap never loses,
collectives never beat their own payloads, and the simulator is
deterministic. Exactness: ``comm_time`` equals the reference
formulation it replaced, float for float.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, Machine
from repro.algorithms import summa
from repro.runtime.trace import Copy, CopyColumns, Trace
from repro.sim.costmodel import CostModel
from repro.sim.params import LASSEN
from repro.util.geometry import Interval, Rect

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sim"))
from reference_pricing import reference_comm_time  # noqa: E402

lax = settings(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_copies(cluster, spec):
    """spec: list of (src, dst, nbytes, reduce)."""
    out = []
    for idx, (src, dst, nbytes, reduce) in enumerate(spec):
        sp = cluster.processors[src % cluster.num_processors]
        dp = cluster.processors[dst % cluster.num_processors]
        if sp.proc_id == dp.proc_id:
            continue
        out.append(
            Copy(
                tensor=f"T{idx}",
                rect=Rect.of(Interval(0, max(nbytes // 8, 1))),
                nbytes=nbytes,
                src_proc=sp,
                dst_proc=dp,
                src_mem=sp.memory,
                dst_mem=dp.memory,
                reduce=reduce,
            )
        )
    return out


copy_spec = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(1_000, 100_000_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class TestCommTimeProperties:
    @given(copy_spec)
    @lax
    def test_time_nonnegative_and_finite(self, spec):
        cluster = Cluster.cpu_cluster(8, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        t = model.comm_time(make_copies(cluster, spec))
        assert t >= 0.0
        assert np.isfinite(t)

    @given(copy_spec, st.integers(2, 5))
    @lax
    def test_monotone_in_bytes(self, spec, factor):
        cluster = Cluster.cpu_cluster(8, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        small = make_copies(cluster, spec)
        big = make_copies(
            cluster,
            [(s, d, n * factor, r) for s, d, n, r in spec],
        )
        assert model.comm_time(big) >= model.comm_time(small)

    @given(copy_spec)
    @lax
    def test_subset_never_slower(self, spec):
        cluster = Cluster.cpu_cluster(8, sockets_per_node=1)
        model = CostModel(cluster, LASSEN)
        full = make_copies(cluster, spec)
        half = full[: max(1, len(full) // 2)]
        assert model.comm_time(half) <= model.comm_time(full) + 1e-12

    @given(copy_spec)
    @lax
    def test_overlap_never_loses(self, spec):
        cluster = Cluster.cpu_cluster(8, sockets_per_node=1)
        trace = Trace()
        step = trace.new_step("s")
        step.copies.extend(make_copies(cluster, spec))
        step.work_for(cluster.processors[0]).add(1e10, 0, "blas_gemm", False)
        t_overlap = CostModel(cluster, LASSEN).time_trace(trace).total_time
        t_block = (
            CostModel(cluster, LASSEN.with_(overlap=False))
            .time_trace(trace)
            .total_time
        )
        assert t_overlap <= t_block + 1e-12


#: Per-row memory residency (src_gpu, dst_gpu) of a generated step:
#: uniform host, uniform framebuffer, uniform host-to-GPU, or mixed.
RESIDENCY = ("cpu", "gpu", "pcie", "mixed")


@st.composite
def step_columns(draw):
    """A cluster anatomy and a step's copy columns on it.

    Groups are identity singletons (group id == row), permuted
    singletons, or shared groups of fan-out 1-9 in shuffled row order;
    each group is all multicasts (one source, many receivers) or all
    reductions (many senders, one destination), as the executor emits
    them. Endpoints land on few nodes, so inter- and intra-node copies
    mix and broadcasts forward; payloads vary per row, so a root's
    first member matters.
    """
    nodes = draw(st.sampled_from((3, 2, 6, 1)))
    per_node = draw(st.integers(1, 3))
    procs = nodes * per_node
    layout = draw(st.sampled_from(("shared", "identity", "permuted")))
    n_groups = draw(st.integers(1, 8))
    residency = draw(st.sampled_from(RESIDENCY))
    proc = st.integers(0, procs - 1)
    rows = []
    for g in range(n_groups):
        fan = 1 if layout != "shared" else draw(st.integers(1, 9))
        reduce = draw(st.booleans())
        root = draw(proc)
        for _ in range(fan):
            other = draw(proc)
            src, dst = (other, root) if reduce else (root, other)
            if residency == "mixed":
                gpu = (draw(st.booleans()), draw(st.booleans()))
            else:
                gpu = {"cpu": (False, False), "gpu": (True, True),
                       "pcie": (False, True)}[residency]
            nbytes = draw(st.sampled_from((1, 8, 4096, 3_000_017)))
            rows.append((g, reduce, src, dst, nbytes) + gpu)
    if layout != "identity":
        rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
        label = draw(st.permutations(range(n_groups)))
        rows = [(label[r[0]],) + r[1:] for r in rows]
    group, reduce, src, dst, nbytes, src_gpu, dst_gpu = (
        np.array(c) for c in zip(*rows)
    )
    src_node, dst_node = src // per_node, dst // per_node
    return nodes, per_node, CopyColumns(
        n=len(rows),
        nbytes=nbytes.astype(np.int64),
        src_proc=src.astype(np.int64),
        dst_proc=dst.astype(np.int64),
        src_node=src_node.astype(np.int64),
        dst_node=dst_node.astype(np.int64),
        inter=src_node != dst_node,
        reduce=reduce.astype(bool),
        gpu_resident=(src_gpu | dst_gpu).astype(bool),
        src_gpu=src_gpu.astype(bool),
        dst_gpu=dst_gpu.astype(bool),
        group=group.astype(np.int64),
        num_groups=n_groups,
    )


class TestCommTimeExact:
    @given(step_columns(), st.sampled_from((1, 1.5, 2.0, 3, 0.5)))
    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equals_reference(self, step, relay):
        nodes, per_node, cols = step
        cluster = Cluster.cpu_cluster(nodes, sockets_per_node=per_node)
        model = CostModel(cluster, LASSEN.with_(bcast_relay_factor=relay))
        assert model.comm_time(cols) == reference_comm_time(model, cols)


class TestDeterminism:
    def test_simulation_is_deterministic(self):
        m = Machine.flat(4, 2)
        reports = [summa(m, 4096).simulate(LASSEN) for _ in range(2)]
        assert reports[0].total_time == reports[1].total_time
        assert reports[0].total_copy_bytes == reports[1].total_copy_bytes

    def test_functional_and_symbolic_agree_on_traffic(self, rng):
        m = Machine.flat(3, 3)
        kern = summa(m, 18)
        f = kern.execute(
            {"B": rng.random((18, 18)), "C": rng.random((18, 18))}
        )
        s = kern.trace(check_capacity=False)
        assert f.trace.total_copy_bytes == s.trace.total_copy_bytes
