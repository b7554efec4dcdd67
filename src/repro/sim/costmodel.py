"""Turning execution traces into time.

Per step (bulk-synchronous phase):

* **Communication.** Copies are grouped into collectives: same source
  instance to many destinations is a multicast (tree: the source link
  carries at most ``bcast_relay_factor`` payloads, receivers relay);
  reductions are inverted trees keyed by destination. Inter-node traffic
  contends for each node's NIC (in and out separately); intra-node GPU
  traffic contends for NVLink per processor. GPU-resident data crosses
  nodes at the measured GPU-direct rate, host-resident at the full NIC
  rate — the distinction behind the paper's COSMA-vs-DISTAL GPU gap.

  Broadcast trees charge their *interior* nodes for retransmission: of a
  fan-out of ``k`` inter-node receivers (``k > 2``), ``ceil(k / 2)``
  receivers forward the full payload once. (The seed spread half a
  payload over every receiver instead, underestimating interior-node
  congestion under the max-link model.)

  The whole analysis is vectorized: it consumes the step's columnar copy
  view (:class:`~repro.runtime.trace.CopyColumns`) and aggregates link
  traffic with one ``np.bincount`` per link array rather than per-copy
  Python loops.
* **Compute.** Per processor, a roofline: FLOPs at the leaf kernel's
  efficiency or bytes at memory bandwidth, whichever dominates. Flops
  are priced per kernel (``Work.kernel_flops``): a processor running a
  GEMM leaf and a naive leaf in one step pays each at its own
  efficiency. A step takes as long as its slowest processor (lockstep).
* **Overhead.** Each step pays the runtime's task-launch overhead once
  per leaf invocation on its busiest processor
  (``task_overhead * max(Work.invocations)``); over-decomposed grids
  launch more tasks per processor and pay proportionally.
* **Overlap.** With a runtime that overlaps communication and
  computation (Legion, COSMA) a step costs ``max(comm, compute)``;
  blocking systems pay ``comm + compute``. The paper attributes
  ScaLAPACK's and CTF's CPU shortfall exactly to this (Section 7.1.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.machine.cluster import Cluster, ProcessorKind
from repro.obs.spans import span
from repro.runtime.trace import CopyColumns, Step, Trace, Work
from repro.sim.params import MachineParams
from repro.sim.report import PhaseBreakdown, PhaseCost, SimReport

GEMM_KERNELS = {"blas_gemm", "cublas_gemm", "gemm"}


class CostModel:
    """Times traces produced by the executor."""

    def __init__(self, cluster: Cluster, params: MachineParams):
        self.cluster = cluster
        self.params = params
        self._gpu = cluster.processor_kind is ProcessorKind.GPU

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def time_trace(self, trace: Trace, breakdown: bool = False) -> SimReport:
        """Total time and derived rates for a full kernel execution.

        ``breakdown=True`` attaches a per-phase
        :class:`~repro.sim.report.PhaseBreakdown` to the report; every
        scalar number is unchanged (the breakdown is derived from the
        same per-step prices, in the same order).
        """
        acc = SkeletonAccumulator(self, breakdown=breakdown)
        for step in trace.steps:
            acc.add(step)
        return self.price_skeleton(acc, trace.memory_high_water)

    def price_skeleton(
        self,
        acc: SkeletonAccumulator,
        high_water: Dict[str, int],
    ) -> SimReport:
        """The :class:`SimReport` of the steps ``acc`` priced, with the
        run's per-memory ``high_water`` marks; its per-phase breakdown
        when ``acc`` was made with ``breakdown=True``."""
        return SimReport(
            total_time=acc.total_time,
            comm_time=acc.comm_time,
            compute_time=acc.compute_time,
            total_flops=acc.flops,
            bytes_touched=acc.bytes_touched,
            inter_node_bytes=acc.inter_node_bytes,
            total_copy_bytes=acc.copy_bytes,
            num_nodes=self.cluster.num_nodes,
            memory_high_water=dict(high_water),
            num_steps=acc.num_steps,
            breakdown=(
                None if acc.phases is None
                else PhaseBreakdown(phases=tuple(acc.phases))
            ),
        )

    # ------------------------------------------------------------------
    # Compute.
    # ------------------------------------------------------------------

    def compute_time(self, step: Step) -> float:
        """Roofline time of a step's slowest processor."""
        return _slowest(self._compute_entries(list(step.work.values())))

    def _compute_entries(self, works: List[Work]) -> np.ndarray:
        """Roofline time of each of a step's work entries."""
        if not works:
            return np.empty(0)
        params = self.params
        n = len(works)
        gemm_flops = np.empty(n)
        other_flops = np.empty(n)
        bytes_touched = np.empty(n)
        staged = np.empty(n)
        is_gpu = np.full(n, self._gpu)
        for i, w in enumerate(works):
            g = o = 0.0
            for kern, fl in w.kernel_flops.items():
                if kern in GEMM_KERNELS:
                    g += fl
                else:
                    o += fl
            gemm_flops[i] = g
            other_flops[i] = o
            bytes_touched[i] = w.bytes_touched
            staged[i] = w.staged_bytes
        rate = np.where(
            is_gpu,
            params.gpu_gflops,
            params.cpu_socket_gflops * params.runtime_core_fraction,
        )
        mem_bw = np.where(is_gpu, params.gpu_mem_bw, params.cpu_mem_bw)
        ooc = np.where(
            (staged > 0) & is_gpu, params.out_of_core_efficiency, 1.0
        )
        # Each kernel's flops at its own efficiency; a processor running
        # mixed leaves in one step executes them back to back.
        t_flops = gemm_flops / (rate * params.gemm_efficiency * ooc)
        t_flops += other_flops / (rate * params.naive_leaf_efficiency * ooc)
        t_bytes = bytes_touched / mem_bw
        t_staged = staged / params.pcie_bw
        return np.maximum(np.maximum(t_flops, t_bytes), t_staged)

    # ------------------------------------------------------------------
    # Communication.
    # ------------------------------------------------------------------

    def comm_time(self, copies) -> float:
        """Communication time of one step's copy batch.

        Consumes the columnar view (:class:`CopyColumns`) — pass it
        directly, or pass a ``Copy`` list to have it columnarized (the
        convenience path tests and analyses use).

        Each link array sums its terms in one fixed order: per-copy
        terms in row order, then collective roots in group order, then
        broadcast forwarders by group and row. ``np.bincount`` adds its
        weights sequentially, so one ``bincount`` per link over the
        concatenated terms gives the floats one scatter-add per category
        would. Categories a step lacks are skipped, uniform residency
        divides by a scalar bandwidth, and a step whose every copy is
        its own collective group skips the group analysis.
        """
        if isinstance(copies, CopyColumns):
            cols = copies
        else:
            cols = CopyColumns.from_copies(copies)
        n = cols.n
        if n == 0:
            return 0.0
        params = self.params
        scale = params.collective_efficiency
        nbytes = cols.nbytes
        cross = np.flatnonzero(cols.inter)
        local = np.flatnonzero(~cols.inter)
        reduce = cols.reduce if cols.reduce.any() else None
        inter_bw = _select(
            cols.gpu_resident, params.nic_bw_gpu_direct, params.nic_bw
        )
        intra_bw = _select(
            cols.src_gpu & cols.dst_gpu,
            params.nvlink_bw,
            _select(
                cols.src_gpu | cols.dst_gpu, params.pcie_bw, params.cpu_mem_bw
            ),
        )
        # Row categories: multicast/reduction x inter/intra-node.
        mi, ri = _split(cross, reduce)
        mI, rI = _split(local, reduce)

        # Every receiver pulls one payload in (multicast) / every sender
        # pushes one out (reduction): (link index, weight) terms.
        w_mi = scale * nbytes[mi] / _at(inter_bw, mi)
        w_mI = nbytes[mI] / _at(intra_bw, mI)
        node_out, node_in = [], [(cols.dst_node[mi], w_mi)]
        proc_out, proc_in = [], [(cols.dst_proc[mI], w_mI)]
        if reduce is not None:
            w_ri = scale * nbytes[ri] / _at(inter_bw, ri)
            w_rI = nbytes[rI] / _at(intra_bw, rI)
            node_out.append((cols.src_node[ri], w_ri))
            proc_out.append((cols.src_proc[rI], w_rI))

        if cols.num_groups == n and np.array_equal(cols.group, np.arange(n)):
            # One copy per group, in row order: a group's root is its
            # row, every fan-out is 1 and nothing forwards. An intra-node
            # root relays 1 payload and an inter-node one
            # min(1, bcast_relay_factor), so a root's term is its row's
            # own per-copy term whenever that relay is 1 too.
            relay = min(1, params.bcast_relay_factor)

            def roots(rows, w):
                if relay == 1:
                    return w
                return scale * relay * nbytes[rows] / _at(inter_bw, rows)

            node_out.append((cols.src_node[mi], roots(mi, w_mi)))
            proc_out.append((cols.src_proc[mI], w_mI))
            if reduce is not None:
                node_in.append((cols.dst_node[ri], roots(ri, w_ri)))
                proc_in.append((cols.dst_proc[rI], w_rI))
            max_stages = 1
        else:
            max_stages = self._group_terms(
                cols, cross, local, inter_bw, intra_bw, reduce,
                node_out, node_in, proc_out, proc_in,
            )

        worst_link = max(
            _link_max(node_out, self.cluster.num_nodes),
            _link_max(node_in, self.cluster.num_nodes),
            _link_max(proc_out, self.cluster.num_processors),
            _link_max(proc_in, self.cluster.num_processors),
        )
        return float(worst_link) + params.latency * max_stages

    def _group_terms(self, cols, cross, local, inter_bw, intra_bw, reduce,
                     node_out, node_in, proc_out, proc_in) -> int:
        """Append the collective roots' and broadcast forwarders' terms
        of a step with shared groups, in group order, and return the
        step's tree depth ``max_stages``.

        A group's copies are all multicasts or all reductions (its key
        carries the flag), so a broadcast's inter-node receivers are its
        rows among ``cross``. Those rows, stably sorted by group, give
        each group's inter-node fan-out, its first member (the root's
        row) and its first ``ceil(fan_out / 2)`` receivers (the
        forwarders), in group, then row, order.
        """
        params = self.params
        scale = params.collective_efficiency
        nbytes = cols.nbytes
        by_inter, n_inter, at_inter, first_inter = _by_group(
            cross, cols.group, cols.num_groups, cols.n
        )
        _, n_intra, _, first_intra = _by_group(
            local, cols.group, cols.num_groups, cols.n
        )
        # ceil(log2(f + 1)) == f.bit_length() for integers f >= 0.
        max_stages = max(1, int((n_inter + n_intra).max()).bit_length())
        if reduce is None:
            multicast_grp = None
        else:
            reduce_grp = reduce[np.minimum(first_inter, first_intra)]
            multicast_grp = ~reduce_grp

        # Collective roots: the source (multicast) / destination
        # (reduction) link carries at most ``bcast_relay_factor``
        # payloads, rated at the first inter-node member's bandwidth;
        # an intra-node root relays at most 2.
        roots = [(multicast_grp, cols.src_node, cols.src_proc,
                  node_out, proc_out)]
        if reduce is not None:
            roots.append((reduce_grp, cols.dst_node, cols.dst_proc,
                          node_in, proc_in))
        for members, node, proc, node_terms, proc_terms in roots:
            grp = _groups(n_inter > 0, members)
            fi = first_inter[grp]
            relay = np.minimum(n_inter[grp], params.bcast_relay_factor)
            node_terms.append(
                (node[fi], scale * relay * nbytes[fi] / _at(inter_bw, fi))
            )
            grp = _groups(n_intra > 0, members)
            fi = first_intra[grp]
            relay = np.minimum(n_intra[grp], 2)
            proc_terms.append(
                (proc[fi], relay * nbytes[fi] / _at(intra_bw, fi))
            )

        # Interior nodes of broadcast trees retransmit: ceil(fan_out/2)
        # of the inter-node receivers forward the root's payload once.
        fwd = _groups(n_inter > 2, multicast_grp)
        if fwd.size:
            quota = -(-n_inter[fwd] // 2)
            skip = at_inter[fwd] - (np.cumsum(quota) - quota)
            takers = by_inter[np.arange(quota.sum()) + np.repeat(skip, quota)]
            fi = first_inter[fwd]
            node_out.append((
                cols.dst_node[takers],
                np.repeat(scale * nbytes[fi] / _at(inter_bw, fi), quota),
            ))
        return max_stages


def _split(rows: np.ndarray, reduce: Optional[np.ndarray]):
    """``rows`` split into their multicast and reduction rows (``None``
    where the step has no reductions)."""
    if reduce is None:
        return rows, None
    r = reduce[rows]
    return rows[~r], rows[r]


def _by_group(rows: np.ndarray, group: np.ndarray, n_groups: int, n: int):
    """``rows`` stably sorted by group, with each group's row count, the
    offset of its rows in that order and its first row (``n``: none)."""
    grp = group[rows]
    count = np.bincount(grp, minlength=n_groups)
    if not np.all(grp[1:] >= grp[:-1]):
        # A stable sort is one permutation; numpy radix-sorts 16-bit
        # keys, so narrow the ids when they fit.
        key = grp.astype(np.uint16) if n_groups <= 1 << 16 else grp
        rows = rows[np.argsort(key, kind="stable")]
    at = np.cumsum(count) - count
    first = np.full(n_groups, n)
    has = count > 0
    first[has] = rows[at[has]]
    return rows, count, at, first


def _groups(has: np.ndarray, members: Optional[np.ndarray]) -> np.ndarray:
    """Ids of the groups where ``has`` holds, among ``members`` (None:
    every group)."""
    return np.flatnonzero(has if members is None else has & members)


def _select(values: np.ndarray, a, b):
    """``np.where(values, a, b)``, or ``a`` / ``b`` itself where
    ``values`` is uniform: dividing by a scalar gives the floats that
    dividing by an array of it does."""
    if values.all():
        return a
    if not values.any():
        return b
    return np.where(values, a, b)


def _at(bw, rows):
    """A bandwidth (scalar or per-row array) at ``rows``."""
    return bw[rows] if isinstance(bw, np.ndarray) else bw


def _link_max(terms, size: int) -> float:
    """Worst load of one link array, its ``(index, weight)`` terms
    summed per link in the order given."""
    terms = [t for t in terms if t[0].size]
    if not terms:
        return 0.0
    if len(terms) == 1:
        index, weight = terms[0]
    else:
        index = np.concatenate([t[0] for t in terms])
        weight = np.concatenate([t[1] for t in terms])
    return np.bincount(index, weights=weight, minlength=size).max()


def _slowest(times: np.ndarray) -> float:
    """A lockstep step's compute time: its slowest entry's (0 if none)."""
    return float(times.max()) if times.size else 0.0


class SkeletonAccumulator:
    """Prices steps one at a time, as they close, into running totals.

    ``add(step)`` prices the whole step: its communication (one
    :meth:`CostModel.comm_time` call on its columns), its work
    entries' roofline compute, overlapped or summed per
    ``params.overlap``, and the launch overhead. An executor given an
    accumulator (``Kernel.trace(skeleton=...)``) adds each step as it
    closes and then releases the step's copy columns, so a streamed
    run never holds more than one step's columns;
    :meth:`CostModel.time_trace` adds a finished trace's steps in
    order. Both sum the same floats in the same order, and
    :meth:`CostModel.price_skeleton` turns the totals into a report.

    ``breakdown=True`` also keeps one
    :class:`~repro.sim.report.PhaseCost` per step (``phases``).
    """

    def __init__(self, model: CostModel, breakdown: bool = False):
        self._model = model
        self.phases: Optional[List[PhaseCost]] = [] if breakdown else None
        self.total_time = 0.0
        self.comm_time = 0.0
        self.compute_time = 0.0
        self.flops = 0.0
        self.bytes_touched = 0.0
        self.inter_node_bytes = 0
        self.copy_bytes = 0
        self.num_steps = 0

    def add(self, step: Step):
        with span("costmodel.skeleton"):
            model = self._model
            params = model.params
            cols = step.columns()
            t_comm = model.comm_time(cols)
            works = list(step.work.values())
            times = model._compute_entries(works)
            t_compute = _slowest(times)
            if params.overlap:
                t_step = max(t_comm, t_compute)
            else:
                t_step = t_comm + t_compute
            overhead = params.task_overhead * max(
                (w.invocations for w in works), default=1
            )
            t_step += overhead
            self.total_time += t_step
            self.comm_time += t_comm
            self.compute_time += t_compute
            step_flops = 0.0
            for w in works:
                step_flops += sum(w.kernel_flops.values()) * w.count
                self.bytes_touched += w.bytes_touched * w.count
            self.flops += step_flops
            # Exact sums over the copies, without building them.
            copy_bytes = int(cols.nbytes.sum())
            inter_bytes = int(cols.nbytes @ cols.inter)
            self.copy_bytes += copy_bytes
            self.inter_node_bytes += inter_bytes
            if self.phases is not None:
                self.phases.append(PhaseCost(
                    index=self.num_steps,
                    label=step.label,
                    comm_s=t_comm,
                    compute_s=t_compute,
                    overhead_s=overhead,
                    total_s=t_step,
                    copy_bytes=copy_bytes,
                    inter_node_bytes=inter_bytes,
                    flops=step_flops,
                    class_times=tuple(
                        (proc_id, w.count, float(t))
                        for (proc_id, w), t in zip(step.work.items(), times)
                    ),
                ))
            self.num_steps += 1
