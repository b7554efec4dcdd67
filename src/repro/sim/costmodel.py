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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.machine.cluster import Cluster, ProcessorKind
from repro.obs.spans import span
from repro.runtime.trace import CopyColumns, Step, Trace
from repro.sim.params import MachineParams
from repro.sim.report import PhaseBreakdown, PhaseCost, SimReport

GEMM_KERNELS = {"blas_gemm", "cublas_gemm", "gemm"}

#: One processor-class's leaf work inside a skeleton step:
#: ``(proc_id, ((kernel, flops), ...), bytes_touched, staged_bytes,
#: invocations, count)``.
WorkEntry = Tuple[int, Tuple[Tuple[Optional[str], float], ...], float,
                  float, int, int]


@dataclass
class TraceSkeleton:
    """A priced sub-trace: everything needed to re-derive a
    :class:`SimReport` without the trace.

    Communication is pre-priced per step (``t_comm``); compute is kept
    as per-processor-class work entries, priced by the roofline in
    :meth:`CostModel.price_skeleton`. Skeletons are small — per-class
    work rows and one float per step — independent of the machine size,
    so ``Kernel.simulate`` can accumulate one while a run streams its
    steps and drop each step's copy columns as it closes.
    """

    steps: List[Tuple[float, Tuple[WorkEntry, ...]]]
    inter_node_bytes: float
    total_copy_bytes: float
    num_nodes: int
    #: Per-step attribution columns the observability layer consumes
    #: (``price_skeleton(..., breakdown=True)``): phase labels and byte
    #: totals.
    labels: Tuple[str, ...]
    step_copy_bytes: Tuple[int, ...]
    step_inter_bytes: Tuple[int, ...]
    memory_high_water: Dict[str, int] = field(default_factory=dict)


def _work_entries(step: Step) -> Tuple[WorkEntry, ...]:
    """A step's work table as skeleton entries (one layout, one place)."""
    return tuple(
        (
            proc_id,
            tuple(w.kernel_flops.items()),
            w.bytes_touched,
            w.staged_bytes,
            w.invocations,
            w.count,
        )
        for proc_id, w in step.work.items()
    )


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
        same priced columns, in the same order).
        """
        return self.price_skeleton(
            self.skeleton_of(trace), breakdown=breakdown
        )

    def skeleton_of(self, trace: Trace) -> TraceSkeleton:
        """Price a finished trace's steps into a skeleton (see
        :class:`SkeletonAccumulator`, which also prices steps as a run
        produces them)."""
        acc = SkeletonAccumulator(self)
        for step in trace.steps:
            acc.add(step)
        return acc.finish(trace.memory_high_water)

    def price_skeleton(
        self,
        skeleton: TraceSkeleton,
        breakdown: bool = False,
    ) -> SimReport:
        """A :class:`SimReport` from a priced sub-trace: each step's
        pre-priced communication plus its work entries' roofline
        compute, overlapped or summed per ``params.overlap``.

        ``breakdown=True`` additionally attaches a
        :class:`~repro.sim.report.PhaseBreakdown` built from the same
        per-step quantities (identical floats, identical summation
        order), so parity-pinned reports stay byte-identical.
        """
        total = 0.0
        comm_total = 0.0
        compute_total = 0.0
        flops = 0.0
        bytes_touched = 0.0
        phases: List[PhaseCost] = []
        for index, (t_comm, work) in enumerate(skeleton.steps):
            if breakdown:
                entry_times = self._compute_entries(work, per_entry=True)
                t_compute = (
                    float(entry_times.max()) if entry_times.size else 0.0
                )
            else:
                t_compute = self._compute_entries(work)
            if self.params.overlap:
                t_step = max(t_comm, t_compute)
            else:
                t_step = t_comm + t_compute
            overhead = self.params.task_overhead * max(
                (entry[4] for entry in work), default=1
            )
            t_step += overhead
            total += t_step
            comm_total += t_comm
            compute_total += t_compute
            step_flops = 0.0
            for entry in work:
                step_flops += sum(fl for _k, fl in entry[1]) * entry[5]
                bytes_touched += entry[2] * entry[5]
            flops += step_flops
            if breakdown:
                phases.append(PhaseCost(
                    index=index,
                    label=skeleton.labels[index],
                    comm_s=t_comm,
                    compute_s=t_compute,
                    overhead_s=overhead,
                    total_s=t_step,
                    copy_bytes=skeleton.step_copy_bytes[index],
                    inter_node_bytes=skeleton.step_inter_bytes[index],
                    flops=step_flops,
                    class_times=tuple(
                        (entry[0], entry[5], float(entry_times[i]))
                        for i, entry in enumerate(work)
                    ),
                ))
        return SimReport(
            total_time=total,
            comm_time=comm_total,
            compute_time=compute_total,
            total_flops=flops,
            bytes_touched=bytes_touched,
            inter_node_bytes=skeleton.inter_node_bytes,
            total_copy_bytes=skeleton.total_copy_bytes,
            num_nodes=skeleton.num_nodes,
            memory_high_water=dict(skeleton.memory_high_water),
            num_steps=len(skeleton.steps),
            breakdown=(
                PhaseBreakdown(phases=tuple(phases)) if breakdown else None
            ),
        )

    # ------------------------------------------------------------------
    # Compute.
    # ------------------------------------------------------------------

    def compute_time(self, step: Step) -> float:
        return self._compute_entries(_work_entries(step))

    def _compute_entries(
        self,
        entries: Tuple[WorkEntry, ...],
        per_entry: bool = False,
    ):
        """Compute time of a step's work entries.

        Returns the bulk-synchronous step time ``float(worst.max())``,
        or — with ``per_entry=True`` — the per-entry ``worst`` array
        itself, whose max is that same float (the breakdown's per-class
        attribution reuses the identical roofline evaluation).
        """
        if not entries:
            return np.empty(0) if per_entry else 0.0
        params = self.params
        n = len(entries)
        gemm_flops = np.empty(n)
        other_flops = np.empty(n)
        bytes_touched = np.empty(n)
        staged = np.empty(n)
        is_gpu = np.full(n, self._gpu)
        for i, entry in enumerate(entries):
            g = o = 0.0
            for kern, fl in entry[1]:
                if kern in GEMM_KERNELS:
                    g += fl
                else:
                    o += fl
            gemm_flops[i] = g
            other_flops[i] = o
            bytes_touched[i] = entry[2]
            staged[i] = entry[3]
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
        worst = np.maximum(np.maximum(t_flops, t_bytes), t_staged)
        if per_entry:
            return worst
        return float(worst.max())

    # ------------------------------------------------------------------
    # Communication.
    # ------------------------------------------------------------------

    def comm_time(
        self,
        copies,
        columns: Optional[CopyColumns] = None,
    ) -> float:
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
        elif columns is not None:
            cols = columns
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


class SkeletonAccumulator:
    """Prices steps one at a time into a :class:`TraceSkeleton`.

    ``add(step)`` prices a completed step's communication and captures
    its work entries; ``finish(high_water)`` returns the skeleton. An
    executor given an accumulator (``Kernel.trace(skeleton=...)``)
    adds each step as it closes and then releases the step's copy
    columns, so a streamed run never holds more than one step's
    columns; :meth:`CostModel.skeleton_of` adds a finished trace's
    steps in order. Both give the same skeleton.

    Every step is priced by one :meth:`CostModel.comm_time` call: a
    cost model is a plain function of the step, so equal copy batches
    price to equal floats without a memo.
    """

    def __init__(self, model: CostModel):
        self._model = model
        self._steps: List[Tuple[float, Tuple[WorkEntry, ...]]] = []
        self._labels: List[str] = []
        self._copy_bytes: List[int] = []
        self._inter_bytes: List[int] = []

    def add(self, step: Step):
        with span("costmodel.skeleton"):
            cols = step.columns()
            self._steps.append(
                (self._model.comm_time(cols), _work_entries(step))
            )
            self._labels.append(step.label)
            # Exact sums over the copies, without building them.
            self._copy_bytes.append(int(cols.nbytes.sum()))
            self._inter_bytes.append(int(cols.nbytes @ cols.inter))

    def finish(self, high_water: Dict[str, int]) -> TraceSkeleton:
        # The per-step byte columns sum (exact integers, same order) to
        # the trace aggregates the seed read directly.
        return TraceSkeleton(
            steps=self._steps,
            inter_node_bytes=sum(self._inter_bytes),
            total_copy_bytes=sum(self._copy_bytes),
            num_nodes=self._model.cluster.num_nodes,
            memory_high_water=dict(high_water),
            labels=tuple(self._labels),
            step_copy_bytes=tuple(self._copy_bytes),
            step_inter_bytes=tuple(self._inter_bytes),
        )
