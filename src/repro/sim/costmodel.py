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
  traffic with numpy scatter-adds rather than per-copy Python loops.
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
from repro.obs.metrics import METRICS
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
    #: (``price_skeleton(..., breakdown=True)``): phase labels, byte
    #: totals, and whether the step's communication price was replayed
    #: from an earlier identical copy batch.
    labels: Tuple[str, ...]
    step_copy_bytes: Tuple[int, ...]
    step_inter_bytes: Tuple[int, ...]
    price_replayed: Tuple[bool, ...]
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


def _step_digest(cols: CopyColumns) -> Tuple:
    """Content digest of a step's copy batch (collision-checked only by
    probability; used to reuse a *price* across identical steps, where a
    collision would mis-time both executors identically)."""
    return (
        cols.n,
        cols.num_groups,
        hash(cols.nbytes.tobytes()),
        hash(cols.src_proc.tobytes()),
        hash(cols.dst_proc.tobytes()),
        hash(cols.group.tobytes()),
        hash(cols.reduce.tobytes()),
        hash(cols.gpu_resident.tobytes()),
        hash(cols.src_gpu.tobytes()),
        hash(cols.dst_gpu.tobytes()),
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
                    price_replayed=skeleton.price_replayed[index],
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
        """
        if isinstance(copies, CopyColumns):
            cols = copies
        elif columns is not None:
            cols = columns
        else:
            cols = CopyColumns.from_copies(copies)
        if cols.n == 0:
            return 0.0
        params = self.params
        scale = params.collective_efficiency
        inter_bw = np.where(
            cols.gpu_resident, params.nic_bw_gpu_direct, params.nic_bw
        )
        intra_bw = np.where(
            cols.src_gpu & cols.dst_gpu,
            params.nvlink_bw,
            np.where(
                cols.src_gpu | cols.dst_gpu,
                params.pcie_bw,
                params.cpu_mem_bw,
            ),
        )
        node_out = np.zeros(self.cluster.num_nodes)
        node_in = np.zeros(self.cluster.num_nodes)
        proc_out = np.zeros(self.cluster.num_processors)
        proc_in = np.zeros(self.cluster.num_processors)

        group = cols.group
        n_groups = cols.num_groups
        idx = np.arange(cols.n)
        inter = cols.inter
        reduce = cols.reduce
        multicast = ~reduce

        # Per-group shape: fan counts and first members (emission order).
        fan = np.bincount(group, minlength=n_groups)
        n_inter = np.bincount(group[inter], minlength=n_groups)
        n_intra = fan - n_inter
        first_inter = np.full(n_groups, cols.n)
        np.minimum.at(first_inter, group[inter], idx[inter])
        first_intra = np.full(n_groups, cols.n)
        np.minimum.at(first_intra, group[~inter], idx[~inter])
        first_any = np.minimum(first_inter, first_intra)
        grp_reduce = reduce[first_any]
        max_stages = int(np.ceil(np.log2(fan + 1)).max())
        max_stages = max(1, max_stages)

        # Every receiver pulls one payload in (multicast) / every sender
        # pushes one out (reduction) — per-copy scatter-adds.
        sel = multicast & inter
        np.add.at(
            node_in,
            cols.dst_node[sel],
            scale * cols.nbytes[sel] / inter_bw[sel],
        )
        sel = reduce & inter
        np.add.at(
            node_out,
            cols.src_node[sel],
            scale * cols.nbytes[sel] / inter_bw[sel],
        )
        sel = multicast & ~inter
        np.add.at(
            proc_in, cols.dst_proc[sel], cols.nbytes[sel] / intra_bw[sel]
        )
        sel = reduce & ~inter
        np.add.at(
            proc_out, cols.src_proc[sel], cols.nbytes[sel] / intra_bw[sel]
        )

        # Collective roots: the source (multicast) / destination
        # (reduction) link carries at most ``bcast_relay_factor``
        # payloads, rated at the first inter-node member's bandwidth.
        groups_mi = np.flatnonzero((n_inter > 0) & ~grp_reduce)
        if groups_mi.size:
            fi = first_inter[groups_mi]
            relay = np.minimum(n_inter[groups_mi], params.bcast_relay_factor)
            np.add.at(
                node_out,
                cols.src_node[fi],
                scale * relay * cols.nbytes[fi] / inter_bw[fi],
            )
        groups_ri = np.flatnonzero((n_inter > 0) & grp_reduce)
        if groups_ri.size:
            fi = first_inter[groups_ri]
            relay = np.minimum(n_inter[groups_ri], params.bcast_relay_factor)
            np.add.at(
                node_in,
                cols.dst_node[fi],
                scale * relay * cols.nbytes[fi] / inter_bw[fi],
            )

        # Interior nodes of broadcast trees retransmit: ceil(fan_out/2)
        # of the inter-node receivers forward the full payload once.
        fwd_groups = (n_inter > 2) & ~grp_reduce
        if np.any(fwd_groups):
            sel = multicast & inter
            sel_idx = idx[sel]
            sel_grp = group[sel]
            order = np.argsort(sel_grp, kind="stable")
            sorted_grp = sel_grp[order]
            sorted_idx = sel_idx[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_grp[1:] != sorted_grp[:-1]]
            )
            seg_len = np.diff(np.r_[starts, sorted_grp.size])
            rank = np.arange(sorted_grp.size) - np.repeat(starts, seg_len)
            quota = -(-n_inter // 2)  # ceil(fan_out / 2)
            take = fwd_groups[sorted_grp] & (rank < quota[sorted_grp])
            takers = sorted_idx[take]
            fi = first_inter[sorted_grp[take]]
            np.add.at(
                node_out,
                cols.dst_node[takers],
                scale * cols.nbytes[fi] / inter_bw[fi],
            )

        # Intra-node collective roots.
        groups_mI = np.flatnonzero((n_intra > 0) & ~grp_reduce)
        if groups_mI.size:
            fi = first_intra[groups_mI]
            relay = np.minimum(n_intra[groups_mI], 2)
            np.add.at(
                proc_out,
                cols.src_proc[fi],
                relay * cols.nbytes[fi] / intra_bw[fi],
            )
        groups_rI = np.flatnonzero((n_intra > 0) & grp_reduce)
        if groups_rI.size:
            fi = first_intra[groups_rI]
            relay = np.minimum(n_intra[groups_rI], 2)
            np.add.at(
                proc_in,
                cols.dst_proc[fi],
                relay * cols.nbytes[fi] / intra_bw[fi],
            )

        worst_link = max(
            node_out.max(),
            node_in.max(),
            proc_out.max(),
            proc_in.max(),
        )
        return float(worst_link) + params.latency * max_stages


class SkeletonAccumulator:
    """Prices steps one at a time into a :class:`TraceSkeleton`.

    ``add(step)`` prices a completed step's communication and captures
    its work entries; ``finish(high_water)`` returns the skeleton. An
    executor given an accumulator (``Kernel.trace(skeleton=...)``)
    adds each step as it closes and then releases the step's copy
    columns, so a streamed run never holds more than one step's
    columns; :meth:`CostModel.skeleton_of` adds a finished trace's
    steps in order. Both give the same skeleton.

    Steps with byte-identical copy batches (a systolic algorithm's
    steady state repeats one batch every iteration) are priced once via
    a content digest, so communication pricing scales with the number
    of *distinct* steps. The digest hit pattern is kept per step
    (``price_replayed``) — the replay provenance the observability
    layer surfaces — and counted in the metrics registry.

    ``shared`` is a digest-to-price dict that outlives the run: the
    grid's prices under the model's parameters
    (:meth:`~repro.runtime.orbit_state._MachineTables.prices`), so a
    step another run on the grid priced is not priced again. It only
    saves the pricing: ``price_replayed`` keeps its per-run meaning,
    and ``costmodel.shared_price_hits`` counts the steps it served.
    """

    def __init__(self, model: CostModel,
                 shared: Optional[Dict[Tuple, float]] = None):
        self._model = model
        self._steps: List[Tuple[float, Tuple[WorkEntry, ...]]] = []
        self._priced: Dict[Tuple, float] = {}
        self._shared = {} if shared is None else shared
        self._shared_hits = 0
        self._labels: List[str] = []
        self._copy_bytes: List[int] = []
        self._inter_bytes: List[int] = []
        self._replayed: List[bool] = []

    def add(self, step: Step):
        with span("costmodel.skeleton"):
            cols = step.columns()
            hit = False
            if cols.n == 0:
                t_comm = 0.0
            else:
                digest = _step_digest(cols)
                t_comm = self._priced.get(digest)
                hit = t_comm is not None
                if not hit:
                    t_comm = self._shared.get(digest)
                    if t_comm is None:
                        t_comm = self._model.comm_time(cols)
                        self._shared[digest] = t_comm
                    else:
                        self._shared_hits += 1
                    self._priced[digest] = t_comm
            self._steps.append((t_comm, _work_entries(step)))
            self._labels.append(step.label)
            # Exact sums over the copies, without building them.
            self._copy_bytes.append(int(cols.nbytes.sum()))
            self._inter_bytes.append(int(cols.nbytes @ cols.inter))
            self._replayed.append(hit)

    def finish(self, high_water: Dict[str, int]) -> TraceSkeleton:
        price_hits = sum(self._replayed)
        METRICS.inc("costmodel.step_price_hits", price_hits)
        METRICS.inc(
            "costmodel.step_price_misses", len(self._steps) - price_hits
        )
        METRICS.inc("costmodel.shared_price_hits", self._shared_hits)
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
            price_replayed=tuple(self._replayed),
        )
