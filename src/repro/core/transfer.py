"""Data redistribution between distributed layouts.

Section 1 of the paper: "DISTAL lets users specialize computation to the
way that data is already laid out, or easily transform data between
distributed layouts to match the computation." A transfer is compiled
like any kernel: the identity statement ``dst(i...) = src(i...)`` with
the *destination's* distribution driving the computation placement, so
the runtime's ownership analysis discovers exactly the copies the layout
change requires (including multi-owner splits).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.codegen.lower import lower_to_plan
from repro.core.kernel import Kernel
from repro.formats.format import Format
from repro.formats.distribution import DimName
from repro.ir.expr import IndexVar
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.machine import Machine
from repro.obs.metrics import METRICS
from repro.obs.spans import span
from repro.runtime.instances import instance_memory
from repro.runtime.trace import Copy, Trace
from repro.scheduling.schedule import Schedule
from repro.util.geometry import Interval, Rect


def transfer_kernel(
    src: TensorVar,
    dst_format: Format,
    machine: Machine,
) -> Kernel:
    """Compile a kernel that rewrites ``src`` into ``dst_format``.

    The returned kernel's output tensor (named ``<src>_re``) has the new
    format; executing it produces the array and a trace whose copies are
    precisely the redistribution traffic.
    """
    dst_format.check(src.ndim, machine)
    METRICS.inc("transfer.kernels_compiled")
    dst = TensorVar(f"{src.name}_re", src.shape, dst_format, dtype=src.dtype)
    ivars = [IndexVar(f"t{d}") for d in range(src.ndim)]
    stmt = Assignment(dst[tuple(ivars)], src[tuple(ivars)])
    sched = Schedule(stmt)

    # Distribute the copy the way the destination is laid out, so every
    # task writes only data it owns and reads wherever it lives.
    if dst_format.distributions:
        dist = dst_format.distributions[0]
        grid = machine.levels[0]
        partitioned = []
        for mdim_idx, mdim in enumerate(dist.machine_dims):
            if isinstance(mdim, DimName):
                tdim = dist.tensor_dims.index(mdim.name)
                partitioned.append((ivars[tdim], grid.shape[mdim_idx]))
        if partitioned:
            order = [v for v, _ in partitioned] + [
                v for v in ivars if v not in {p for p, _ in partitioned}
            ]
            sched.reorder(order)
            outers, inners = [], []
            for var, extent in partitioned:
                outer = IndexVar(f"{var.name}o")
                inner = IndexVar(f"{var.name}i")
                sched.divide(var, outer, inner, extent)
                outers.append(outer)
                inners.append(inner)
            sched.reorder(outers + inners)
            sched.distribute(outers)
            sched.communicate(src, outers[-1])
            sched.communicate(dst, outers[-1])
    plan = lower_to_plan(sched, machine)
    return Kernel(plan)


def redistribution_bytes(
    src: TensorVar, dst_format: Format, machine: Machine
) -> int:
    """Bytes a layout change moves, without executing it functionally.

    Traced by the orbit executor: ``Step.total_copy_bytes`` weighs each
    class representative by its multiplicity, so the count equals the
    uncompressed trace's."""
    kernel = transfer_kernel(src, dst_format, machine)
    result = kernel.trace(check_capacity=False, mode="orbit")
    return result.trace.total_copy_bytes


# ----------------------------------------------------------------------
# Direct redistribution planning (no kernel compilation).
# ----------------------------------------------------------------------


def formats_equivalent(
    src_format: Format,
    src_machine: Machine,
    dst_format: Format,
    dst_machine: Machine,
) -> bool:
    """Do two (format, machine) pairs describe the same physical layout?

    A :class:`~repro.formats.distribution.Distribution` is symbolic —
    the blocking adapts to the grid it is applied to — so equal notation
    only means equal placement when the grids agree too. The comparison
    is per machine *level*, not on the concatenated shape: a flat
    ``Grid(2, 4)`` and a hierarchical ``Grid(2) x Grid(4)`` have the
    same shape but place grid points on different processors. The
    memory kind is part of the layout: moving a tensor from system
    memory into framebuffers is a real transfer even when the blocking
    is unchanged.
    """
    return (
        src_format.notation() == dst_format.notation()
        and src_format.memory is dst_format.memory
        and tuple(g.shape for g in src_machine.levels)
        == tuple(g.shape for g in dst_machine.levels)
    )


def _canonical_coords(machine: Machine, proc_id: int) -> Tuple[int, ...]:
    """A machine coordinate placed on ``proc_id`` (row-major inverse of
    the flat placement rule; used to resolve replicated source dims to
    a holder that is local to the destination whenever one exists)."""
    index = proc_id % machine.size
    coords = []
    for extent in reversed(machine.shape):
        coords.append(index % extent)
        index //= extent
    return tuple(reversed(coords))


def _redirect_coords(
    machine: Machine,
    coords: Tuple[int, ...],
    replica_dims: Tuple[int, ...],
    avoid_nodes: frozenset,
) -> Tuple[int, ...]:
    """Re-source a piece away from avoided nodes when a replica allows.

    ``replica_dims`` are the machine dimensions the source layout
    replicates over — any coordinate along them holds an identical copy.
    Returns the lexicographically first replica coordinate whose
    processor survives; when none does (or the piece is not
    replicated), the original coordinate is returned and the caller
    sees a dead-source copy (fault replanning turns those into
    checkpoint restores).
    """
    if machine.proc_at(coords).node_id not in avoid_nodes:
        return coords
    if not replica_dims:
        return coords
    shape = machine.shape
    for combo in itertools.product(
        *(range(shape[d]) for d in replica_dims)
    ):
        cand = list(coords)
        for d, v in zip(replica_dims, combo):
            cand[d] = v
        cand_t = tuple(cand)
        if machine.proc_at(cand_t).node_id not in avoid_nodes:
            return cand_t
    return coords


def redistribution_trace(
    tensor: TensorVar,
    src_format: Format,
    src_machine: Machine,
    dst_format: Format,
    dst_machine: Machine,
    avoid_src_nodes: Optional[Iterable[int]] = None,
) -> Trace:
    """Plan the copies that move ``tensor`` between two layouts.

    The direct planner behind pipeline handoffs: instead of compiling
    the identity kernel (:func:`transfer_kernel`, which requires both
    layouts to target one machine grid), it enumerates every
    destination home piece and resolves its source owner with the same
    vectorized distribution arithmetic the orbit executor uses
    (:meth:`~repro.formats.format.Format.owner_pattern_batch`), so the
    two machines may organize the cluster into different grids.

    Pieces that are already resident at their destination processor (in
    the right memory) cost nothing; a matched layout therefore plans an
    empty trace. Replicated source dimensions resolve to the
    destination's canonical coordinate — a local replica when the
    destination holds one, a deterministic holder otherwise. Requests
    spanning several source pieces split per owner piece, all requests
    at once (:meth:`~repro.formats.format.Format.owner_pieces_batch`).

    Replicated *destination* dimensions are materialized: every replica
    holder receives its piece (the cost model groups the equal-source
    copies into one multicast). This is the honest cost of handing a
    tensor to a pull-replicated consumer, and is deliberately more than
    the compiled identity kernel of :func:`transfer_kernel` moves — the
    latter writes one output copy and leaves replicas to materialize
    lazily on first use.

    ``avoid_src_nodes`` supports fault recovery: source pieces homed on
    those nodes are re-sourced from the lexicographically first replica
    holder on a surviving node (when the source layout replicates the
    piece). Non-replicated pieces keep their dead source — the fault
    replanner detects those copies by node id and converts them into
    checkpoint restores.

    The returned trace carries pure :class:`Copy` traffic (one step, no
    leaf work, no memory accounting): feed it to
    :class:`~repro.sim.costmodel.CostModel.time_trace` for a
    :class:`~repro.sim.report.SimReport` of the handoff.
    """
    with span("transfer.plan"):
        trace = _redistribution_trace(
            tensor, src_format, src_machine, dst_format, dst_machine,
            avoid_src_nodes,
        )
    METRICS.inc("transfer.plans")
    METRICS.inc(
        "transfer.planned_copies",
        sum(len(s.copies) for s in trace.steps),
    )
    return trace


def _redistribution_trace(
    tensor: TensorVar,
    src_format: Format,
    src_machine: Machine,
    dst_format: Format,
    dst_machine: Machine,
    avoid_src_nodes: Optional[Iterable[int]] = None,
) -> Trace:
    avoid = frozenset(
        int(n) for n in (avoid_src_nodes or ())
    )
    if src_machine.cluster is not dst_machine.cluster:
        raise ValueError(
            "redistribution endpoints must share one physical cluster"
        )
    src_format.check(tensor.ndim, src_machine)
    dst_format.check(tensor.ndim, dst_machine)
    trace = Trace()
    step = trace.new_step(f"redistribute {tensor.name}")

    # Destination home pieces, one per machine point that owns data —
    # derived for every point at once (the per-point `owned_rect` walk
    # dominated large-machine handoff planning).
    ndim = tensor.ndim
    all_coords = np.stack(
        np.unravel_index(
            np.arange(dst_machine.size), tuple(dst_machine.shape)
        ),
        axis=1,
    ).astype(np.int64)
    b_lo, b_hi, ok = dst_format.owned_rect_batch(
        dst_machine, all_coords, tensor.shape
    )
    live = ok.copy()
    for d in range(ndim):
        live &= b_hi[d] > b_lo[d]
    sel = np.flatnonzero(live)
    if sel.size == 0:
        return trace
    k = sel.size
    dst_coords = [tuple(int(c) for c in all_coords[i]) for i in sel]
    dst_procs = [dst_machine.proc_at(c) for c in dst_coords]
    los = b_lo[:, sel] if ndim else np.zeros((0, k), dtype=np.int64)
    his = b_hi[:, sel] if ndim else np.zeros((0, k), dtype=np.int64)

    # Source owner pieces, batched: one row per (destination, piece) in
    # destination order — a single row holding the whole rectangle when
    # one home piece covers it. Replica dims (-1) concretize to the
    # destination's canonical source-machine coordinate.
    req, pattern, p_lo, p_hi = src_format.owner_pieces_batch(
        src_machine, los, his, tensor.shape
    )
    canon = np.array(
        [_canonical_coords(src_machine, p.proc_id) for p in dst_procs],
        dtype=np.int64,
    ).T
    src_coords = np.where(pattern >= 0, pattern, canon[:, req])

    src_mem_kind = src_format.memory
    dst_mem_kind = dst_format.memory
    itemsize = tensor.itemsize
    for r in range(req.size):
        j = int(req[r])
        dst_proc = dst_procs[j]
        dst_mem = instance_memory(dst_machine, dst_proc, dst_mem_kind)
        coords = tuple(int(c) for c in src_coords[:, r])
        if avoid:
            rep = tuple(int(d) for d in np.flatnonzero(pattern[:, r] < 0))
            coords = _redirect_coords(src_machine, coords, rep, avoid)
        src_proc = src_machine.proc_at(coords)
        src_mem = instance_memory(src_machine, src_proc, src_mem_kind)
        if src_proc.proc_id == dst_proc.proc_id and src_mem is dst_mem:
            continue  # already resident: nothing to move
        piece = Rect(
            tuple(
                Interval(int(p_lo[d, r]), int(p_hi[d, r]))
                for d in range(ndim)
            )
        )
        step.copies.append(Copy(
            tensor=tensor.name,
            rect=piece,
            nbytes=piece.volume * itemsize,
            src_proc=src_proc,
            dst_proc=dst_proc,
            src_mem=src_mem,
            dst_mem=dst_mem,
            src_coords=coords,
            dst_coords=dst_coords[j],
        ))
    return trace
