"""The reference step price: the original ``CostModel.comm_time`` body.

``CostModel.comm_time`` prices a step in a few array passes, with fast
paths for uniform residency, absent categories and one-copy-per-group
steps. This module keeps the straightforward formulation it replaced,
one ``np.add.at`` per category, as the oracle those fast paths must
match with ``==`` (``tests/properties/test_costmodel_properties.py``
and ``tests/sim/pricing_parity.py``). It is not a second path in
``src/``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.runtime.trace import CopyColumns


def reference_comm_time(
    model,
    copies,
    columns: Optional[CopyColumns] = None,
) -> float:
    """Communication time of one step's copy batch under ``model``'s
    cluster and parameters, priced as the original cost model did."""
    if isinstance(copies, CopyColumns):
        cols = copies
    elif columns is not None:
        cols = columns
    else:
        cols = CopyColumns.from_copies(copies)
    if cols.n == 0:
        return 0.0
    params = model.params
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
    node_out = np.zeros(model.cluster.num_nodes)
    node_in = np.zeros(model.cluster.num_nodes)
    proc_out = np.zeros(model.cluster.num_processors)
    proc_in = np.zeros(model.cluster.num_processors)

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
