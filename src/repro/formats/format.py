"""Tensor formats: mode storage plus a distribution chain and memory kind.

This work considers dense computations only (as the paper does), so every
mode is ``Dense``; the interesting half of the format is the distribution —
one :class:`~repro.formats.distribution.Distribution` per machine hierarchy
level — and the memory kind the tensor should reside in (Figure 2 pins
matrices into ``Memory::GPU_MEM``).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.machine.cluster import MemoryKind
from repro.machine.machine import Machine
from repro.util.errors import DistributionError
from repro.util.geometry import Rect
from repro.formats.distribution import (
    Broadcast,
    DimName,
    Distribution,
    Fixed,
)


class Mode(enum.Enum):
    """Per-dimension storage format. Dense is the only kind in this paper;
    the enum exists because the format language is designed to extend to
    sparse modes (the paper's future work, SpDISTAL)."""

    DENSE = "dense"


class Format:
    """A tensor format: per-mode storage, distribution chain, memory kind.

    Parameters
    ----------
    distributions:
        One distribution per machine grid level (hierarchical placement,
        Section 3.2 "Hierarchy"), a single distribution, or a notation
        string such as ``"xy -> xy0"``.
    memory:
        Which memory kind home instances live in. Defaults to system
        memory; GPU schedules typically pin tensors in ``GPU_FB``.
    """

    def __init__(
        self,
        distributions: Union[str, Distribution, Sequence[Union[str, Distribution]], None] = None,
        memory: MemoryKind = MemoryKind.SYSTEM_MEM,
        modes: Optional[Sequence[Mode]] = None,
    ):
        if distributions is None:
            levels: List[Distribution] = []
        elif isinstance(distributions, (str, Distribution)):
            levels = [_as_distribution(distributions)]
        else:
            levels = [_as_distribution(d) for d in distributions]
        self.distributions: Tuple[Distribution, ...] = tuple(levels)
        self.memory = memory
        self.modes = tuple(modes) if modes is not None else None
        self._key: Optional[Tuple[str, ...]] = None

    @property
    def is_distributed(self) -> bool:
        return bool(self.distributions)

    def key(self) -> Tuple[str, ...]:
        """Structural identity: each level's notation, then the memory
        kind. Formats are not mutated after construction, so it is
        computed once; equal keys place a tensor identically on any
        machine."""
        if self._key is None:
            self._key = tuple(
                d.notation() for d in self.distributions
            ) + (self.memory.value,)
        return self._key

    def check(self, tensor_ndim: int, machine: Machine):
        """Validate the distribution chain against a tensor and machine."""
        if not self.distributions:
            return
        if len(self.distributions) > len(machine.levels):
            raise DistributionError(
                f"format has {len(self.distributions)} distribution levels "
                f"but the machine has {len(machine.levels)} grid levels"
            )
        for dist, grid in zip(self.distributions, machine.levels):
            if dist.tensor_ndim != tensor_ndim:
                raise DistributionError(
                    f"distribution {dist.notation()!r} names "
                    f"{dist.tensor_ndim} tensor dims; tensor has {tensor_ndim}"
                )
            dist.check_machine(grid.shape)

    def owned_rect(
        self,
        machine: Machine,
        machine_coords: Sequence[int],
        tensor_shape: Sequence[int],
    ) -> Optional[Rect]:
        """Home sub-rectangle at a full machine coordinate, or ``None``.

        Hierarchical chains compose: level 0 carves the tensor by the node
        grid, level 1 carves each node piece by the local grid, and so on.
        Machine levels beyond the chain replicate (every local processor of
        a node views the node's piece).
        """
        rect = Rect.full(tensor_shape)
        if not self.distributions:
            # Undistributed tensors are homed at the machine origin.
            if any(c != 0 for c in machine_coords):
                return None
            return rect
        per_level = machine.level_coords(machine_coords)
        for dist, grid, coords in zip(
            self.distributions, machine.levels, per_level
        ):
            nxt = dist.owned_rect(coords, rect, grid.shape)
            if nxt is None:
                return None
            rect = nxt
        return rect

    def owner_pattern(
        self,
        machine: Machine,
        needed: Rect,
        tensor_shape: Sequence[int],
    ) -> Optional[List[Optional[int]]]:
        """Machine-coordinate pattern of a home piece covering ``needed``.

        Concrete coordinates for partitioned/fixed machine dimensions,
        ``None`` where any coordinate holds a replica (broadcast dims and
        levels beyond the distribution chain). Returns ``None`` when no
        single home piece covers the request (use :meth:`owner_pieces`).
        """
        if not self.distributions:
            return [0] * machine.dim
        pattern: List[Optional[int]] = []
        rect = Rect.full(tensor_shape)
        for dist, grid in zip(self.distributions, machine.levels):
            pats = dist.owners_covering(needed, rect, grid.shape)
            if not pats:
                return None
            pat = pats[0]
            pattern.extend(pat)
            concrete = [p if p is not None else 0 for p in pat]
            rect = dist.owned_rect(concrete, rect, grid.shape)
            if rect is None:
                return None
        pattern.extend([None] * (machine.dim - len(pattern)))
        return pattern

    def owner_pattern_batch(
        self,
        machine: Machine,
        los: Optional[np.ndarray],
        his: Optional[np.ndarray],
        tensor_shape: Sequence[int],
        count: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`owner_pattern` over request endpoint columns.

        ``los``/``his`` are ``(ndim, k)`` endpoint matrices of ``k``
        non-empty request rectangles (``None`` with ``count=k`` for
        0-dim tensors). Returns ``(pattern, valid)``:

        * ``pattern`` — ``(machine.dim, k)`` int64 matrix; concrete
          coordinates for partitioned/fixed machine dimensions, ``-1``
          where any coordinate holds a replica;
        * ``valid[j]`` — True when a single home piece covers request
          ``j`` (exactly when the scalar method returns a pattern).

        The arithmetic mirrors ``Distribution.owners_covering`` /
        ``owned_rect`` element-wise, including the hierarchical level
        composition; requests a block index would throw on (negative
        offsets) are reported invalid instead, so callers fall back to
        the scalar path member by member.
        """
        k = count if count is not None else los.shape[1]
        pattern = np.full((machine.dim, k), -1, dtype=np.int64)
        valid = np.ones(k, dtype=bool)
        if not self.distributions:
            pattern[:, :] = 0
            return pattern, valid
        ndim = len(tensor_shape)
        cur_lo = np.zeros((ndim, k), dtype=np.int64)
        cur_hi = np.empty((ndim, k), dtype=np.int64)
        for d in range(ndim):
            cur_hi[d, :] = tensor_shape[d]
        offset = 0
        for dist, grid in zip(self.distributions, machine.levels):
            for j, mdim in enumerate(dist.machine_dims):
                if isinstance(mdim, Fixed):
                    pattern[offset + j, :] = mdim.value
                    continue
                if isinstance(mdim, Broadcast):
                    continue
                tdim = dist.partitioned[j]
                pieces = grid.shape[j]
                base_lo = cur_lo[tdim]
                size = cur_hi[tdim] - base_lo
                # block_index: ceil tiles, clamped to the last piece;
                # zero-extent dims map to block 0 (whose piece is empty
                # and therefore covers nothing non-empty).
                tile = -(-size // pieces)
                block = np.where(
                    size > 0,
                    (los[tdim] - base_lo) // np.maximum(tile, 1),
                    0,
                )
                in_range = block >= 0
                block = np.minimum(np.maximum(block, 0), pieces - 1)
                # split_evenly(size, pieces, block).shift(base_lo)
                piece_lo = base_lo + np.minimum(block * tile, size)
                piece_hi = np.minimum(piece_lo + tile, base_lo + size)
                covers = (piece_lo <= los[tdim]) & (his[tdim] <= piece_hi)
                valid &= in_range & covers
                pattern[offset + j, :] = block
                cur_lo[tdim] = piece_lo
                cur_hi[tdim] = piece_hi
            offset += grid.dim
        return pattern, valid

    def owned_rect_batch(
        self,
        machine: Machine,
        coords: np.ndarray,
        tensor_shape: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`owned_rect` over machine-coordinate rows.

        ``coords`` is a ``(k, machine.dim)`` int64 matrix of machine
        points. Returns ``(lo, hi, ok)``:

        * ``lo``/``hi`` — ``(ndim, k)`` endpoint columns of each point's
          home sub-rectangle;
        * ``ok[j]`` — True when the point holds a piece at all (exactly
          when the scalar method returns a rectangle; the rectangle may
          still be empty for trailing blocks of non-divisible extents —
          callers test ``hi > lo`` where emptiness matters).

        The arithmetic mirrors ``Distribution.owned_rect`` element-wise
        (``split_evenly`` blocked partitioning), composing hierarchical
        levels exactly as the scalar chain does.
        """
        k = coords.shape[0]
        ndim = len(tensor_shape)
        lo = np.zeros((ndim, k), dtype=np.int64)
        hi = np.empty((ndim, k), dtype=np.int64)
        for d in range(ndim):
            hi[d, :] = tensor_shape[d]
        if not self.distributions:
            # Undistributed tensors are homed at the machine origin.
            ok = ~np.any(coords != 0, axis=1)
            return lo, hi, ok
        ok = np.ones(k, dtype=bool)
        offset = 0
        for dist, grid in zip(self.distributions, machine.levels):
            for j, mdim in enumerate(dist.machine_dims):
                c = coords[:, offset + j]
                if isinstance(mdim, Fixed):
                    ok &= c == mdim.value
                elif isinstance(mdim, DimName):
                    tdim = dist.partitioned[j]
                    base_lo = lo[tdim]
                    size = hi[tdim] - base_lo
                    pieces = grid.shape[j]
                    # split_evenly(size, pieces, c).shift(base_lo)
                    tile = -(-size // pieces)
                    piece_lo = base_lo + np.minimum(c * tile, size)
                    piece_hi = np.minimum(piece_lo + tile, base_lo + size)
                    lo[tdim] = piece_lo
                    hi[tdim] = piece_hi
            offset += grid.dim
        return lo, hi, ok

    def owner_pieces(
        self,
        machine: Machine,
        needed: Rect,
        tensor_shape: Sequence[int],
    ) -> List[Tuple[Tuple[Optional[int], ...], Rect]]:
        """Decompose a request spanning several home pieces.

        Works level by level for hierarchical chains: the request is
        split by the node-level partitioning, then each piece is split
        again by the within-node partitioning, and so on.
        """
        if not self.distributions:
            return [(tuple([0] * machine.dim), needed)]
        # (pattern prefix, request piece, rect owned so far)
        state = [((), needed, Rect.full(tensor_shape))]
        used_dims = 0
        for dist, grid in zip(self.distributions, machine.levels):
            used_dims += grid.dim
            next_state = []
            for prefix, request, rect in state:
                for pattern, piece in dist.cover_pieces(
                    request, rect, grid.shape
                ):
                    concrete = [p if p is not None else 0 for p in pattern]
                    sub_rect = dist.owned_rect(concrete, rect, grid.shape)
                    if sub_rect is None:
                        continue
                    next_state.append(
                        (prefix + tuple(pattern), piece, sub_rect)
                    )
            state = next_state
        pad = machine.dim - used_dims
        return [
            (tuple(list(prefix) + [None] * pad), piece)
            for prefix, piece, _rect in state
        ]

    def owner_pieces_batch(
        self,
        machine: Machine,
        los: np.ndarray,
        his: np.ndarray,
        tensor_shape: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`owner_pieces` over request endpoint columns.

        ``los``/``his`` are ``(ndim, k)`` endpoint matrices of ``k``
        request rectangles. Returns ``(req, pattern, piece_lo,
        piece_hi)``, one column per piece:

        * ``req`` — the request each piece belongs to; the pieces of
          request ``j`` are contiguous and in :meth:`owner_pieces`
          order (level by level, ``cover_pieces`` product order);
        * ``pattern`` — ``(machine.dim, m)`` owner patterns, ``-1``
          where the scalar pattern holds ``None``;
        * ``piece_lo``/``piece_hi`` — ``(ndim, m)`` piece endpoints.

        Each level expands every row by the blocks its request overlaps,
        one partitioned machine dimension at a time, so the last machine
        dimension varies fastest exactly as ``itertools.product`` does.
        """
        k = los.shape[1]
        if not self.distributions:
            return (
                np.arange(k, dtype=np.int64),
                np.zeros((machine.dim, k), dtype=np.int64),
                los.astype(np.int64),
                his.astype(np.int64),
            )
        ndim = len(tensor_shape)
        req = np.arange(k, dtype=np.int64)
        pattern = np.full((machine.dim, k), -1, dtype=np.int64)
        p_lo = los.astype(np.int64)
        p_hi = his.astype(np.int64)
        own_lo = np.zeros((ndim, k), dtype=np.int64)
        own_hi = np.repeat(
            np.asarray(tensor_shape, dtype=np.int64).reshape(ndim, 1), k, 1
        )
        offset = 0
        for dist, grid in zip(self.distributions, machine.levels):
            for j, mdim in enumerate(dist.machine_dims):
                if isinstance(mdim, Fixed):
                    pattern[offset + j, :] = mdim.value
                    continue
                if isinstance(mdim, Broadcast):
                    continue
                tdim = dist.partitioned[j]
                base = own_lo[tdim]
                end = own_hi[tdim]
                # split_evenly tiles; the overlapped blocks are the ones
                # holding the clipped request's first and last element.
                tile = np.maximum(-(-(end - base) // grid.shape[j]), 1)
                clip_lo = np.maximum(p_lo[tdim], base)
                clip_hi = np.minimum(p_hi[tdim], end)
                first = (clip_lo - base) // tile
                last = (clip_hi - 1 - base) // tile
                n_blocks = np.where(clip_hi > clip_lo, last - first + 1, 0)
                rows = np.repeat(np.arange(req.size), n_blocks)
                starts = np.cumsum(n_blocks) - n_blocks
                block = first[rows] + (
                    np.arange(rows.size) - np.repeat(starts, n_blocks)
                )
                req = req[rows]
                pattern = pattern[:, rows]
                p_lo = p_lo[:, rows]
                p_hi = p_hi[:, rows]
                own_lo = own_lo[:, rows]
                own_hi = own_hi[:, rows]
                b_lo = own_lo[tdim] + block * tile[rows]
                b_hi = np.minimum(b_lo + tile[rows], own_hi[tdim])
                pattern[offset + j] = block
                p_lo[tdim] = np.maximum(p_lo[tdim], b_lo)
                p_hi[tdim] = np.minimum(p_hi[tdim], b_hi)
                own_lo[tdim] = b_lo
                own_hi[tdim] = b_hi
            offset += grid.dim
        # Dimensions no level partitions keep the request's (possibly
        # empty) interval; the scalar decomposition drops empty pieces.
        keep = np.all(p_hi > p_lo, axis=0)
        return req[keep], pattern[:, keep], p_lo[:, keep], p_hi[:, keep]

    def notation(self) -> str:
        """Human-readable distribution chain."""
        if not self.distributions:
            return "(undistributed)"
        return "; ".join(d.notation() for d in self.distributions)

    def __repr__(self) -> str:
        return f"Format({self.notation()!r}, memory={self.memory.value})"


def _as_distribution(value: Union[str, Distribution]) -> Distribution:
    if isinstance(value, Distribution):
        return value
    return Distribution.parse(value)
