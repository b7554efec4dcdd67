"""Tensor distribution notation (paper Section 3.2, Figures 4 and 5).

A statement ``T X -> Y M`` maps every coordinate of tensor ``T`` to a
non-empty set of processor coordinates of machine ``M``. It is the
composition of two functions:

* ``P`` (the *coloring*): coordinates of ``T`` are grouped into equivalence
  classes, one per point of the partitioned machine dimensions. We use the
  paper's blocked partitioning function: contiguous equal blocks.
* ``F``: each color is expanded to full machine coordinates by fixing or
  broadcasting the remaining machine dimensions.

This module implements the notation with both a structured API and the
string mini-language used throughout the paper, e.g.::

    Distribution.parse("xy -> xy", machine_dims=2)    # 2-D tiling (Fig 5c)
    Distribution.parse("xy -> x", machine_dims=1)     # row blocks (Fig 5b)
    Distribution.parse("xy -> xy0", machine_dims=3)   # fix to a face (Fig 5d)
    Distribution.parse("xy -> xy*", machine_dims=3)   # replicate (Fig 5e)
    Distribution.parse("xyz -> xy", machine_dims=2)   # 3-tensor (Fig 5f)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.util.errors import DistributionError
from repro.util.geometry import Interval, Rect, split_evenly


@dataclass(frozen=True)
class DimName:
    """A named machine dimension: partitions the same-named tensor dim."""

    name: str


@dataclass(frozen=True)
class Fixed:
    """A machine dimension fixed to one coordinate (e.g. the ``0`` in
    ``xy0``): the tensor lives only on that face of the machine."""

    value: int


@dataclass(frozen=True)
class Broadcast:
    """A machine dimension marked ``*``: the partition is replicated
    across every coordinate of the dimension."""


MachineDim = Union[DimName, Fixed, Broadcast]


class Distribution:
    """One level of tensor distribution notation.

    Parameters
    ----------
    tensor_dims:
        One single-character name per tensor dimension (the ``X`` sequence).
    machine_dims:
        One :data:`MachineDim` per machine grid dimension (the ``Y``
        sequence).
    """

    def __init__(
        self,
        tensor_dims: Sequence[str],
        machine_dims: Sequence[MachineDim],
    ):
        self.tensor_dims: Tuple[str, ...] = tuple(tensor_dims)
        self.machine_dims: Tuple[MachineDim, ...] = tuple(machine_dims)
        self._validate()
        # For each machine dim: the index of the tensor dim it partitions,
        # or None for Fixed/Broadcast dims.
        self.partitioned: List[Optional[int]] = []
        for mdim in self.machine_dims:
            if isinstance(mdim, DimName):
                self.partitioned.append(self.tensor_dims.index(mdim.name))
            else:
                self.partitioned.append(None)

    def _validate(self):
        if len(set(self.tensor_dims)) != len(self.tensor_dims):
            raise DistributionError(
                f"duplicate tensor dimension names in {self.tensor_dims}"
            )
        names = [m.name for m in self.machine_dims if isinstance(m, DimName)]
        if len(set(names)) != len(names):
            raise DistributionError(
                f"duplicate machine dimension names in {self.machine_dims}"
            )
        missing = [n for n in names if n not in self.tensor_dims]
        if missing:
            raise DistributionError(
                f"machine dimension names {missing} do not name tensor "
                f"dimensions (tensor dims are {list(self.tensor_dims)})"
            )

    @property
    def tensor_ndim(self) -> int:
        return len(self.tensor_dims)

    @property
    def machine_ndim(self) -> int:
        return len(self.machine_dims)

    @staticmethod
    def parse(notation: str, machine_dims: Optional[int] = None) -> "Distribution":
        """Parse the paper's string form, e.g. ``"xy -> xy0*"``.

        Left of ``->``: one letter per tensor dimension. Right: letters
        (partition), digits (fix), or ``*`` (broadcast). Whitespace is
        ignored. ``machine_dims``, when given, is checked against the
        right-hand side length.
        """
        if "->" not in notation:
            raise DistributionError(
                f"distribution {notation!r} must contain '->'"
            )
        lhs, rhs = notation.split("->", 1)
        tensor_names = [c for c in lhs if not c.isspace()]
        mdims: List[MachineDim] = []
        for c in rhs:
            if c.isspace():
                continue
            if c == "*":
                mdims.append(Broadcast())
            elif c.isdigit():
                mdims.append(Fixed(int(c)))
            elif c.isalpha():
                mdims.append(DimName(c))
            else:
                raise DistributionError(
                    f"unexpected character {c!r} in distribution {notation!r}"
                )
        dist = Distribution(tensor_names, mdims)
        if machine_dims is not None and dist.machine_ndim != machine_dims:
            raise DistributionError(
                f"distribution {notation!r} names {dist.machine_ndim} machine "
                f"dimensions but the machine has {machine_dims}"
            )
        return dist

    def check_machine(self, machine_shape: Sequence[int]):
        """Validate against a concrete machine level shape."""
        if len(machine_shape) != self.machine_ndim:
            raise DistributionError(
                f"distribution has {self.machine_ndim} machine dims, machine "
                f"level has {len(machine_shape)}"
            )
        for mdim, extent in zip(self.machine_dims, machine_shape):
            if isinstance(mdim, Fixed) and not 0 <= mdim.value < extent:
                raise DistributionError(
                    f"fixed coordinate {mdim.value} outside machine dim of "
                    f"extent {extent}"
                )

    # ------------------------------------------------------------------
    # Semantics: P (coloring) and F (color -> processors).
    # ------------------------------------------------------------------

    def color_of(
        self, coords: Sequence[int], tensor_shape: Sequence[int],
        machine_shape: Sequence[int],
    ) -> Tuple[int, ...]:
        """``P``: the color (point in the partitioned machine dims) of a
        tensor coordinate."""
        color = []
        for mdim_idx, _extent in zip_partitioned(self, machine_shape):
            tdim = self.partitioned[mdim_idx]
            color.append(
                block_index(
                    coords[tdim], tensor_shape[tdim], machine_shape[mdim_idx]
                )
            )
        return tuple(color)

    def processors_of_color(
        self, color: Sequence[int], machine_shape: Sequence[int]
    ) -> Iterator[Tuple[int, ...]]:
        """``F``: expand a color to full machine coordinates.

        Fixed dimensions take their target value; broadcast dimensions
        expand to every coordinate (paper's running 2x2x2 example).
        """
        choices: List[Sequence[int]] = []
        color_iter = iter(color)
        for mdim, extent in zip(self.machine_dims, machine_shape):
            if isinstance(mdim, DimName):
                choices.append([next(color_iter)])
            elif isinstance(mdim, Fixed):
                choices.append([mdim.value])
            else:
                choices.append(range(extent))
        return product(*choices)

    # ------------------------------------------------------------------
    # Owner queries used by the runtime.
    # ------------------------------------------------------------------

    def owned_rect(
        self,
        machine_coords: Sequence[int],
        tensor_rect: Rect,
        machine_shape: Sequence[int],
    ) -> Optional[Rect]:
        """The sub-rectangle of ``tensor_rect`` homed at a machine point.

        Returns ``None`` when the machine point holds no piece (it is off
        the fixed face). Tensor dimensions that are not partitioned span
        their full extent in each piece (Figures 5b, 5f).
        """
        if len(machine_coords) != self.machine_ndim:
            raise DistributionError(
                f"expected {self.machine_ndim} machine coords, got "
                f"{tuple(machine_coords)}"
            )
        intervals = list(tensor_rect.intervals)
        for mdim_idx, mdim in enumerate(self.machine_dims):
            coord = machine_coords[mdim_idx]
            if isinstance(mdim, Fixed):
                if coord != mdim.value:
                    return None
            elif isinstance(mdim, DimName):
                tdim = self.partitioned[mdim_idx]
                base = tensor_rect.intervals[tdim]
                piece = split_evenly(
                    base.size, machine_shape[mdim_idx], coord
                ).shift(base.lo)
                intervals[tdim] = piece
        return Rect(tuple(intervals))

    def owners_covering(
        self,
        needed: Rect,
        tensor_rect: Rect,
        machine_shape: Sequence[int],
    ) -> List[Tuple[Optional[int], ...]]:
        """Machine coordinate *patterns* whose home piece covers ``needed``.

        Each pattern has a concrete coordinate for partitioned and fixed
        machine dimensions and ``None`` for broadcast dimensions (any
        coordinate there holds a replica; the runtime picks the nearest).
        Returns ``[]`` if no single home piece covers the request (the
        caller must then split the request; see :meth:`cover_pieces`).
        """
        pattern: List[Optional[int]] = []
        for mdim_idx, mdim in enumerate(self.machine_dims):
            if isinstance(mdim, Fixed):
                pattern.append(mdim.value)
            elif isinstance(mdim, Broadcast):
                pattern.append(None)
            else:
                tdim = self.partitioned[mdim_idx]
                base = tensor_rect.intervals[tdim]
                need = needed.intervals[tdim]
                pieces = machine_shape[mdim_idx]
                block = block_index(need.lo - base.lo, base.size, pieces)
                piece = split_evenly(base.size, pieces, block).shift(base.lo)
                if not piece.contains(need):
                    return []
                pattern.append(block)
        return [tuple(pattern)]

    def cover_pieces(
        self,
        needed: Rect,
        tensor_rect: Rect,
        machine_shape: Sequence[int],
    ) -> List[Tuple[Tuple[Optional[int], ...], Rect]]:
        """Decompose ``needed`` into per-owner pieces.

        Used when a request spans multiple home blocks (e.g. data
        redistribution between formats). Each element is ``(pattern,
        piece)`` where ``pattern`` is as in :meth:`owners_covering`.
        """
        # Per machine dim, the list of (block index, interval piece).
        per_dim_choices: List[List[Tuple[Optional[int], Optional[Interval]]]] = []
        for mdim_idx, mdim in enumerate(self.machine_dims):
            if isinstance(mdim, Fixed):
                per_dim_choices.append([(mdim.value, None)])
            elif isinstance(mdim, Broadcast):
                per_dim_choices.append([(None, None)])
            else:
                tdim = self.partitioned[mdim_idx]
                base = tensor_rect.intervals[tdim]
                need = needed.intervals[tdim]
                pieces = machine_shape[mdim_idx]
                options: List[Tuple[Optional[int], Optional[Interval]]] = []
                for block in range(pieces):
                    piece = split_evenly(base.size, pieces, block).shift(base.lo)
                    overlap = piece.intersect(need)
                    if not overlap.is_empty:
                        options.append((block, overlap))
                per_dim_choices.append(options)
        results = []
        for combo in product(*per_dim_choices):
            pattern = tuple(block for block, _ in combo)
            intervals = list(needed.intervals)
            for mdim_idx, (block, overlap) in enumerate(combo):
                if overlap is not None:
                    tdim = self.partitioned[mdim_idx]
                    intervals[tdim] = overlap
            piece_rect = Rect(tuple(intervals))
            if not piece_rect.is_empty:
                results.append((pattern, piece_rect))
        return results

    def replication_factor(self, machine_shape: Sequence[int]) -> int:
        """How many machine points hold each piece (product of broadcast
        dimension extents). Drives replicated-memory accounting."""
        factor = 1
        for mdim, extent in zip(self.machine_dims, machine_shape):
            if isinstance(mdim, Broadcast):
                factor *= extent
        return factor

    def home_points(
        self, machine_shape: Sequence[int]
    ) -> Iterator[Tuple[int, ...]]:
        """All machine points that hold a home piece of the tensor."""
        choices: List[Sequence[int]] = []
        for mdim, extent in zip(self.machine_dims, machine_shape):
            if isinstance(mdim, Fixed):
                choices.append([mdim.value])
            else:
                choices.append(range(extent))
        return product(*choices)

    def notation(self) -> str:
        """Round-trip back to the paper's string form."""
        rhs = []
        for mdim in self.machine_dims:
            if isinstance(mdim, DimName):
                rhs.append(mdim.name)
            elif isinstance(mdim, Fixed):
                rhs.append(str(mdim.value))
            else:
                rhs.append("*")
        return f"{''.join(self.tensor_dims)} -> {''.join(rhs)}"

    def __repr__(self) -> str:
        return f"Distribution({self.notation()!r})"


def block_index(offset: int, extent: int, pieces: int) -> int:
    """Which blocked-partition piece a coordinate offset falls into."""
    from repro.util.geometry import ceil_div

    if extent == 0:
        return 0
    tile = ceil_div(extent, pieces)
    return min(offset // tile, pieces - 1)


def zip_partitioned(dist: Distribution, machine_shape: Sequence[int]):
    """Indices and extents of the machine dims that partition tensor dims."""
    for idx, (mdim, extent) in enumerate(zip(dist.machine_dims, machine_shape)):
        if isinstance(mdim, DimName):
            yield idx, extent
