"""Logical machine: a (possibly hierarchical) grid view of a cluster.

A :class:`Machine` arranges a cluster's processors into one or more nested
grids. A flat machine is a single grid whose points map row-major onto
processors. A hierarchical machine (Section 3.1) stacks grids: the paper's
Lassen configuration arranges nodes into a 2-D grid and then each node's
four GPUs into an inner grid, so a machine coordinate is the concatenation
of one coordinate per level.

The machine also embodies the paper's *mapper* role (Section 6.1): grid
points are deterministically placed on processors, with over-decomposition
(more grid points than processors) handled round-robin — the mechanism
behind Johnson's algorithm's degradation on non-cube processor counts
(Section 7.1.2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.machine.cluster import Cluster, Processor
from repro.machine.grid import Grid


class Machine:
    """A grid (or hierarchy of grids) of abstract processors.

    Parameters
    ----------
    cluster:
        The physical cluster to map onto.
    grids:
        One or more :class:`Grid` levels, outermost first. A two-level
        machine ``Machine(cluster, Grid(4, 4), Grid(2, 2))`` views the
        cluster as a 4x4 grid of nodes, each a 2x2 grid of processors.
    """

    def __init__(self, cluster: Cluster, *grids: Grid):
        if not grids:
            raise ValueError("Machine needs at least one Grid level")
        self.cluster = cluster
        self.levels: Tuple[Grid, ...] = tuple(grids)
        # Grid-point placement is deterministic and the machine immutable,
        # so the coordinate -> processor map is memoized (the executor
        # calls proc_at once per context and once per emitted copy).
        self._proc_cache: dict = {}
        if len(self.levels) > 1:
            inner_size = 1
            for grid in self.levels[1:]:
                inner_size *= grid.size
            if inner_size > cluster.procs_per_node:
                raise ValueError(
                    f"inner grid levels need {inner_size} processors per node "
                    f"but nodes have {cluster.procs_per_node}"
                )

    @staticmethod
    def flat(*dims: int) -> "Machine":
        """An abstract test machine: one CPU processor per grid point."""
        grid = Grid(*dims)
        cluster = Cluster.cpu_cluster(num_nodes=grid.size, sockets_per_node=1)
        return Machine(cluster, grid)

    @property
    def dim(self) -> int:
        """Total number of grid dimensions across all levels."""
        return sum(grid.dim for grid in self.levels)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Concatenated shape across all levels."""
        shape: Tuple[int, ...] = ()
        for grid in self.levels:
            shape += grid.shape
        return shape

    @property
    def size(self) -> int:
        """Total number of grid points."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    def level_coords(
        self, coords: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Split a concatenated coordinate into per-level coordinates."""
        if len(coords) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates for machine {self.shape}, "
                f"got {tuple(coords)}"
            )
        out = []
        pos = 0
        for grid in self.levels:
            out.append(tuple(coords[pos : pos + grid.dim]))
            pos += grid.dim
        return out

    def proc_at(self, coords: Sequence[int]) -> Processor:
        """The processor owning a machine grid point.

        Flat machines place grid points row-major over all processors;
        hierarchical machines place the outer level over nodes and inner
        levels within a node. Over-decomposition wraps round-robin.
        """
        key = tuple(coords)
        cached = self._proc_cache.get(key)
        if cached is not None:
            return cached
        per_level = self.level_coords(coords)
        if len(self.levels) == 1:
            linear = self.levels[0].linearize(per_level[0])
            proc = self.cluster.processors[
                linear % self.cluster.num_processors
            ]
        else:
            cluster = self.cluster
            node_linear = self.levels[0].linearize(per_level[0])
            local_linear = 0
            for grid, lc in zip(self.levels[1:], per_level[1:]):
                local_linear = local_linear * grid.size + grid.linearize(lc)
            proc = cluster.processors[
                node_linear % cluster.num_nodes * cluster.procs_per_node
                + local_linear % cluster.procs_per_node
            ]
        self._proc_cache[key] = proc
        return proc

    def torus_distance(
        self, a: Sequence[int], b: Sequence[int]
    ) -> int:
        """Wraparound Manhattan distance between two machine grid points."""
        dist = 0
        for x, y, d in zip(a, b, self.shape):
            delta = abs(x - y)
            dist += min(delta, d - delta)
        return dist

    def points(self):
        """All machine coordinates (concatenated across levels)."""
        from itertools import product

        return product(*(range(d) for d in self.shape))

    def __repr__(self) -> str:
        grids = " x ".join(repr(g) for g in self.levels)
        return f"Machine({grids} on {self.cluster!r})"
