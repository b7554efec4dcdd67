"""Property: the carried conjugate replay is exact.

Generated Cannon and SUMMA points on grids narrower than their tile
count (so Cannon's rotations leave a seam), on CPU and GPU clusters
with one processor per grid point or two grid points per processor,
with divisible, ragged and prime matrix sizes. For each, the default
executor (which carries class counts, owners, holders, fetch positions,
winners and emission flags from phase to phase) and ``CarryOff`` (which
re-derives all of them) must give byte-identical step columns, class
representatives, memory high-water marks and priced reports.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.matmul import cannon, summa
from repro.machine.cluster import Cluster
from repro.machine.grid import Grid
from repro.machine.machine import Machine

from carry_off import assert_carry_exact

#: Grids wider along x than along y: Cannon divides k into ``x`` tiles,
#: more than the ``y`` columns its rotation wraps around.
GRIDS = ((4, 2), (6, 2), (6, 4), (8, 4))


def _size(grid, kind):
    base = 8 * grid[0] * grid[1]
    if kind == "divisible":
        return base
    if kind == "ragged":
        return base + 6
    n = base + 1
    while any(n % p == 0 for p in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


@given(
    builder=st.sampled_from((cannon, summa)),
    grid=st.sampled_from(GRIDS),
    gpu=st.booleans(),
    shared=st.booleans(),
    kind=st.sampled_from(("divisible", "ragged", "prime")),
)
@settings(
    deadline=None,
    max_examples=30,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_carry_equals_rederivation(builder, grid, gpu, shared, kind):
    procs = grid[0] * grid[1] // (2 if shared else 1)
    cluster = (
        Cluster.gpu_cluster(max(1, procs // 4)) if gpu
        else Cluster.cpu_cluster(max(1, procs // 2))
    )
    kernel = builder(Machine(cluster, Grid(*grid)), _size(grid, kind))
    on = assert_carry_exact(kernel)
    assert on.phase_replays > 0
