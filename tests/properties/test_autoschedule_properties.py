"""Generality property: random einsums compile and run correctly.

The paper claims DISTAL creates "implementations of any dense tensor
algebra expression". Combined with the auto-scheduler, that becomes a
testable property: generate random tensor index notation statements,
schedule them automatically, execute them distributed, and compare to
the numpy oracle.

The same generator, driven by a seeded ``random.Random``, also feeds a
golden pin: the heuristic's plan text and formats, hashed per case,
over a workload x machine matrix, seeded einsums and hierarchical
machines (``autoschedule_golden.json``).
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Assignment,
    Grid,
    Kernel,
    Machine,
    TensorVar,
    index_vars,
)
from repro.ir.expr import Access, Expr
from repro.machine.cluster import Cluster
from repro.tuner import workloads

VARS = index_vars("i j k l")
EXTENTS = {v: e for v, e in zip(VARS, (5, 6, 4, 3))}
GOLDEN = Path(__file__).with_name("autoschedule_golden.json")


def build_einsum(integer, permutation, boolean, extents=EXTENTS):
    """A random assignment: product(s) of random accesses.

    ``integer(lo, hi)``, ``permutation(seq)`` and ``boolean()`` make
    the random choices, in this order; ``extents`` maps each of
    ``VARS`` to its extent.
    """
    n_out = integer(0, 2)
    out_vars = list(permutation(VARS))[:n_out]
    n_inputs = integer(1, 3)
    accesses = []
    for idx in range(n_inputs):
        n_dims = integer(1, 3)
        dims = list(permutation(VARS))[:n_dims]
        shape = tuple(extents[v] for v in dims)
        tensor = TensorVar(f"T{idx}", shape)
        accesses.append(Access(tensor, tuple(dims)))
    rhs: Expr = accesses[0]
    for access in accesses[1:]:
        rhs = rhs * access
    # Optionally a second additive term reusing the first access.
    if boolean() and len(accesses) >= 2:
        rhs = rhs + accesses[0]
    out_shape = tuple(extents[v] for v in out_vars)
    out = TensorVar("OUT", out_shape)
    return Assignment(Access(out, tuple(out_vars)), rhs)


@st.composite
def random_einsum(draw):
    return build_einsum(
        lambda lo, hi: draw(st.integers(lo, hi)),
        lambda seq: draw(st.permutations(seq)),
        lambda: draw(st.booleans()),
    )


def seeded_einsum(seed, extents=EXTENTS):
    rng = random.Random(seed)
    return build_einsum(
        rng.randint,
        lambda seq: rng.sample(list(seq), len(seq)),
        lambda: rng.random() < 0.5,
        extents,
    )


class TestRandomEinsums:
    @given(random_einsum(), st.sampled_from([(2, 2), (4,), (2, 2, 2)]))
    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_auto_scheduled_execution_matches_oracle(self, stmt, grid):
        machine = Machine.flat(*grid)
        kern = Kernel.autoschedule(stmt, machine)
        rng = np.random.default_rng(0)
        inputs = {
            t.name: rng.random(t.shape)
            for t in stmt.tensors()
            if t.name != "OUT"
        }
        kern.execute(inputs, verify=True)


# ----------------------------------------------------------------------
# Golden pin.
# ----------------------------------------------------------------------


def _elementwise(n):
    A, B, C = (TensorVar(name, (n, n)) for name in "ABC")
    i, j = index_vars("i j")
    return Assignment(A[i, j], B[i, j] + C[i, j])


def _scalar_output(n):
    a, B = TensorVar("a", ()), TensorVar("B", (n, n))
    i, j = index_vars("i j")
    return Assignment(a[()], B[i, j] * B[i, j])


def _inner_product(n):
    a = TensorVar("a", ())
    b, c = TensorVar("b", (n,)), TensorVar("c", (n,))
    (i,) = index_vars("i")
    return Assignment(a[()], b[i] * c[i])


WORKLOADS = {
    "matmul": lambda: workloads.matmul(16),
    "matmul-rect": lambda: workloads.matmul_rect(16, 4, 8),
    "ttv": lambda: workloads.ttv(8),
    "ttm": lambda: workloads.ttm(8, 4),
    "mttkrp": lambda: workloads.mttkrp(8, 4),
    "scalar-output": lambda: _scalar_output(8),
    "inner-product": lambda: _inner_product(8),
    "elementwise": lambda: _elementwise(8),
}
CPU_GRIDS = [(2, 2), (4, 2), (2, 4), (8,), (2, 2, 2), (4, 1), (1, 4)]
GPU_GRIDS = [(2, 4), (4, 2), (2, 2, 2)]
HIERARCHICAL = {
    "cpu4:2x2/2": lambda: Machine(Cluster.cpu_cluster(4), Grid(2, 2), Grid(2)),
    "cpu4:4/2": lambda: Machine(Cluster.cpu_cluster(4), Grid(4), Grid(2)),
    "gpu4:2x2/2x2": lambda: Machine(
        Cluster.gpu_cluster(4), Grid(2, 2), Grid(2, 2)
    ),
    "gpu2:2/4": lambda: Machine(Cluster.gpu_cluster(2), Grid(2), Grid(4)),
}
EINSUM_GRIDS = [(2, 2), (4,), (2, 2, 2)]
EINSUM_SEEDS = range(400)


def golden_cases():
    """``(case id, assignment factory, machine factory)`` per case."""
    for name, stmt in WORKLOADS.items():
        for grid in CPU_GRIDS:
            yield (f"{name}@cpu{grid}", stmt,
                   lambda grid=grid: Machine.flat(*grid))
        for grid in GPU_GRIDS:
            yield (f"{name}@gpu{grid}", stmt,
                   lambda grid=grid: Machine(
                       Cluster.gpu_cluster(2), Grid(*grid)))
    for name in ("matmul", "ttv", "ttm", "mttkrp"):
        for label, machine in HIERARCHICAL.items():
            yield f"{name}@{label}", WORKLOADS[name], machine
    for seed in EINSUM_SEEDS:
        for grid in EINSUM_GRIDS:
            yield (f"einsum{seed}@cpu{grid}",
                   lambda seed=seed: seeded_einsum(seed),
                   lambda grid=grid: Machine.flat(*grid))


def heuristic_digest(stmt, machine):
    """SHA-256 of the heuristic's plan text and each tensor's format
    notation and memory kind."""
    kern = Kernel.autoschedule(stmt, machine)
    text = [kern.plan.pretty()]
    for tensor in stmt.tensors():
        fmt = tensor.format
        text.append(f"{tensor.name}: {fmt.notation()} {fmt.memory.name}")
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


class TestGoldenPin:
    def test_heuristic_plans_and_formats_match_the_pin(self):
        pinned = json.loads(GOLDEN.read_text())
        got = {
            case: heuristic_digest(stmt(), machine())
            for case, stmt, machine in golden_cases()
        }
        assert len(got) == 1296
        assert sorted(got) == sorted(pinned)
        moved = [case for case in got if got[case] != pinned[case]]
        assert not moved, moved
