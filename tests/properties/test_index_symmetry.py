"""Index symmetries are exact: a class simulates like its representative.

The oracle simulates one member per index-symmetry class and hands
the others its outcome (``Oracle._evaluate_pending``). That is sound
only if every statically surviving member, simulated on its own, gives
the field-equal :class:`EvalOutcome` its representative gives. This
checks it directly with ``evaluate_one`` on the named workloads and
both TTMc stages on three 4-processor clusters, and on 100 seeded
einsums whose index extents are all equal (so many of them have
symmetries) on the ``(2,2)`` and ``(4,)`` grids of one of them.
"""

import copy
from dataclasses import replace

import pytest
from test_autoschedule_properties import VARS, seeded_einsum

from repro.ir.expr import index_vars
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.cluster import Cluster
from repro.sim.params import LASSEN
from repro.tuner.oracle import Oracle, evaluate_one
from repro.tuner.space import (
    enumerate_space,
    index_symmetries,
    symmetry_representative,
)
from repro.tuner.workloads import lean_cluster, sized, ttmc

CLUSTERS = {
    "cpu": Cluster.cpu_cluster(2),
    "gpu": Cluster.gpu_cluster(1),
    "lean": lean_cluster(4),
}
NAMED = {
    **{w: sized(w, 64) for w in ("ttv", "ttm", "mttkrp", "matmul")},
    "matmul-rect": sized("matmul-rect", 1024),
    **{f"ttmc{s}": stage for s, stage in enumerate(ttmc(32))},
}
EQUAL_EXTENTS = {v: 4 for v in VARS}


def _shared_pairs(assignment, cluster):
    """(member, representative) for every statically surviving
    candidate that is not its own representative."""
    symmetries = index_symmetries(assignment)
    oracle = Oracle(cluster)
    pairs = []
    for decision in enumerate_space(assignment, cluster.num_processors):
        rep = symmetry_representative(decision, symmetries)
        if rep != decision and oracle.prune_reason(
            assignment, decision
        ) is None:
            pairs.append((decision, rep))
    return pairs, oracle


def _assert_equivariant(assignment, cluster):
    pairs, oracle = _shared_pairs(assignment, cluster)
    work = copy.deepcopy(assignment)

    def outcome(decision):
        return evaluate_one(
            work, cluster, decision, LASSEN, oracle.memory,
            oracle.machine(decision.grid),
        )

    reps = {}
    for member, rep in pairs:
        if rep not in reps:
            reps[rep] = outcome(rep)
        assert replace(outcome(member), decision=rep) == reps[rep], (
            member.encode(), rep.encode()
        )
    return len(pairs)


def test_symmetries_of_the_named_workloads():
    for name in ("matmul", "matmul-rect", "mttkrp"):
        assert index_symmetries(NAMED[name]) == [], name
    for name in ("ttv", "ttm"):
        (pi,) = index_symmetries(NAMED[name])
        assert {v: w for v, w in pi.items() if v != w} == {
            "i": "j", "j": "i"
        }, name


def test_reduction_variables_are_never_permuted():
    """``k``↔``l`` fixes every variable set here, but a tiled ``T0``
    partitions ``j`` before ``k`` and ``l`` before ``j`` (first
    appearance), so ``dist=i,l`` and ``dist=i,k`` tile modes of
    different extents."""
    T0, T1 = TensorVar("T0", (3, 4, 3)), TensorVar("T1", (4, 3, 3))
    out = TensorVar("OUT", ())
    i, j, k, l = index_vars("i j k l")
    rhs = T0[l, j, k] * T1[i, k, l] + T0[l, j, k]
    assert index_symmetries(Assignment(out[()], rhs)) == []


@pytest.mark.parametrize("cluster", CLUSTERS.values(), ids=CLUSTERS)
def test_members_simulate_like_their_representative(cluster):
    shared = {
        name: _assert_equivariant(assignment, cluster)
        for name, assignment in NAMED.items()
    }
    assert shared["ttv"] and shared["ttm"] and shared["ttmc0"]


def test_seeded_einsums_simulate_like_their_representative():
    """On the ``(2,2)`` and ``(4,)`` grids of the CPU cluster."""
    shared = sum(
        _assert_equivariant(
            seeded_einsum(seed, EQUAL_EXTENTS), CLUSTERS["cpu"]
        )
        for seed in range(100)
    )
    assert shared
