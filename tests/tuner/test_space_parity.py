"""Canonical forms pinned against a reference enumeration.

``enumerate_space`` compares relabellings by their keys, builds one
decision per canonical form, reuses its per-``dist`` tileable inputs
and expands each (grid shape, ``dist``) pair once per relabelling
class. The reference below is the earlier pipeline: every pair is
expanded, ``normalize`` re-derives the tileable inputs per candidate
and ``canonicalize`` builds every relabelling through
``dataclasses.replace``. Both must produce the same space, element for
element, for every named workload at sizes 64 and 96, every processor
count of ``PROCS`` and ``max_dims`` 1-3: the small processor counts
against the reference run live, the large ones against digests
recorded from it.
"""

import hashlib
from dataclasses import replace
from itertools import combinations, permutations

import pytest

from repro.analysis.prune import _dominated_loops
from repro.ir.expr import IndexVar
from repro.sim.params import LASSEN
from repro.tuner.space import (
    LEAF_GEMM,
    LEAF_LOOPS,
    OUTPUT_FACE,
    OUTPUT_REPLICATE,
    Decision,
    canonicalize,
    enumerate_space,
    factorizations,
    normalize,
)
from repro.tuner.workloads import WORKLOADS, sized

PROCS = (1, 2, 4, 6, 8, 12, 16, 32, 64)


def _ref_canonicalize(decision):
    tiled = tuple(sorted(set(decision.tiled)))
    step_comm = tuple(sorted(set(decision.step_comm) & set(tiled)))
    checkpoint = tuple(sorted(set(decision.checkpoint)))
    seq = decision.seq
    steps_dim = decision.steps_dim
    rotate = tuple(
        sorted({d for d in decision.rotate if decision.grid[d] > 1})
    )
    if seq is None or not step_comm:
        seq, steps_dim, rotate, step_comm = None, None, (), ()
    best = None
    for perm in permutations(range(len(decision.grid))):
        grid = tuple(decision.grid[p] for p in perm)
        dist = tuple(decision.dist[p] for p in perm)
        new_pos = {old: new for new, old in enumerate(perm)}
        rot = tuple(sorted(new_pos[d] for d in rotate))
        sdim = None
        if steps_dim is not None:
            extent = decision.grid[steps_dim]
            sdim = min(i for i, g in enumerate(grid) if g == extent)
        candidate = replace(
            decision, grid=grid, dist=dist, seq=seq, steps_dim=sdim,
            rotate=rot, tiled=tiled, step_comm=step_comm,
            checkpoint=checkpoint,
        )
        if best is None or candidate.key() < best.key():
            best = candidate
    return best


def _ref_inputs(assignment):
    seen, names = [], set()
    output = assignment.lhs.tensor.name
    for access in assignment.rhs.accesses():
        if access.tensor.name == output or access.tensor.name in names:
            continue
        names.add(access.tensor.name)
        seen.append(access)
    return seen


def _ref_tileable(assignment, dist):
    undist_red = {
        v.name for v in assignment.reduction_vars if v.name not in dist
    }
    out = []
    for access in _ref_inputs(assignment):
        index_names = {v.name for v in access.indices}
        if not undist_red & index_names:
            continue
        if all(d in index_names for d in dist):
            continue
        out.append(access.tensor.name)
    return out


def _ref_indexed_by(assignment, tensor, var):
    for access in _ref_inputs(assignment):
        if access.tensor.name == tensor:
            return var in {v.name for v in access.indices}
    return False


def _ref_normalize(assignment, decision):
    tileable = set(_ref_tileable(assignment, decision.dist))
    tiled = tuple(sorted(set(decision.tiled) & tileable))
    step_comm = set(decision.step_comm) & set(tiled)
    if decision.seq is not None:
        step_comm &= {
            a.tensor.name for a in _ref_inputs(assignment)
            if decision.seq in {v.name for v in a.indices}
        }
    out_names = {v.name for v in assignment.lhs.indices}
    output_style = decision.output_style
    if all(d in out_names for d in decision.dist):
        output_style = OUTPUT_FACE
    leaf = decision.leaf
    if not assignment.reduction_vars or len(assignment.all_vars) < 2:
        leaf = LEAF_LOOPS
    return _ref_canonicalize(replace(
        decision, tiled=tiled, step_comm=tuple(sorted(step_comm)),
        output_style=output_style, leaf=leaf,
    ))


def _ref_enumerate(assignment, num_procs, max_dims, memo):
    """The earlier ``enumerate_space``. ``memo`` maps raw decisions to
    their reference normal forms; normalization reads only the
    assignment's variables and accesses, never its extents, so every
    size of one workload may share it."""
    domains = assignment.domains()
    var_names = [v.name for v in assignment.all_vars]
    reductions = [v.name for v in assignment.reduction_vars]
    contraction = bool(reductions) and len(var_names) >= 2
    leaf_choices = [LEAF_GEMM, LEAF_LOOPS] if contraction else [LEAF_LOOPS]
    out_names = {v.name for v in assignment.lhs.indices}
    seen = {}

    def emit(decision):
        norm = memo.get(decision)
        if norm is None:
            norm = memo[decision] = _ref_normalize(assignment, decision)
        seen.setdefault(norm.key(), norm)

    for shape in factorizations(num_procs, min(max_dims, len(var_names))):
        d = len(shape)
        for dist in permutations(var_names, d):
            if not all(
                domains[IndexVar(v)] is None or domains[IndexVar(v)] >= g
                for v, g in zip(dist, shape)
            ):
                continue
            tileable = _ref_tileable(assignment, dist)
            undist_red = [r for r in reductions if r not in dist]
            styles = (
                [OUTPUT_FACE] if all(v in out_names for v in dist)
                else [OUTPUT_FACE, OUTPUT_REPLICATE]
            )
            tiled_subsets = [
                tuple(sorted(c)) for k in range(len(tileable) + 1)
                for c in combinations(tileable, k)
            ]
            dims = list(range(d))
            step_dims = sorted({shape[i]: i for i in reversed(dims)}.values())
            rotate_subsets = [
                tuple(sorted(c)) for k in range(d + 1)
                for c in combinations(dims, k)
            ]
            for style in styles:
                for leaf in leaf_choices:
                    for tiled in tiled_subsets:
                        emit(Decision(grid=shape, dist=dist, tiled=tiled,
                                      output_style=style, leaf=leaf))
                        if not tiled:
                            continue
                        for seq in undist_red:
                            steppable = [
                                t for t in tiled
                                if _ref_indexed_by(assignment, t, seq)
                            ]
                            if not steppable:
                                continue
                            step_subsets = [
                                tuple(sorted(c))
                                for k in range(1, len(steppable) + 1)
                                for c in combinations(steppable, k)
                            ]
                            extent = domains[IndexVar(seq)]
                            for steps_dim in step_dims:
                                if extent is not None \
                                        and shape[steps_dim] > extent:
                                    continue
                                for rot in rotate_subsets:
                                    for step_comm in step_subsets:
                                        emit(Decision(
                                            grid=shape, dist=dist, seq=seq,
                                            steps_dim=steps_dim, rotate=rot,
                                            tiled=tiled, step_comm=step_comm,
                                            output_style=style, leaf=leaf,
                                        ))
    return [seen[k] for k in sorted(seen)]


#: Processor counts whose reference spaces are rebuilt on every run;
#: the reference sweep over the others (117,872 decisions) takes about
#: 15 s, so they are compared by :data:`DIGESTS`.
LIVE_PROCS = (1, 2, 4, 6, 8)
SIZES = (64, 96)
MAX_DIMS = (1, 2, 3)


def _sweep(workload, procs, enumerate_fn):
    """Every space of one workload over ``SIZES`` x ``procs`` x
    ``MAX_DIMS``, in that order. ``enumerate_fn(assignment, p,
    max_dims, memo)``: the reference shares one memo per processor
    count across sizes and ``max_dims``."""
    spaces = []
    for p in procs:
        memo = {}
        for size in SIZES:
            assignment = sized(workload, size)
            for max_dims in MAX_DIMS:
                spaces.append(enumerate_fn(assignment, p, max_dims, memo))
    return spaces


def _new(assignment, p, max_dims, memo):
    return enumerate_space(assignment, p, max_dims=max_dims)


def _digest(spaces):
    text = "|".join(";".join(d.encode() for d in s) for s in spaces)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: ``_digest`` of the reference sweep over ``PROCS`` minus
#: ``LIVE_PROCS``, and its decision count, per workload; re-record with
#: ``python tests/tuner/test_space_parity.py``.
DIGESTS = {
    "matmul": ("41896c07cdace443", 6480),
    "matmul-rect": ("41896c07cdace443", 6480),
    "mttkrp": ("8697b0977f3101db", 81344),
    "ttm": ("987d72bc1f60bf32", 21184),
    "ttv": ("e031dbcc8a5a6c3d", 2384),
}
#: Decisions compared per workload, live and pinned (145,156 in all).
COMPARED = {
    "matmul": 8824,
    "matmul-rect": 8824,
    "mttkrp": 98016,
    "ttm": 25996,
    "ttv": 3496,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_enumerate_space_equals_reference(workload):
    live = _sweep(workload, LIVE_PROCS, _new)
    assert live == _sweep(workload, LIVE_PROCS, _ref_enumerate)
    pinned = _sweep(
        workload, [p for p in PROCS if p not in LIVE_PROCS], _new
    )
    digest, count = DIGESTS[workload]
    assert (_digest(pinned), sum(map(len, pinned))) == (digest, count)
    assert sum(map(len, live)) + count == COMPARED[workload]


def test_canonicalize_equals_reference_off_the_space():
    """Raw (unnormalized) decisions: unsorted and duplicated sets,
    rotations along extent-1 dimensions, dead sequenced loops, repeated
    extents and a repeated ``dist`` variable (relabellings that tie on
    grid and ``dist``) all fold as the reference folds them."""
    raws = []
    for grid in ((4, 2, 2), (2, 1, 4), (3, 3), (1, 8), (6,)):
        dists = list(permutations("ijk", len(grid)))
        for dist in dists + [("i",) * len(grid)]:
            rotations = ((), (0,), (1, 0), tuple(range(len(grid))))
            for rot in [r for r in rotations if max(r, default=0) < len(grid)]:
                for steps_dim in (None,) + tuple(range(len(grid))):
                    for step_comm in ((), ("C", "B"), ("B", "B")):
                        raws.append(Decision(
                            grid=grid, dist=dist,
                            seq=None if steps_dim is None else "k",
                            steps_dim=steps_dim, rotate=rot,
                            tiled=("C", "B", "C"), step_comm=step_comm,
                            checkpoint=("B", "A", "B"),
                        ))
    for raw in raws:
        assert canonicalize(raw) == _ref_canonicalize(raw), raw


def _ref_dominated(assignment, decision, params):
    """The earlier leaf-dominance rule: normalize the decision's ``gemm``
    twin and check that it is a distinct ``gemm`` candidate."""
    if decision.leaf != LEAF_LOOPS:
        return False
    if params.naive_leaf_efficiency > params.gemm_efficiency:
        return False
    twin = normalize(assignment, replace(decision, leaf=LEAF_GEMM))
    return twin.leaf == LEAF_GEMM and twin != decision


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dominance_matches_normalized_twin(workload):
    """The leaf-dominance predicate equals the verdict read off the
    normalized ``gemm`` twin, for canonical decisions and for the same
    decisions with their leaf flipped and their sets unnormalized."""
    assignment = sized(workload, 64)
    decisions = enumerate_space(assignment, 16)
    for params in (LASSEN, replace(LASSEN, naive_leaf_efficiency=2.0)):
        for decision in decisions:
            raws = (
                decision,
                replace(decision, leaf=LEAF_LOOPS),
                replace(decision, leaf=LEAF_LOOPS, tiled=("A", "B", "C"),
                        step_comm=("A", "B", "C")),
            )
            for raw in raws:
                assert _dominated_loops(assignment, raw, params) == \
                    _ref_dominated(assignment, raw, params), raw


if __name__ == "__main__":
    for name in sorted(WORKLOADS):
        spaces = _sweep(
            name, [p for p in PROCS if p not in LIVE_PROCS], _ref_enumerate
        )
        print(f"    {name!r}: ({_digest(spaces)!r}, {sum(map(len, spaces))}),")
