"""The tuner's schedule space: declarative decision vectors.

The paper's Section 9 extension — automatic schedule and format
selection — needs a *search space*, not just a heuristic. This module
materializes candidate schedules as small, hashable decision vectors
(:class:`Decision`) that pin every choice the paper's hand schedules
make:

* the machine-grid shape (a factorization of the processor count);
* which index variables distribute onto which grid dimensions;
* whether a leftover reduction variable is *sequenced* into steps, and
  whether those steps are systolic (``rotate`` by grid coordinates,
  Cannon/PUMMA style) or broadcast (SUMMA style);
* per-input communication: *pull* (replicate over the grid dimensions
  that do not index the tensor — the stationary-tensor pattern) or
  *tile* (partition the reduction mode across those dimensions, the
  fully-tiled Figure 9 layouts) and the loop level the fetch aggregates
  at;
* the output's off-grid placement (reduction face vs. replicas) and the
  leaf kernel (GEMM substitution vs. parallel loops).

A decision vector is *replayable*: :func:`realize` deterministically
rebuilds the same :class:`~repro.scheduling.schedule.Schedule` and
per-tensor :class:`~repro.formats.format.Format` every time, so the
tuning ledger can store vectors instead of schedules and a tuned result
is an ordinary schedule a performance engineer can inspect.

Symmetry: relabelling the grid dimensions of a candidate (together with
its variable assignment and rotation set) yields an isomorphic schedule
on the abstract torus, and reorderings of a rotation's source list are
identical by construction. :func:`canonicalize` quotients both out so
each symmetry class is enumerated and simulated once. (Row-major
node packing makes the relabelling symmetry approximate on clusters
with several processors per node; the canonical representative is the
one that is simulated.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, permutations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.formats.distribution import (
    Broadcast,
    DimName,
    Distribution,
    Fixed,
)
from repro.formats.format import Format
from repro.ir.expr import Access, IndexVar
from repro.ir.tensor import Assignment
from repro.machine.cluster import MemoryKind, ProcessorKind
from repro.machine.machine import Machine
from repro.scheduling.schedule import Schedule
from repro.util.errors import ScheduleError

_MODE_NAMES = "abcdefghijklmnopqrstuvwxyz"

#: Sentinel leaf choices; ``realize`` maps "gemm" to the machine's BLAS.
LEAF_GEMM = "gemm"
LEAF_LOOPS = "loops"

OUTPUT_FACE = "face"
OUTPUT_REPLICATE = "replicate"


@dataclass(frozen=True)
class Decision:
    """One point of the schedule space (all fields hashable/picklable).

    ``grid``
        Machine grid shape; its product is the processor count.
    ``dist``
        Index-variable names distributed onto the grid, one per
        dimension, in machine-dimension order.
    ``seq`` / ``steps_dim``
        Optional reduction variable sequenced into
        ``grid[steps_dim]`` steps (the divided k loop of Figure 9).
    ``rotate``
        Sorted grid-dimension indices whose coordinates rotate the
        sequenced loop (``()`` = broadcast steps; Cannon rotates both
        dimensions, PUMMA one).
    ``tiled``
        Input tensors whose unpartitioned reduction modes are tiled
        across the grid dimensions that do not index them (the fully
        tiled ``xy -> xy`` layouts); the rest *pull* replicas.
    ``step_comm``
        Inputs whose communication aggregates at the sequenced loop
        (one fetch per step); the rest fetch once per task at the
        innermost distributed loop.
    ``output_style``
        ``"face"`` homes the output on the 0-face of grid dimensions
        that do not index it (Johnson's reduction face);
        ``"replicate"`` keeps replicas everywhere (the heuristic's
        choice).
    ``leaf``
        ``"gemm"`` substitutes the machine's BLAS at the leaf,
        ``"loops"`` parallelizes the innermost local loop.
    ``checkpoint``
        Tensors snapshotted at every phase boundary (fault tolerance).
        Ignored by schedule construction — it prices into the
        ``objective="expected"`` tuning mode (per-step checkpoint
        overhead against reduced recomputation on failure) and tells
        the fault replanner which instances survive a node loss. Not
        enumerated by :func:`enumerate_space`; the expected-cost
        re-ranking expands it (:mod:`repro.faults.objective`).
    """

    grid: Tuple[int, ...]
    dist: Tuple[str, ...]
    seq: Optional[str] = None
    steps_dim: Optional[int] = None
    rotate: Tuple[int, ...] = ()
    tiled: Tuple[str, ...] = ()
    step_comm: Tuple[str, ...] = ()
    output_style: str = OUTPUT_FACE
    leaf: str = LEAF_LOOPS
    checkpoint: Tuple[str, ...] = ()

    def key(self) -> Tuple:
        """A total order over decisions (used for canonical forms,
        deterministic tie-breaks, and ledger keys)."""
        return (
            len(self.grid),
            self.grid,
            self.dist,
            self.seq or "",
            -1 if self.steps_dim is None else self.steps_dim,
            self.rotate,
            self.tiled,
            self.step_comm,
            self.output_style,
            self.leaf,
            self.checkpoint,
        )

    def encode(self) -> str:
        """Compact, stable, human-readable string form (ledger key)."""
        parts = [
            "grid=" + "x".join(str(g) for g in self.grid),
            "dist=" + ",".join(self.dist),
        ]
        if self.seq is not None:
            parts.append(f"seq={self.seq}@{self.steps_dim}")
        if self.rotate:
            parts.append("rot=" + ",".join(str(d) for d in self.rotate))
        if self.tiled:
            parts.append("tile=" + ",".join(self.tiled))
        if self.step_comm:
            parts.append("step=" + ",".join(self.step_comm))
        parts.append("out=" + self.output_style)
        parts.append("leaf=" + self.leaf)
        if self.checkpoint:
            # Emitted only when set, so checkpoint-free decisions keep
            # their pre-existing ledger keys.
            parts.append("ckpt=" + ",".join(self.checkpoint))
        return ";".join(parts)

    @staticmethod
    def decode(text: str) -> "Decision":
        """Inverse of :meth:`encode` (ledger replay)."""
        fields: Dict[str, str] = {}
        for part in text.split(";"):
            key, _, value = part.partition("=")
            fields[key] = value
        seq = None
        steps_dim = None
        if "seq" in fields:
            seq, _, dim = fields["seq"].partition("@")
            steps_dim = int(dim)
        split = lambda s: tuple(x for x in s.split(",") if x)  # noqa: E731
        return Decision(
            grid=tuple(int(g) for g in fields["grid"].split("x")),
            dist=split(fields["dist"]),
            seq=seq,
            steps_dim=steps_dim,
            rotate=tuple(int(d) for d in split(fields.get("rot", ""))),
            tiled=split(fields.get("tile", "")),
            step_comm=split(fields.get("step", "")),
            output_style=fields.get("out", OUTPUT_FACE),
            leaf=fields.get("leaf", LEAF_LOOPS),
            checkpoint=split(fields.get("ckpt", "")),
        )

    def describe(self) -> str:
        comm = "systolic" if self.rotate else (
            "broadcast" if self.seq else "one-shot"
        )
        return (
            f"grid {'x'.join(map(str, self.grid))}, "
            f"distribute ({', '.join(self.dist)}), {comm}"
            + (f" over {self.seq}" if self.seq else "")
            + (f", tiled {{{', '.join(self.tiled)}}}" if self.tiled else "")
            + f", leaf {self.leaf}"
        )


# ----------------------------------------------------------------------
# Canonicalization.
# ----------------------------------------------------------------------


def canonicalize(decision: Decision) -> Decision:
    """The canonical representative of a decision's symmetry class.

    * rotation sources are an unordered set (``rotate(k, [io, jo])``
      and ``rotate(k, [jo, io])`` are the same command) — sorted;
    * rotations along extent-1 grid dimensions are identities — dropped;
    * a sequenced loop no input communicates at is dead — folded away;
    * grid-dimension relabellings (permuting ``grid`` together with
      ``dist``, ``rotate`` and ``steps_dim``) are isomorphic — the
      relabelling with the least :meth:`Decision.key` is chosen.
    """
    return _canonical(
        decision, decision.tiled, decision.step_comm,
        decision.output_style, decision.leaf,
    )


def _canonical(
    decision: Decision,
    tiled: Sequence[str],
    step_comm: Sequence[str],
    output_style: str,
    leaf: str,
    perms: Optional[List[Tuple[int, ...]]] = None,
) -> Decision:
    """:func:`canonicalize` of ``decision`` with the given ``tiled``,
    ``step_comm``, ``output_style`` and ``leaf``, building one
    :class:`Decision`.

    A relabelling moves only ``grid``, ``dist``, ``steps_dim`` and
    ``rotate``; the other fields of :meth:`Decision.key` are equal for
    every relabelling, so comparing the moved fields in key order picks
    the same representative as comparing whole keys. ``perms`` is
    :func:`_relabellings` of the decision's grid and ``dist`` when the
    caller has it.
    """
    tiled = tuple(sorted(set(tiled)))
    step_comm = tuple(sorted(set(step_comm) & set(tiled)))
    checkpoint = tuple(sorted(set(decision.checkpoint)))
    grid, seq, steps_dim = decision.grid, decision.seq, decision.steps_dim
    rotate = {d for d in decision.rotate if grid[d] > 1}
    if seq is None or not step_comm:
        seq, steps_dim, rotate, step_comm = None, None, (), ()
    if perms is None:
        perms = _relabellings(grid, decision.dist)
    # Steps only depend on the extent: normalize to the first dimension
    # with that extent.
    extent = None if steps_dim is None else grid[steps_dim]
    best = None
    for perm in perms:
        pgrid = tuple(grid[p] for p in perm)
        key = (
            -1 if extent is None else pgrid.index(extent),
            tuple(sorted(perm.index(d) for d in rotate)),
            perm,
        )
        if best is None or key < best:
            best = key
    sdim, rot, perm = best
    return Decision(
        grid=tuple(grid[p] for p in perm),
        dist=tuple(decision.dist[p] for p in perm),
        seq=seq,
        steps_dim=None if sdim < 0 else sdim,
        rotate=rot,
        tiled=tiled,
        step_comm=step_comm,
        output_style=output_style,
        leaf=leaf,
        checkpoint=checkpoint,
    )


def _relabellings(
    grid: Tuple[int, ...], dist: Tuple[str, ...]
) -> List[Tuple[int, ...]]:
    """The grid-dimension permutations giving the least relabelled
    ``(grid, dist)`` — the key's leading moved fields. One permutation
    unless ``dist`` repeats a variable."""
    best, perms = None, []
    for perm in permutations(range(len(grid))):
        key = (tuple(grid[p] for p in perm), tuple(dist[p] for p in perm))
        if best is None or key < best:
            best, perms = key, [perm]
        elif key == best:
            perms.append(perm)
    return perms


def index_symmetries(assignment: Assignment) -> List[Dict[str, str]]:
    """The index-variable relabellings that fix every tensor.

    Each is a non-identity permutation π of the output's index
    variables (a ``name -> name`` dict over them) that keeps
    every extent and maps each access's variable set, the output's
    included, onto itself, so every tensor maps to itself with
    equal-extent modes permuted: TTV's and TTM's ``i``↔``j`` turns
    ``B(i,j,k)`` into ``B(j,i,k)``. A decision and its image under π
    (:func:`symmetry_representative`) differ only in which variable
    each grid dimension distributes; the grid, node packing, tensor
    names and copy-emission order are unchanged, so both simulate to
    the same outcome, and the oracle simulates one member per class.

    Two kinds of relabelling are left out because they are not exact:

    * operand swaps: matmul's ``i``↔``j`` maps ``B(i,k)`` onto the
      variables of ``C(k,j)``, which moves the simulated float
      summation order;
    * reduction variables: a tiled input partitions its reduction
      modes in their order of first appearance (:func:`formats_for`),
      which a permutation of them does not follow.
    """
    domains = {v.name: e for v, e in assignment.domains().items()}
    free = [v.name for v in assignment.free_vars]
    var_sets = {
        frozenset(v.name for v in access.indices)
        for access in assignment.accesses()
    }
    out = []
    for image in permutations(free):
        pi = dict(zip(free, image))
        if image != tuple(free) and all(
            domains[v] == domains[w] for v, w in pi.items()
        ) and all(frozenset(pi.get(v, v) for v in s) == s for s in var_sets):
            out.append(pi)
    return out


def symmetry_representative(
    decision: Decision, symmetries: Sequence[Dict[str, str]]
) -> Decision:
    """The least-key member of ``decision``'s index-symmetry class: the
    decision and its images ``π(decision)``, ``π`` in ``symmetries``
    (:func:`index_symmetries`), which rename ``dist`` and ``seq``.

    An image is not normalized: canonicalizing it would relabel grid
    dimensions, which moves rotations and steps onto other dimensions
    and is not exact. So a class's members all lie in the space only
    when ``π`` keeps the decision canonical (TTV's ``grid=2x4;
    dist=i,j`` and ``dist=j,i``), and a class otherwise holds one
    member.
    """
    images = [
        replace(
            decision,
            dist=tuple(pi.get(v, v) for v in decision.dist),
            seq=pi.get(decision.seq, decision.seq),
        )
        for pi in symmetries
    ]
    return min(images + [decision], key=Decision.key)


def _input_accesses(assignment: Assignment) -> List[Access]:
    """First access of each distinct input tensor, in expression order."""
    seen = []
    names = set()
    output = assignment.lhs.tensor.name
    for access in assignment.rhs.accesses():
        if access.tensor.name == output or access.tensor.name in names:
            continue
        names.add(access.tensor.name)
        seen.append(access)
    return seen


def _input_indices(assignment: Assignment) -> Dict[str, Set[str]]:
    """Index-variable names of each :func:`_input_accesses` access, by
    tensor name, in expression order."""
    return {
        a.tensor.name: {v.name for v in a.indices}
        for a in _input_accesses(assignment)
    }


def _tileable_inputs(
    assignment: Assignment,
    dist: Sequence[str],
    inputs: Optional[Dict[str, Set[str]]] = None,
) -> List[str]:
    """Inputs with a mode indexed by an undistributed reduction variable
    *and* at least one grid dimension that does not index them.
    ``inputs`` is :func:`_input_indices` when the caller has it."""
    undist_red = {
        v.name for v in assignment.reduction_vars if v.name not in dist
    }
    if inputs is None:
        inputs = _input_indices(assignment)
    return [
        name for name, index_names in inputs.items()
        if undist_red & index_names
        and not all(d in index_names for d in dist)
    ]


def normalize(assignment: Assignment, decision: Decision) -> Decision:
    """Fold assignment-dependent degeneracies, then canonicalize.

    * ``tiled`` restricted to inputs that can actually be tiled;
    * ``step_comm`` restricted to tiled inputs the sequenced variable
      indexes (a per-step fetch of step-invariant data is the same
      candidate as a one-shot fetch);
    * ``output_style`` is meaningless when every grid dimension indexes
      the output — normalized to ``"face"``;
    * a GEMM leaf needs a contraction with at least two local loops.
    """
    inputs = _input_indices(assignment)
    tileable = _tileable_inputs(assignment, decision.dist, inputs)
    return _normalized(assignment, decision, tileable, inputs)


def _normalized(
    assignment: Assignment,
    decision: Decision,
    tileable: Sequence[str],
    inputs: Dict[str, Set[str]],
    perms: Optional[List[Tuple[int, ...]]] = None,
) -> Decision:
    """:func:`normalize` given the decision's tileable inputs, the
    assignment's :func:`_input_indices` and, optionally, the decision's
    :func:`_relabellings`, which enumeration computes once per grid
    shape and ``dist``."""
    tiled = set(decision.tiled).intersection(tileable)
    step_comm = set(decision.step_comm) & tiled
    if decision.seq is not None:
        step_comm = {t for t in step_comm if decision.seq in inputs[t]}
    output_style = decision.output_style
    out_names = {v.name for v in assignment.lhs.indices}
    if all(v in out_names for v in decision.dist):
        output_style = OUTPUT_FACE
    leaf = decision.leaf
    if not assignment.reduction_vars or len(assignment.all_vars) < 2:
        leaf = LEAF_LOOPS
    return _canonical(decision, tiled, step_comm, output_style, leaf, perms)


# ----------------------------------------------------------------------
# Format derivation.
# ----------------------------------------------------------------------


def formats_for(
    assignment: Assignment,
    decision: Decision,
    memory: MemoryKind = MemoryKind.SYSTEM_MEM,
) -> Dict[str, Format]:
    """Per-tensor distributions induced by a decision vector.

    Grid dimensions whose variable indexes a tensor partition the
    corresponding mode. Remaining dimensions: the output is homed on
    the 0-face (``"face"``) or replicated; *tiled* inputs spend those
    dimensions partitioning their unpartitioned reduction modes
    (preferring the sequenced variable's mode — the Figure 9
    ``xy -> xy`` layouts); *pulled* inputs replicate.
    """
    output = assignment.lhs.tensor.name
    tile_priority = [decision.seq] if decision.seq else []
    tile_priority += [
        v.name
        for v in assignment.reduction_vars
        if v.name not in decision.dist and v.name not in tile_priority
    ]
    # Grid dimensions past ``dist`` (the heuristic on a grid with more
    # dimensions than loops) partition nothing.
    grid_vars = decision.dist + (None,) * (
        len(decision.grid) - len(decision.dist)
    )
    formats: Dict[str, Format] = {}
    for access in assignment.accesses():
        tensor = access.tensor
        if tensor.name in formats:
            continue
        if tensor.ndim == 0:
            formats[tensor.name] = Format(memory=memory)
            continue
        index_names = [v.name for v in access.indices]
        mode_names = [_MODE_NAMES[m] for m in range(tensor.ndim)]
        used = set()
        mdims: List = []
        for var in grid_vars:
            if var in index_names:
                mode = index_names.index(var)
                mdims.append(DimName(mode_names[mode]))
                used.add(mode)
            else:
                mdims.append(None)  # placeholder, resolved below
        is_tiled = tensor.name in decision.tiled
        for pos, mdim in enumerate(mdims):
            if mdim is not None:
                continue
            if tensor.name == output:
                mdims[pos] = (
                    Fixed(0)
                    if decision.output_style == OUTPUT_FACE
                    else Broadcast()
                )
                continue
            filled = False
            if is_tiled:
                for var in tile_priority:
                    if var not in index_names:
                        continue
                    mode = index_names.index(var)
                    if mode in used:
                        continue
                    mdims[pos] = DimName(mode_names[mode])
                    used.add(mode)
                    filled = True
                    break
            if not filled:
                mdims[pos] = Broadcast()
        dist = Distribution(mode_names, mdims)
        formats[tensor.name] = Format(dist, memory=memory)
    return formats


# ----------------------------------------------------------------------
# Replay: decision vector -> Schedule + formats.
# ----------------------------------------------------------------------


def realize(
    assignment: Assignment,
    machine: Machine,
    decision: Decision,
    memory: MemoryKind = MemoryKind.SYSTEM_MEM,
    format_overrides: Optional[Dict[str, Format]] = None,
) -> Tuple[Schedule, Dict[str, Format]]:
    """Deterministically rebuild the schedule a decision describes.

    The same decision replayed on the same assignment and machine
    produces a byte-identical plan (``compile_kernel(...).pretty()``),
    which is what makes the tuning ledger and cache keys sound.

    ``format_overrides`` pins named tensors to externally supplied
    formats instead of the decision-derived ones — how pipeline stages
    read an upstream tensor in the layout its producer left behind
    (the *direct* handoff) rather than redistributing first. Overridden
    formats must target the same machine grid.
    """
    from repro.analysis.legality import check_legal  # local: cycle

    check_legal(
        assignment, decision, grid_shape=machine.levels[0].shape
    )
    return build_schedule(
        assignment, machine, decision, memory, format_overrides
    )


def build_schedule(
    assignment: Assignment,
    machine: Machine,
    decision: Decision,
    memory: MemoryKind = MemoryKind.SYSTEM_MEM,
    format_overrides: Optional[Dict[str, Format]] = None,
) -> Tuple[Schedule, Dict[str, Format]]:
    """:func:`realize` without its legality check.

    :meth:`repro.core.kernel.Kernel.autoschedule` builds the raw
    :func:`heuristic_decision` here, because the heuristic also
    compiles what the tuner's space rules out: grids with more
    dimensions than the assignment has loops, and loops shorter than
    their grid dimension.
    """
    by_name = {v.name: v for v in assignment.all_vars}
    formats = formats_for(assignment, decision, memory)
    if format_overrides:
        tensor_names = {t.name for t in assignment.tensors()}
        for name, fmt in format_overrides.items():
            if name not in tensor_names:
                raise ScheduleError(
                    f"format override names unknown tensor {name!r}"
                )
            formats[name] = fmt
    for tensor in assignment.tensors():
        if tensor.name in formats:
            tensor.format = formats[tensor.name]

    sched = Schedule(assignment)
    dist_vars = [by_name[n] for n in decision.dist]
    order = dist_vars + [
        v for v in assignment.all_vars if v.name not in decision.dist
    ]
    sched.reorder(order)
    outers, inners = [], []
    for var, extent in zip(dist_vars, decision.grid):
        outer = IndexVar(f"{var.name}_o")
        inner = IndexVar(f"{var.name}_i")
        sched.divide(var, outer, inner, extent)
        outers.append(outer)
        inners.append(inner)
    sched.reorder(outers + inners)
    sched.distribute(outers)

    seq_loop: Optional[IndexVar] = None
    if decision.seq is not None:
        seq_var = by_name[decision.seq]
        seq_o = IndexVar(f"{seq_var.name}_o")
        seq_i = IndexVar(f"{seq_var.name}_i")
        sched.divide(seq_var, seq_o, seq_i, decision.grid[decision.steps_dim])
        local_now = [v for v in sched.loop_vars() if v not in outers]
        rest = [v for v in local_now if v not in (seq_o, seq_i)]
        sched.reorder([seq_o] + rest + [seq_i])
        seq_loop = seq_o
        if decision.rotate:
            rotated = IndexVar(f"{seq_var.name}_r")
            sched.rotate(
                seq_o, [outers[d] for d in decision.rotate], rotated
            )
            seq_loop = rotated

    step_set = set(decision.step_comm)
    output = assignment.lhs.tensor.name
    sched.communicate(output, outers[-1])
    for tensor in assignment.tensors()[1:]:
        anchor = seq_loop if tensor.name in step_set else outers[-1]
        sched.communicate(tensor.name, anchor)

    leaf_nest = [
        v for v in sched.loop_vars() if v not in outers and v is not seq_loop
    ]
    if decision.leaf == LEAF_GEMM and leaf_nest:
        kernel = (
            "cublas_gemm"
            if machine.cluster.processor_kind is ProcessorKind.GPU
            else "blas_gemm"
        )
        sched.substitute(leaf_nest, kernel)
    elif leaf_nest:
        sched.parallelize(leaf_nest[0])
    return sched, formats


# ----------------------------------------------------------------------
# The heuristic as a decision vector (the tuner's seed).
# ----------------------------------------------------------------------


def heuristic_decision(
    assignment: Assignment, grid_shape: Sequence[int]
) -> Decision:
    """The one-shot heuristic (the paper's Section 9 extension) as a
    decision vector on the given grid, not normalized.

    Owner-computes: distribute the loops that index the output (inputs
    are pulled toward a stationary output, Section 3.3), then reduction
    loops if the output has fewer dimensions than the grid. Every
    tensor is replicated across the grid dimensions it does not follow,
    everything is communicated once per task at the innermost
    distributed loop, and contractions substitute a GEMM leaf.
    :meth:`repro.core.kernel.Kernel.autoschedule` compiles it with
    :func:`build_schedule`; :func:`from_heuristic` normalizes it into
    the tuner's seed.
    """
    candidates = list(assignment.free_vars)
    candidates += [
        v for v in assignment.reduction_vars if v not in candidates
    ]
    leaf = (
        LEAF_GEMM
        if assignment.reduction_vars and len(assignment.all_vars) >= 2
        else LEAF_LOOPS
    )
    return Decision(
        grid=tuple(int(g) for g in grid_shape),
        dist=tuple(v.name for v in candidates[:len(grid_shape)]),
        output_style=OUTPUT_REPLICATE,
        leaf=leaf,
    )


def from_heuristic(
    assignment: Assignment, grid_shape: Sequence[int]
) -> Decision:
    """The tuner's seed: :func:`heuristic_decision`, normalized.

    Every heuristic choice is a pull/one-shot decision vector, so the
    seed is in the search space and the tuner can never return
    something worse. Raises :class:`LegalityError` when the grid has
    more dimensions than the assignment has distributable loops.
    """
    decision = heuristic_decision(assignment, grid_shape)
    if len(decision.dist) < len(decision.grid):
        from repro.analysis.diagnostics import Diagnostic
        from repro.util.errors import LegalityError

        raise LegalityError([Diagnostic(
            "dist-arity", "dist",
            f"assignment has {len(decision.dist)} distributable variables "
            f"but the grid has {len(decision.grid)} dimensions",
        )])
    return normalize(assignment, decision)


# ----------------------------------------------------------------------
# Enumeration.
# ----------------------------------------------------------------------


def factorizations(p: int, max_dims: int) -> List[Tuple[int, ...]]:
    """Ordered factorizations of ``p`` into 1..max_dims factors >= 2
    (plus the trivial ``(1,)`` machine when p == 1)."""
    if p == 1:
        return [(1,)]
    out: List[Tuple[int, ...]] = []

    def rec(remaining: int, prefix: Tuple[int, ...]):
        if remaining == 1:
            if prefix:
                out.append(prefix)
            return
        if len(prefix) == max_dims:
            return
        for f in range(2, remaining + 1):
            if remaining % f == 0:
                rec(remaining // f, prefix + (f,))

    rec(p, ())
    return out


def enumerate_space(
    assignment: Assignment,
    num_procs: int,
    max_dims: int = 3,
) -> List[Decision]:
    """All canonical decision vectors for an assignment and machine size.

    Symmetric candidates (grid-dimension relabellings, reordered
    rotation sources) collapse to one representative; degenerate
    structure (dead sequential loops, untileable tile requests) is
    folded before deduplication, so the returned list counts distinct
    schedules. Sorted by :meth:`Decision.key` for determinism.
    """
    domains = assignment.domains()
    var_names = [v.name for v in assignment.all_vars]
    reductions = [v.name for v in assignment.reduction_vars]
    contraction = bool(reductions) and len(var_names) >= 2
    leaf_choices = [LEAF_GEMM, LEAF_LOOPS] if contraction else [LEAF_LOOPS]
    out_names = {v.name for v in assignment.lhs.indices}
    inputs = _input_indices(assignment)
    seen: Dict[Tuple, Decision] = {}

    def emit(decision: Decision, tileable: List[str],
             perms: List[Tuple[int, ...]]):
        norm = _normalized(assignment, decision, tileable, inputs, perms)
        seen.setdefault(norm.key(), norm)

    for shape in factorizations(num_procs, min(max_dims, len(var_names))):
        d = len(shape)
        for dist in permutations(var_names, d):
            extent_ok = all(
                domains[IndexVar(v)] is None or domains[IndexVar(v)] >= g
                for v, g in zip(dist, shape)
            )
            if not extent_ok:
                continue
            perms = _relabellings(shape, dist)
            if perms[0] != tuple(range(d)):
                # A relabelling of a (shape, dist) pair enumerated on
                # its own: every choice below is relabelling-closed, so
                # both pairs emit the same canonical forms.
                continue
            tileable = _tileable_inputs(assignment, dist, inputs)
            undist_red = [r for r in reductions if r not in dist]
            output_styles = (
                [OUTPUT_FACE]
                if all(v in out_names for v in dist)
                else [OUTPUT_FACE, OUTPUT_REPLICATE]
            )
            tiled_subsets = [
                tuple(sorted(c))
                for k in range(len(tileable) + 1)
                for c in combinations(tileable, k)
            ]
            dims = list(range(d))
            step_dims = sorted(
                {shape[i]: i for i in reversed(dims)}.values()
            )
            rotate_subsets = [
                tuple(sorted(c))
                for k in range(d + 1)
                for c in combinations(dims, k)
            ]
            for out_style in output_styles:
                for leaf in leaf_choices:
                    for tiled in tiled_subsets:
                        # One-shot (no sequenced loop).
                        emit(Decision(
                            grid=shape,
                            dist=dist,
                            tiled=tiled,
                            output_style=out_style,
                            leaf=leaf,
                        ), tileable, perms)
                        if not tiled:
                            continue
                        for seq in undist_red:
                            steppable = [t for t in tiled if seq in inputs[t]]
                            if not steppable:
                                continue
                            step_subsets = [
                                tuple(sorted(c))
                                for k in range(1, len(steppable) + 1)
                                for c in combinations(steppable, k)
                            ]
                            seq_extent = domains[IndexVar(seq)]
                            for steps_dim in step_dims:
                                if (
                                    seq_extent is not None
                                    and shape[steps_dim] > seq_extent
                                ):
                                    continue
                                for rot in rotate_subsets:
                                    for step_comm in step_subsets:
                                        emit(Decision(
                                            grid=shape,
                                            dist=dist,
                                            seq=seq,
                                            steps_dim=steps_dim,
                                            rotate=rot,
                                            tiled=tiled,
                                            step_comm=step_comm,
                                            output_style=out_style,
                                            leaf=leaf,
                                        ), tileable, perms)
    return [seen[k] for k in sorted(seen)]


def _indexed_by(assignment: Assignment, tensor: str, var: str) -> bool:
    return var in _input_indices(assignment).get(tensor, ())


def warm_variants(
    assignment: Assignment, warm: Decision, num_procs: int
) -> List[Decision]:
    """Project a known-good decision onto a different processor count.

    Fault replanning re-tunes on the surviving machine; the pre-failure
    winner is the obvious place to start, but its grid no longer
    multiplies out to the new processor count. Every same-rank
    factorization of ``num_procs`` keeps the decision's structural
    choices (distribution order, sequencing, tiling, leaf) with a
    resized grid; variants that fail normalization-time legality are
    simply dropped. Sorted by :meth:`Decision.key` for determinism.
    """
    out: Dict[Tuple, Decision] = {}
    for shape in factorizations(num_procs, len(warm.grid)):
        if len(shape) != len(warm.grid):
            continue
        for perm in permutations(shape):
            candidate = replace(warm, grid=tuple(perm))
            if (
                candidate.steps_dim is not None
                and candidate.grid[candidate.steps_dim] < 1
            ):
                continue
            norm = normalize(assignment, candidate)
            out.setdefault(norm.key(), norm)
    return [out[k] for k in sorted(out)]
