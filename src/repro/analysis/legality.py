"""Pass 1: static legality verification of schedule decision vectors.

Every rule inspects only the assignment and the decision vector — no
machine, no compilation, no simulation — so rejection costs microseconds.
:func:`verify_legality` returns structured :class:`Diagnostic`s (rule id
+ offending decision field); :func:`check_legal` raises
:class:`~repro.util.errors.LegalityError` carrying them.

Rule identifiers (stable, asserted on by tests):

``grid-empty``            grid has no dimensions or a non-positive extent
``grid-factorization``    grid does not factorize the processor count /
                          does not match the machine's outer level
``dist-arity``            number of distributed variables != grid rank
``unbound-var``           a distributed name is not a variable of the
                          assignment
``duplicate-var``         the same variable bound to two grid dimensions
``extent-mismatch``       a distributed variable's extent is smaller
                          than its grid dimension
``seq-unbound``           sequenced variable is not an assignment var
``seq-distributed``       sequenced variable is also distributed
``seq-not-reduction``     sequenced variable is not a reduction var
``reduction-order``       steps/per-step fetches without the sequenced
                          reduction loop that must precede them (or a
                          sequenced loop with no step dimension)
``steps-dim-range``       steps dimension outside the grid
``steps-extent``          more steps than the sequenced extent allows
``rotation-range``        rotation source outside the grid (or listed
                          twice)
``rotation-without-seq``  rotation with no sequenced loop to rotate
``rotation-aliases-dest`` a rotation source coordinate is the sequenced
                          variable itself — the source set aliases the
                          destination loop
``tile-untileable``       a tiled tensor that has no untiled reduction
                          mode (or is unknown / the output)
``step-comm-invalid``     per-step fetch of a tensor that is not tiled
                          or that the sequenced variable does not index
``bad-output-style``      unknown output placement
``bad-leaf``              unknown leaf kernel choice
``format-grid-incompatible``  the induced per-tensor distributions are
                          invalid for this grid
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.formats.distribution import DimName
from repro.ir.tensor import Assignment
from repro.util.errors import DistributionError, LegalityError

_OUTPUT_STYLES = ("face", "replicate")
_LEAVES = ("gemm", "loops")


def verify_legality(
    assignment: Assignment,
    decision,
    num_procs: Optional[int] = None,
    grid_shape: Optional[Sequence[int]] = None,
) -> List[Diagnostic]:
    """All legality violations of ``decision`` for ``assignment``.

    ``num_procs`` (if given) pins the required grid product;
    ``grid_shape`` (if given) pins the exact machine outer-level shape.
    An empty list means the decision is legal.
    """
    from repro.tuner.space import (
        _input_accesses,
        _tileable_inputs,
        formats_for,
    )

    diags: List[Diagnostic] = []

    def flag(rule: str, field: str, message: str):
        diags.append(Diagnostic(rule, field, message))

    grid = tuple(decision.grid)
    if not grid or any(g < 1 for g in grid):
        flag("grid-empty", "grid", f"invalid grid shape {grid}")
        return diags
    if num_procs is not None and math.prod(grid) != num_procs:
        flag(
            "grid-factorization", "grid",
            f"grid {grid} has {math.prod(grid)} points but the machine "
            f"has {num_procs} processors",
        )
    if grid_shape is not None and grid != tuple(grid_shape):
        flag(
            "grid-factorization", "grid",
            f"decision targets grid {grid} but the machine's outer "
            f"level is {tuple(grid_shape)}",
        )

    domains = assignment.domains()
    var_names = {v.name for v in assignment.all_vars}
    reductions = {v.name for v in assignment.reduction_vars}
    extent_of = {v.name: e for v, e in domains.items()}

    dist = tuple(decision.dist)
    if len(dist) != len(grid):
        flag(
            "dist-arity", "dist",
            f"{len(dist)} distributed variables for a rank-{len(grid)} "
            "grid",
        )
    unbound = [n for n in dist if n not in var_names]
    for name in unbound:
        flag(
            "unbound-var", "dist",
            f"distributed variable {name!r} is not bound by the "
            "assignment",
        )
    seen = set()
    for name in dist:
        if name in seen:
            flag(
                "duplicate-var", "dist",
                f"variable {name!r} bound to two grid dimensions",
            )
        seen.add(name)
    for name, extent in zip(dist, grid):
        dom = extent_of.get(name)
        if name in var_names and dom is not None and dom < extent:
            flag(
                "extent-mismatch", "dist",
                f"variable {name!r} has extent {dom}, smaller than its "
                f"grid dimension ({extent})",
            )

    seq = decision.seq
    steps_dim = decision.steps_dim
    rotate = tuple(decision.rotate)
    if seq is not None:
        if seq not in var_names:
            flag(
                "seq-unbound", "seq",
                f"sequenced variable {seq!r} is not bound by the "
                "assignment",
            )
        else:
            if seq in dist:
                if any(
                    d < len(dist) and dist[d] == seq for d in rotate
                ):
                    flag(
                        "rotation-aliases-dest", "rotate",
                        f"rotation source dimension carries {seq!r}, "
                        "the sequenced variable it would rotate",
                    )
                flag(
                    "seq-distributed", "seq",
                    f"sequenced variable {seq!r} is also distributed",
                )
            if seq not in reductions:
                flag(
                    "seq-not-reduction", "seq",
                    f"sequenced variable {seq!r} is not a reduction "
                    "variable",
                )
        if steps_dim is None:
            flag(
                "reduction-order", "steps_dim",
                f"sequenced loop over {seq!r} has no step dimension",
            )
        elif not 0 <= steps_dim < len(grid):
            flag(
                "steps-dim-range", "steps_dim",
                f"steps dimension {steps_dim} outside rank-{len(grid)} "
                "grid",
            )
        else:
            dom = extent_of.get(seq)
            if dom is not None and grid[steps_dim] > dom:
                flag(
                    "steps-extent", "steps_dim",
                    f"{grid[steps_dim]} steps over {seq!r} with extent "
                    f"{dom}",
                )
    else:
        if steps_dim is not None:
            flag(
                "reduction-order", "steps_dim",
                f"step dimension {steps_dim} with no sequenced "
                "reduction loop before its consumers",
            )
        if decision.step_comm:
            flag(
                "reduction-order", "step_comm",
                "per-step fetches with no sequenced reduction loop "
                "before their consumers",
            )
        if rotate:
            flag(
                "rotation-without-seq", "rotate",
                "rotation with no sequenced loop to rotate",
            )

    seen_rot = set()
    for d in rotate:
        if not 0 <= d < len(grid):
            flag(
                "rotation-range", "rotate",
                f"rotation source dimension {d} outside rank-"
                f"{len(grid)} grid",
            )
        elif d in seen_rot:
            flag(
                "rotation-range", "rotate",
                f"rotation source dimension {d} listed twice",
            )
        seen_rot.add(d)

    output = assignment.lhs.tensor.name
    input_names = {a.tensor.name for a in _input_accesses(assignment)}
    bound_dist = tuple(n for n in dist if n in var_names)
    tileable = set(_tileable_inputs(assignment, bound_dist))
    for name in decision.tiled:
        if name == output or name not in input_names:
            flag(
                "tile-untileable", "tiled",
                f"tiled tensor {name!r} is not an input of the "
                "assignment",
            )
        elif name not in tileable:
            flag(
                "tile-untileable", "tiled",
                f"input {name!r} has no untiled reduction mode to tile",
            )
    tiled_set = set(decision.tiled)
    for name in decision.step_comm:
        if name not in tiled_set:
            flag(
                "step-comm-invalid", "step_comm",
                f"per-step fetch of {name!r}, which is not tiled",
            )
        elif seq is not None and not _accesses_with(
            assignment, name, seq
        ):
            flag(
                "step-comm-invalid", "step_comm",
                f"per-step fetch of {name!r}, which {seq!r} does not "
                "index",
            )

    if decision.output_style not in _OUTPUT_STYLES:
        flag(
            "bad-output-style", "output_style",
            f"unknown output placement {decision.output_style!r}",
        )
    if decision.leaf not in _LEAVES:
        flag(
            "bad-leaf", "leaf",
            f"unknown leaf kernel {decision.leaf!r}",
        )

    tensor_names = {t.name for t in assignment.tensors()}
    for name in getattr(decision, "checkpoint", ()):
        if name not in tensor_names:
            flag(
                "checkpoint-unknown", "checkpoint",
                f"checkpointed tensor {name!r} is not a tensor of the "
                "assignment",
            )

    if not diags:
        # Only meaningful once the vector is structurally sound.
        try:
            formats = formats_for(assignment, decision)
        except DistributionError as exc:
            flag("format-grid-incompatible", "dist", str(exc))
        else:
            for name, fmt in formats.items():
                for dist_level in fmt.distributions:
                    if dist_level.machine_ndim != len(grid):
                        flag(
                            "format-grid-incompatible", "dist",
                            f"tensor {name!r}: distribution names "
                            f"{dist_level.machine_ndim} machine dims "
                            f"for a rank-{len(grid)} grid",
                        )
                    modes = set()
                    for mdim in dist_level.machine_dims:
                        if isinstance(mdim, DimName):
                            if mdim.name in modes:
                                flag(
                                    "format-grid-incompatible", "dist",
                                    f"tensor {name!r}: mode "
                                    f"{mdim.name!r} partitioned by two "
                                    "grid dimensions",
                                )
                            modes.add(mdim.name)
    return diags


def _accesses_with(assignment: Assignment, tensor: str, var: str) -> bool:
    from repro.tuner.space import _indexed_by

    return _indexed_by(assignment, tensor, var)


def check_legal(
    assignment: Assignment,
    decision,
    grid_shape: Optional[Sequence[int]] = None,
) -> None:
    """Raise :class:`LegalityError` if the decision is ill-formed
    (:func:`verify_legality` with no processor-count pin)."""
    diags = verify_legality(assignment, decision, grid_shape=grid_shape)
    if diags:
        raise LegalityError(diags)
