"""Pass 4: independent consistency checking of execution traces.

The executor's phase discipline promises three invariants that nothing
previously re-checked:

* **write–write-race** — within one step, two non-reduce copies land
  overlapping rectangles of one tensor on the same destination from
  different sources. Phase-granularity resolution should make every
  same-phase fetch of a region name one source.
* **reduction-order** — a reduction write-back must target a
  destination that owns the rectangle (reductions fold into registered
  home instances, in registration order), and no step may mix an
  overwrite of a region with a reduction into it.
* **stale-source** — every non-reduce copy's source must either own the
  rectangle or have received a containing rectangle in an *earlier*
  step of the current payload version. A reduction step bumps its
  tensor's version: cached non-owner holds become stale. (Reduce-copy
  sources are exempt — partials are produced by local leaf work.)

The checks consume ``step.copies`` — the canonical per-copy record —
rather than the lossy ``skeleton_of`` projection, which keeps neither
rectangles nor coordinates. Holds are tracked per *processor* (copies
between grid points of one processor are elided by the executor, so
coordinate-level tracking would report false positives on
over-decomposed machines). On orbit-compressed traces (``count > 1``
representatives) only the per-step checks run; hold tracking needs the
full trace, which is how the executors' ``sanitize`` mode obtains it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.membound import _POINT_LIMIT
from repro.codegen.plan import DistributedPlan
from repro.runtime.instances import DataEnvironment
from repro.runtime.trace import Trace
from repro.util.geometry import Rect

_MAX_FINDINGS = 50


def sanitize_trace(plan: DistributedPlan, trace: Trace) -> List[Diagnostic]:
    """All sanity violations of ``trace`` against ``plan``'s formats."""
    machine = plan.machine
    env = DataEnvironment(plan, check_capacity=False, count_home=False)
    findings: List[Diagnostic] = []
    compressed = any(
        c.count > 1 for s in trace.steps for c in s.copies
    )

    proc_points: Dict[int, List[Tuple[int, ...]]] = {}
    if machine.size <= _POINT_LIMIT:
        for point in machine.points():
            proc = machine.proc_at(point)
            proc_points.setdefault(proc.proc_id, []).append(point)

    owns_cache: Dict[Tuple[str, int, Rect], bool] = {}

    def proc_owns(tensor: str, proc_id: int, coords, rect: Rect) -> bool:
        key = (tensor, proc_id, rect)
        cached = owns_cache.get(key)
        if cached is not None:
            return cached
        points = proc_points.get(proc_id)
        if points is None:
            # Machine too large to enumerate: fall back to the copy's
            # own coordinates (exact except for proc-sharing points).
            result = bool(coords) and env.owns(tensor, tuple(coords), rect)
        else:
            result = any(env.owns(tensor, p, rect) for p in points)
        owns_cache[key] = result
        return result

    # tensor -> proc_id -> received rects (current version).
    held: Dict[str, Dict[int, List[Rect]]] = {}

    def flag(rule: str, field: str, message: str) -> bool:
        findings.append(Diagnostic(rule, field, message))
        return len(findings) >= _MAX_FINDINGS

    for step_idx, step in enumerate(trace.steps):
        where = f"step {step_idx} ({step.label!r})"
        incoming: Dict[Tuple[str, int, Tuple[int, ...]], List] = {}
        reduced_tensors = set()
        for copy in step.copies:
            if copy.tensor not in plan.tensors:
                if flag(
                    "unknown-tensor", copy.tensor,
                    f"{where}: copy of a tensor the plan does not bind",
                ):
                    return findings
                continue
            if copy.reduce:
                reduced_tensors.add(copy.tensor)
                if not proc_owns(
                    copy.tensor, copy.dst_proc.proc_id,
                    copy.dst_coords, copy.rect,
                ):
                    if flag(
                        "reduction-order", copy.tensor,
                        f"{where}: reduction of {copy.rect} applied at "
                        f"proc {copy.dst_proc.proc_id}, which holds no "
                        "registered home instance covering it",
                    ):
                        return findings
            elif not compressed:
                src_id = copy.src_proc.proc_id
                ok = proc_owns(
                    copy.tensor, src_id, copy.src_coords, copy.rect
                )
                if not ok:
                    for rect in held.get(copy.tensor, {}).get(src_id, ()):
                        if rect.contains(copy.rect):
                            ok = True
                            break
                if not ok:
                    if flag(
                        "stale-source", copy.tensor,
                        f"{where}: copy of {copy.rect} from proc "
                        f"{src_id}, which never held the current "
                        "version of that region",
                    ):
                        return findings
            key = (copy.tensor, copy.dst_proc.proc_id, tuple(copy.dst_coords))
            incoming.setdefault(key, []).append(copy)

        for (tensor, dst_id, _), group in incoming.items():
            overwrites = [c for c in group if not c.reduce]
            reduces = [c for c in group if c.reduce]
            for i, a in enumerate(overwrites):
                for b in overwrites[i + 1:]:
                    same_src = (
                        a.src_proc.proc_id == b.src_proc.proc_id
                        and tuple(a.src_coords) == tuple(b.src_coords)
                    )
                    if not same_src and a.rect.overlaps(b.rect):
                        if flag(
                            "write-write-race", tensor,
                            f"{where}: {a.rect} and {b.rect} written to "
                            f"proc {dst_id} from two different sources "
                            "in one phase",
                        ):
                            return findings
            for a in overwrites:
                for b in reduces:
                    if a.rect.overlaps(b.rect):
                        if flag(
                            "reduction-order", tensor,
                            f"{where}: proc {dst_id} both overwritten "
                            f"({a.rect}) and reduced into ({b.rect}) "
                            "in one phase",
                        ):
                            return findings

        if not compressed:
            for copy in step.copies:
                if copy.reduce or copy.tensor not in plan.tensors:
                    continue
                held.setdefault(copy.tensor, {}).setdefault(
                    copy.dst_proc.proc_id, []
                ).append(copy.rect)
            for tensor in reduced_tensors:
                # The reduction bumps the payload version: every cached
                # non-owner hold of this tensor is now stale.
                held.pop(tensor, None)
    return findings
