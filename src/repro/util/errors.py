"""Exception hierarchy for the DISTAL reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch compiler/runtime failures without catching programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DistributionError(ReproError):
    """An invalid tensor distribution notation statement.

    Raised when a statement violates the validity conditions of Section 3.2:
    ``|X| = dim T``, ``|Y| = dim M``, no duplicate names, and every machine
    dimension name must also name a tensor dimension.
    """


class ScheduleError(ReproError):
    """An illegal scheduling command (unknown variable, bad reorder, ...)."""


class UnsupportedScheduleError(ScheduleError):
    """A schedule that is valid in the paper but outside this implementation.

    The known case is distributing a *range* of a fused (collapsed) variable,
    which produces non-rectangular iteration blocks.
    """


class LegalityError(ScheduleError):
    """A decision vector rejected by the static legality verifier.

    Carries the verifier's structured findings (``diagnostics``: rule id,
    offending decision field, message) so callers can report or test
    against individual rules instead of parsing the message.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(
            f"[{d.rule}] {d.field}: {d.message}" for d in self.diagnostics
        )
        super().__init__(f"illegal schedule decision: {lines}")


class RepresentativeCopyError(ReproError):
    """Pricing columns were asked of orbit class representatives.

    A representative copy (``count > 1``) carries its own endpoints
    only, not its members'; per-member columns come from the step that
    recorded it (:meth:`~repro.runtime.trace.Step.columns`).
    """


class LoweringError(ReproError):
    """Concrete index notation could not be lowered to a runtime plan."""


class PipelineError(ReproError):
    """An ill-formed kernel pipeline (cycle, duplicate producer, shape
    mismatch between stages, or an invalid handoff choice)."""


class NodeFailure(ReproError):
    """A simulated node died at a phase boundary (fault injection).

    Raised by the executors when an armed
    :class:`~repro.faults.events.FaultPlan` kills a node: steps
    ``0..phase-1`` of ``partial_trace`` completed before the failure,
    and ``lost`` lists every home instance the dead node held —
    ``(tensor name, machine coords, rect)`` triples, sorted — so the
    replanner can match them against replica/checkpoint availability.
    """

    def __init__(
        self,
        phase,
        node,
        surviving_nodes,
        lost,
        partial_trace,
        step_label="",
    ):
        self.phase = phase
        self.node = node
        self.surviving_nodes = surviving_nodes
        self.lost = tuple(lost)
        self.partial_trace = partial_trace
        self.step_label = step_label
        super().__init__(
            f"node {node} failed at phase {phase}"
            + (f" ({step_label!r})" if step_label else "")
            + f"; {surviving_nodes} nodes survive, "
            f"{len(self.lost)} home instances lost"
        )


class OutOfMemoryError(ReproError):
    """A simulated memory exceeded its capacity.

    Mirrors the paper's observation that Johnson's algorithm and the COSMA
    schedule exhaust GPU framebuffer memory at 32+ nodes (Section 7.1.2).
    """

    def __init__(self, memory_name, needed_bytes, capacity_bytes):
        self.memory_name = memory_name
        self.needed_bytes = needed_bytes
        self.capacity_bytes = capacity_bytes
        super().__init__(
            f"memory {memory_name} over capacity: needs {needed_bytes} bytes, "
            f"holds at most {capacity_bytes}"
        )
