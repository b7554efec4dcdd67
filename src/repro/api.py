"""The unified scheduling API: one canonical request/answer pair.

Before this module the repository answered its central question — *the
best distributed schedule for (einsum, shapes, dtype, machine)* —
through three divergent surfaces: ``Kernel.tune(...)`` kwargs, the
tuning ledger's ad-hoc key strings, and whatever each CLI printed.
The schedule-serving daemon (:mod:`repro.serve`) needs a wire format,
which forces the redesign: :class:`ScheduleRequest` and
:class:`ScheduleAnswer` are the *single* canonical types used
identically by

* the in-process API — :meth:`repro.core.kernel.Kernel.tune` builds a
  request and returns a :class:`~repro.tuner.search.TuneResult` whose
  ``answer`` field is the canonical answer;
* the daemon's newline-delimited JSON protocol
  (:mod:`repro.serve.protocol`) — requests and answers cross the wire
  as their :meth:`~ScheduleRequest.to_record` dicts;
* the tuning ledger (:class:`repro.tuner.oracle.TuningLedger`) —
  answers persist under their request fingerprint, so a daemon restart
  re-serves every tuned schedule from microsecond in-memory hits.

Everything in a record is a JSON scalar/list/dict, floats round-trip
exactly (``json`` uses ``repr``), and :meth:`ScheduleRequest.fingerprint`
is a stable content hash — two processes building the same request get
the same fingerprint, which is what makes in-flight deduplication and
the answer cache sound.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.expr import Access, Add, Expr, IndexVar, Literal, Mul
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind
from repro.sim.params import MachineParams, LASSEN

#: Answer provenance values (how the serving layer obtained it).
HIT = "hit"
TUNED = "tuned"
WARM_STARTED = "warm-started"
#: The serving daemon's poison-request quarantine: N consecutive
#: worker crashes produce a persisted infeasible answer with this
#: provenance (see :mod:`repro.serve.supervise`) instead of re-tuning
#: the crasher forever.
QUARANTINED = "quarantined"


def canonical_json(payload) -> str:
    """The one JSON rendering fingerprints and byte-comparisons use."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Einsum text <-> Assignment.
# ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<access>[A-Za-z_]\w*)\[(?P<idx>[^\]]*)\]"
    r"|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<op>[+*()]))"
)


def einsum_of(assignment: Assignment) -> str:
    """Render an assignment as canonical einsum text.

    ``A[i,j]=B[i,k]*C[k,j]`` — accesses as ``Name[i,j,...]``, binary
    ``+``/``*`` with minimal parentheses (left association is implicit,
    matching how operator overloading builds the trees), no whitespace.
    :func:`assignment_of` inverts it exactly for left-associated trees.
    """
    lhs = _access_text(assignment.lhs)
    return f"{lhs}={_expr_text(assignment.rhs, 0, False)}"


def _access_text(access: Access) -> str:
    inner = ",".join(v.name for v in access.indices)
    return f"{access.tensor.name}[{inner}]"


def _expr_text(expr: Expr, parent_prec: int, right_child: bool) -> str:
    if isinstance(expr, Access):
        return _access_text(expr)
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, (Add, Mul)):
        prec = 2 if isinstance(expr, Mul) else 1
        text = (
            _expr_text(expr.lhs, prec, False)
            + expr.op
            + _expr_text(expr.rhs, prec, True)
        )
        if prec < parent_prec or (prec == parent_prec and right_child):
            return f"({text})"
        return text
    raise TypeError(f"unexpected expression node {expr!r}")


class _Parser:
    """Recursive-descent parser for the canonical einsum grammar:

    ``sum := product ('+' product)* ; product := atom ('*' atom)* ;
    atom := NAME '[' indices ']' | NUMBER | '(' sum ')'`` — both
    operators left-associative, mirroring expression-building via the
    overloaded ``+``/``*``.
    """

    def __init__(self, text: str, tensors: Dict[str, TensorVar]):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.tensors = tensors

    @staticmethod
    def _tokenize(text: str) -> List[Tuple[str, str]]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(
                    f"unparseable einsum text at {text[pos:pos + 20]!r}"
                )
            if m.group("access") is not None:
                tokens.append(("access", (m.group("access"), m.group("idx"))))
            elif m.group("num") is not None:
                tokens.append(("num", m.group("num")))
            else:
                tokens.append(("op", m.group("op")))
            pos = m.end()
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        token = self._peek()
        if token is None:
            raise ValueError("unexpected end of einsum text")
        self.pos += 1
        return token

    def parse(self) -> Expr:
        expr = self.sum()
        if self._peek() is not None:
            raise ValueError(f"trailing einsum tokens: {self._peek()!r}")
        return expr

    def sum(self) -> Expr:
        expr = self.product()
        while self._peek() == ("op", "+"):
            self._next()
            expr = Add(expr, self.product())
        return expr

    def product(self) -> Expr:
        expr = self.atom()
        while self._peek() == ("op", "*"):
            self._next()
            expr = Mul(expr, self.atom())
        return expr

    def atom(self) -> Expr:
        kind, value = self._next()
        if kind == "access":
            return self.access(*value)
        if kind == "num":
            return Literal(float(value))
        if (kind, value) == ("op", "("):
            expr = self.sum()
            if self._next() != ("op", ")"):
                raise ValueError("unbalanced parentheses in einsum text")
            return expr
        raise ValueError(f"unexpected einsum token {value!r}")

    def access(self, name: str, idx: str) -> Access:
        tensor = self.tensors.get(name)
        if tensor is None:
            raise ValueError(
                f"einsum names tensor {name!r} but shapes do not"
            )
        indices = [IndexVar(v.strip()) for v in idx.split(",") if v.strip()]
        return Access(tensor, indices)


def assignment_of(
    einsum: str,
    shapes: Dict[str, Tuple[int, ...]],
    dtype: str = "float64",
    accumulate: bool = False,
) -> Assignment:
    """Build a fresh :class:`Assignment` from canonical einsum text.

    Tensors get default (undistributed) formats — exactly what the
    tuner expects, since it derives formats per candidate.
    """
    lhs_text, sep, rhs_text = einsum.partition("=")
    if not sep:
        raise ValueError(f"einsum text has no '=': {einsum!r}")
    tensors = {
        name: TensorVar(name, tuple(int(e) for e in shape), dtype=dtype)
        for name, shape in shapes.items()
    }
    lhs = _Parser(lhs_text, tensors).parse()
    if not isinstance(lhs, Access):
        raise ValueError("einsum left-hand side must be a tensor access")
    rhs = _Parser(rhs_text, tensors).parse()
    return Assignment(lhs, rhs, accumulate=accumulate)


# ----------------------------------------------------------------------
# Machine description.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """Wire-shaped identity of a homogeneous cluster.

    Carries exactly the fields :func:`repro.bench.cache.cluster_signature`
    hashes, so a cluster rebuilt from a spec lands on the same tuning
    ledger namespace as the original.
    """

    nodes: int
    procs_per_node: int
    proc_kind: str  # ProcessorKind value, e.g. "cpu-socket" / "gpu"
    proc_mem_kind: str  # MemoryKind value
    proc_mem_bytes: int
    system_mem_bytes: int

    @staticmethod
    def from_cluster(cluster: Cluster) -> "MachineSpec":
        return MachineSpec(
            nodes=cluster.num_nodes,
            procs_per_node=cluster.procs_per_node,
            proc_kind=cluster.processor_kind.value,
            proc_mem_kind=cluster.proc_mem_kind.value,
            proc_mem_bytes=cluster.proc_mem_capacity,
            system_mem_bytes=cluster.system_mem_capacity,
        )

    def to_cluster(self) -> Cluster:
        return Cluster.build(
            num_nodes=self.nodes,
            procs_per_node=self.procs_per_node,
            proc_kind=ProcessorKind(self.proc_kind),
            proc_mem_kind=MemoryKind(self.proc_mem_kind),
            proc_mem_capacity=self.proc_mem_bytes,
            system_mem_capacity=self.system_mem_bytes,
        )

    def to_record(self) -> Dict:
        return asdict(self)

    @staticmethod
    def from_record(record: Dict) -> "MachineSpec":
        return MachineSpec(**record)

    def anatomy(self) -> Tuple:
        """Everything but the node count — the axis transfer
        warm-starting projects along (:mod:`repro.serve`)."""
        return (
            self.procs_per_node,
            self.proc_kind,
            self.proc_mem_kind,
            self.proc_mem_bytes,
            self.system_mem_bytes,
        )


# ----------------------------------------------------------------------
# The canonical request.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling question: best schedule for (einsum, shapes,
    dtype, machine, objective, seed).

    ``params`` is the *fully explicit* cost-model knob dict (no named
    registry — a record must mean the same thing on every machine that
    ever reads it). Equal requests produce byte-identical answers.
    ``seed`` does not steer the search, which is deterministic; it
    stays in the record and the fingerprint because dropping it would
    re-key every stored answer.
    """

    einsum: str
    shapes: Dict[str, Tuple[int, ...]]
    machine: MachineSpec
    dtype: str = "float64"
    seed: int = 0
    objective: str = "total"
    failure_rate: float = 0.0
    accumulate: bool = False
    params: Dict[str, object] = field(default_factory=dict)

    @staticmethod
    def from_assignment(
        assignment: Assignment,
        cluster: Cluster,
        params: MachineParams = LASSEN,
        seed: int = 0,
        objective: str = "total",
        failure_rate: float = 0.0,
    ) -> "ScheduleRequest":
        return ScheduleRequest(
            einsum=einsum_of(assignment),
            shapes={
                t.name: tuple(t.shape) for t in assignment.tensors()
            },
            machine=MachineSpec.from_cluster(cluster),
            dtype=str(assignment.lhs.tensor.dtype),
            seed=seed,
            objective=objective,
            failure_rate=failure_rate,
            accumulate=assignment.accumulate,
            params=dict(params.__dict__),
        )

    # -- reconstruction -------------------------------------------------

    def assignment(self) -> Assignment:
        return assignment_of(
            self.einsum, self.shapes, self.dtype, self.accumulate
        )

    def cluster(self) -> Cluster:
        return self.machine.to_cluster()

    def machine_params(self) -> MachineParams:
        if not self.params:
            return LASSEN
        return MachineParams(**self.params)

    # -- wire form ------------------------------------------------------

    def to_record(self) -> Dict:
        return {
            "einsum": self.einsum,
            "shapes": {
                name: list(shape) for name, shape in self.shapes.items()
            },
            "machine": self.machine.to_record(),
            "dtype": self.dtype,
            "seed": self.seed,
            "objective": self.objective,
            "failure_rate": self.failure_rate,
            "accumulate": self.accumulate,
            "params": dict(self.params),
        }

    @staticmethod
    def from_record(record: Dict) -> "ScheduleRequest":
        return ScheduleRequest(
            einsum=record["einsum"],
            shapes={
                name: tuple(shape)
                for name, shape in record["shapes"].items()
            },
            machine=MachineSpec.from_record(record["machine"]),
            dtype=record.get("dtype", "float64"),
            seed=int(record.get("seed", 0)),
            objective=record.get("objective", "total"),
            failure_rate=float(record.get("failure_rate", 0.0)),
            accumulate=bool(record.get("accumulate", False)),
            params=dict(record.get("params", {})),
        )

    def fingerprint(self) -> str:
        """Stable content hash — the answer cache and dedup key."""
        return hashlib.sha256(
            canonical_json(self.to_record()).encode()
        ).hexdigest()[:16]

    def structure_key(self) -> str:
        """Identity *minus* shapes and node count: the neighborhood
        transfer warm-starting searches for tuned neighbors in."""
        payload = {
            "einsum": self.einsum,
            "dtype": self.dtype,
            "objective": self.objective,
            "failure_rate": self.failure_rate,
            "accumulate": self.accumulate,
            "anatomy": list(self.machine.anatomy()),
            "params": dict(self.params),
        }
        return hashlib.sha256(
            canonical_json(payload).encode()
        ).hexdigest()[:16]


# ----------------------------------------------------------------------
# The canonical answer.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleAnswer:
    """One scheduling answer: decision vector, realized formats,
    priced cost, provenance.

    :meth:`canonical_record` is the provenance-free payload — a ledger
    hit and a fresh tune of the same request must agree on it
    byte-for-byte; provenance (``hit`` / ``tuned`` / ``warm-started``)
    and the evaluation count legitimately differ between the two and
    ride only in :meth:`to_record`.
    """

    decision: str  # Decision.encode() of the winner
    formats: Dict[str, Tuple[str, str]]  # name -> (notation, memory)
    cost: float
    comm_time: float
    compute_time: float
    inter_node_bytes: float
    max_memory_bytes: float
    num_steps: int
    feasible: bool
    provenance: str = TUNED
    evaluations: int = 0
    request_fingerprint: str = ""

    @staticmethod
    def from_result(
        request: ScheduleRequest,
        result,
        provenance: str = TUNED,
    ) -> "ScheduleAnswer":
        """Build the canonical answer from a
        :class:`~repro.tuner.search.TuneResult`."""
        best = result.search.best
        return ScheduleAnswer(
            decision=best.decision.encode(),
            formats={
                name: (fmt.notation(), fmt.memory.value)
                for name, fmt in sorted(result.formats.items())
            },
            cost=best.cost if best.feasible else float("inf"),
            comm_time=best.comm_time,
            compute_time=best.compute_time,
            inter_node_bytes=best.inter_node_bytes,
            max_memory_bytes=best.max_memory_bytes,
            num_steps=best.num_steps,
            feasible=best.feasible,
            provenance=provenance,
            evaluations=result.search.evaluations,
            request_fingerprint=request.fingerprint(),
        )

    def canonical_record(self) -> Dict:
        """The provenance-free payload (byte-compared by the smoke
        tests: ledger hits must equal offline ``Kernel.tune``)."""
        return {
            "decision": self.decision,
            "formats": {
                name: list(pair) for name, pair in self.formats.items()
            },
            "cost": self.cost if self.feasible else "infeasible",
            "comm_time": self.comm_time,
            "compute_time": self.compute_time,
            "inter_node_bytes": self.inter_node_bytes,
            "max_memory_bytes": self.max_memory_bytes,
            "num_steps": self.num_steps,
        }

    def to_record(self) -> Dict:
        record = self.canonical_record()
        record["provenance"] = self.provenance
        record["evaluations"] = self.evaluations
        record["request_fingerprint"] = self.request_fingerprint
        return record

    @staticmethod
    def from_record(record: Dict) -> "ScheduleAnswer":
        cost = record["cost"]
        feasible = cost != "infeasible"
        return ScheduleAnswer(
            decision=record["decision"],
            formats={
                name: tuple(pair)
                for name, pair in record["formats"].items()
            },
            cost=float(cost) if feasible else float("inf"),
            comm_time=record.get("comm_time", 0.0),
            compute_time=record.get("compute_time", 0.0),
            inter_node_bytes=record.get("inter_node_bytes", 0.0),
            max_memory_bytes=record.get("max_memory_bytes", 0.0),
            num_steps=int(record.get("num_steps", 0)),
            feasible=feasible,
            provenance=record.get("provenance", TUNED),
            evaluations=int(record.get("evaluations", 0)),
            request_fingerprint=record.get("request_fingerprint", ""),
        )


# ----------------------------------------------------------------------
# The one engine behind every surface.
# ----------------------------------------------------------------------

def tune_request(
    request: ScheduleRequest,
    assignment: Optional[Assignment] = None,
    cluster: Optional[Cluster] = None,
    warm_start=None,
    params: Optional[MachineParams] = None,
    **options,
):
    """Answer a request with the tuner; the single engine behind
    ``Kernel.tune``, the daemon, and the CLI.

    ``assignment``/``cluster``/``params`` may be passed to avoid a
    rebuild when the caller already holds them (``Kernel.tune``); the
    daemon reconstructs them from the record. The request supplies
    ``objective`` and ``failure_rate``; remaining keywords
    forward to :func:`repro.tuner.search.tune` (``jobs``,
    ``strategy``, ``ledger``, ...). ``warm_start`` (a decoded
    :class:`~repro.tuner.space.Decision` from a tuned neighbor)
    switches provenance to ``warm-started`` when combined with
    ``strategy="warm"``.

    Returns the :class:`~repro.tuner.search.TuneResult` with its
    ``answer`` field set to the canonical :class:`ScheduleAnswer`.
    """
    from repro.tuner.search import tune as tuner_tune

    if assignment is None:
        assignment = request.assignment()
    if cluster is None:
        cluster = request.cluster()
    if params is None:
        params = request.machine_params()
    result = tuner_tune(
        assignment,
        cluster,
        params,
        objective=request.objective,
        failure_rate=request.failure_rate,
        warm_start=warm_start,
        **options,
    )
    provenance = (
        WARM_STARTED
        if warm_start is not None and options.get("strategy") == "warm"
        else TUNED
    )
    result.answer = ScheduleAnswer.from_result(request, result, provenance)
    return result
