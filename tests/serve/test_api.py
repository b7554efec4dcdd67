"""The unified scheduling API: one request/answer pair everywhere.

``repro.api`` is the contract the in-process ``Kernel.tune`` path, the
wire protocol, and the ledger all share: the einsum text round-trips
to the exact expression tree, the request record round-trips to the
same fingerprint, and equal requests produce byte-identical canonical
answers no matter which entry point tuned them.
"""

import json
import math

import pytest

from repro.api import (
    MachineSpec,
    ScheduleAnswer,
    ScheduleRequest,
    assignment_of,
    canonical_json,
    einsum_of,
    tune_request,
)
from repro.ir.expr import index_vars
from repro.ir.tensor import Assignment, TensorVar
from repro.machine.cluster import Cluster
from repro.tuner.workloads import WORKLOADS, sized


#: Expressions with ``Add`` and ``Literal`` nodes, which no named
#: workload has, by their canonical einsum text.
EXPRESSIONS = (
    "A[i,j]=B[i,k]*C[k,j]+D[i,j]",
    "A[i,j]=B[i,j]*(C[i,j]+D[i,j])",
    "A[i,j]=2.0*B[i,k]*C[k,j]",
    "A[i,j]=B[i,j]+(C[i,j]+D[i,j])",
)


def _build(name):
    if name in WORKLOADS:
        return sized(name, 64)
    A, B, C, D = (TensorVar(t, (64, 64)) for t in "ABCD")
    i, j, k = index_vars("i j k")
    rhs = {
        EXPRESSIONS[0]: B[i, k] * C[k, j] + D[i, j],
        EXPRESSIONS[1]: B[i, j] * (C[i, j] + D[i, j]),
        EXPRESSIONS[2]: 2.0 * B[i, k] * C[k, j],
        EXPRESSIONS[3]: B[i, j] + (C[i, j] + D[i, j]),
    }[name]
    return Assignment(A[i, j], rhs)


class TestEinsumRoundTrip:
    @pytest.mark.parametrize("name", sorted(WORKLOADS) + list(EXPRESSIONS))
    def test_round_trip_is_exact(self, name):
        assignment = _build(name)
        text = einsum_of(assignment)
        if name in EXPRESSIONS:
            assert text == name
        shapes = {t.name: list(t.shape) for t in assignment.tensors()}
        rebuilt = assignment_of(
            text, shapes, accumulate=assignment.accumulate
        )
        # repr equality means the identical expression tree: same
        # operator associativity, same index-variable names.
        assert repr(rebuilt) == repr(assignment)
        assert einsum_of(rebuilt) == text
        # Every expression is a canonical request: its record
        # round-trips to the same fingerprint.
        request = ScheduleRequest.from_assignment(
            assignment, Cluster.cpu_cluster(2)
        )
        assert request.einsum == text
        again = ScheduleRequest.from_record(
            json.loads(json.dumps(request.to_record()))
        )
        assert repr(again.assignment()) == repr(assignment)
        assert again.fingerprint() == request.fingerprint()

    def test_matmul_text(self):
        assert einsum_of(sized("matmul", 64)) == "A[i,j]=B[i,k]*C[k,j]"


class TestRequestRecord:
    def test_record_round_trip_preserves_fingerprint(self):
        request = ScheduleRequest.from_assignment(
            sized("mttkrp", 64), Cluster.cpu_cluster(2)
        )
        rebuilt = ScheduleRequest.from_record(
            json.loads(json.dumps(request.to_record()))
        )
        assert rebuilt.fingerprint() == request.fingerprint()
        assert rebuilt.structure_key() == request.structure_key()

    def test_fingerprint_depends_on_options(self):
        base = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(1)
        )
        reseeded = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(1), seed=7
        )
        bigger = ScheduleRequest.from_assignment(
            sized("matmul", 128), Cluster.cpu_cluster(1)
        )
        assert base.fingerprint() != reseeded.fingerprint()
        assert base.fingerprint() != bigger.fingerprint()
        # Shapes are not part of the structure key: the 128 problem is
        # the 64 problem's warm-transfer neighbor.
        assert base.structure_key() == bigger.structure_key()

    def test_machine_spec_round_trips_cluster(self):
        for cluster in (Cluster.cpu_cluster(4), Cluster.gpu_cluster(2)):
            spec = MachineSpec.from_cluster(cluster)
            again = spec.to_cluster()
            assert MachineSpec.from_cluster(again) == spec
            assert again.num_processors == cluster.num_processors

    @pytest.mark.parametrize("field", ["proc_mem_bytes", "system_mem_bytes"])
    def test_non_positive_memory_is_refused(self, field):
        record = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(4)
        ).to_record()
        record["machine"][field] = -1
        request = ScheduleRequest.from_record(record)
        with pytest.raises(ValueError, match="capacities must be positive"):
            tune_request(request)


    @pytest.mark.parametrize("rate", [-1.0, 2.0, math.nan])
    def test_failure_rate_outside_unit_interval_is_refused(self, rate):
        request = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(2),
            objective="expected", failure_rate=rate,
        )
        with pytest.raises(ValueError, match="failure_rate must lie"):
            tune_request(request)

    @pytest.mark.parametrize("value", [0.0, -25e9, math.inf])
    def test_invalid_machine_params_are_refused(self, value):
        record = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(2)
        ).to_record()
        record["params"]["nic_bw"] = value
        request = ScheduleRequest.from_record(record)
        with pytest.raises(ValueError, match="nic_bw must be"):
            tune_request(request)

    def test_shape_of_unused_tensor_is_refused(self):
        record = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(2)
        ).to_record()
        record["shapes"]["Z"] = [3]
        request = ScheduleRequest.from_record(record)
        with pytest.raises(ValueError, match=r"does not use: \['Z'\]"):
            tune_request(request)
        with pytest.raises(ValueError, match="'Z'"):
            assignment_of(
                "A[i,j]=B[i,k]*C[k,j]",
                {"A": [4, 4], "B": [4, 4], "C": [4, 4], "Z": [3]},
            )


class TestTuneRequest:
    def test_equal_requests_tune_byte_identically(self):
        request = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(1)
        )
        answers = [
            canonical_json(tune_request(request).answer.canonical_record())
            for _ in range(2)
        ]
        assert answers[0] == answers[1]

    def test_kernel_tune_answer_matches_api_path(self):
        from repro.core.kernel import Kernel

        cluster = Cluster.cpu_cluster(1)
        assignment = sized("matmul", 64)
        request = ScheduleRequest.from_assignment(assignment, cluster)
        via_api = tune_request(request)
        via_kernel = Kernel.tune(assignment, cluster)
        assert via_kernel.answer is not None
        assert canonical_json(
            via_kernel.answer.canonical_record()
        ) == canonical_json(via_api.answer.canonical_record())
        assert (
            via_kernel.answer.request_fingerprint
            == request.fingerprint()
        )

    def test_answer_record_round_trips(self):
        request = ScheduleRequest.from_assignment(
            sized("matmul", 64), Cluster.cpu_cluster(1)
        )
        answer = tune_request(request).answer
        rebuilt = ScheduleAnswer.from_record(
            json.loads(json.dumps(answer.to_record()))
        )
        assert rebuilt.canonical_record() == answer.canonical_record()
        assert rebuilt.provenance == answer.provenance

    def test_warm_strategy_simulates_fewer_candidates(self):
        request = ScheduleRequest.from_assignment(
            sized("matmul", 128), Cluster.cpu_cluster(2)
        )
        cold = tune_request(request)
        warm = tune_request(
            request,
            warm_start=cold.search.best.decision,
            strategy="warm",
        )
        assert warm.search.evaluations < cold.search.evaluations
        assert warm.answer.provenance == "warm-started"
        assert warm.answer.feasible
