"""The trace sanitizer: zero findings across the parity-suite kernels,
and one positive test per rule on deliberately corrupted traces."""

import dataclasses

import pytest

from repro import Format, Grid, Machine, TensorVar
from repro.algorithms.higher_order import innerprod, mttkrp
from repro.algorithms.matmul import cannon, cosma, solomonik, summa
from repro.analysis import sanitize_trace
from repro.core.transfer import transfer_kernel
from repro.machine.cluster import Cluster, MemoryKind, ProcessorKind


def m44():
    return Machine(Cluster.cpu_cluster(8), Grid(4, 4))


def m222():
    return Machine(Cluster.cpu_cluster(4), Grid(2, 2, 2))


PARITY_KERNELS = [
    ("solomonik", lambda: solomonik(m222(), 256)),
    ("solomonik-prime", lambda: solomonik(m222(), 101)),
    ("mttkrp", lambda: mttkrp(m222(), 64, r=16)),
    ("innerprod", lambda: innerprod(m44(), 64)),
    ("cosma", lambda: cosma(Cluster.cpu_cluster(8), 256)),
    ("cannon", lambda: cannon(m44(), 256)),
    ("cannon-prime", lambda: cannon(m44(), 257)),
    ("summa", lambda: summa(m44(), 256)),
    (
        "transfer",
        lambda: transfer_kernel(
            TensorVar("S", (128, 128), Format("xy -> xy")),
            Format("xy -> x*"),
            Machine(Cluster.cpu_cluster(8), Grid(4, 4)),
        ),
    ),
]


class TestCleanTraces:
    @pytest.mark.parametrize(
        "build", [b for _, b in PARITY_KERNELS],
        ids=[n for n, _ in PARITY_KERNELS],
    )
    def test_zero_findings_batched(self, build):
        kernel = build()
        result = kernel.trace(check_capacity=False, mode="batched")
        assert sanitize_trace(kernel.plan, result.trace) == []

    @pytest.mark.parametrize(
        "build", [b for _, b in PARITY_KERNELS],
        ids=[n for n, _ in PARITY_KERNELS],
    )
    def test_sanitize_mode_passes(self, build):
        # The opt-in sanitizer route: ``Kernel.analyze`` replays one full
        # symbolic trace through the sanitizer and reports it clean.
        assert build().analyze().findings == []


def clean_trace(kernel):
    return kernel.trace(check_capacity=False, mode="batched").trace


def step_with_copies(trace):
    for step in trace.steps:
        if step.copies:
            return step
    raise AssertionError("trace has no copies")


class TestCorruptedTraces:
    def test_unknown_tensor(self):
        kernel = cannon(m44(), 256)
        trace = clean_trace(kernel)
        step = step_with_copies(trace)
        step.copies[0] = dataclasses.replace(step.copies[0], tensor="Z")
        findings = sanitize_trace(kernel.plan, trace)
        assert any(f.rule == "unknown-tensor" for f in findings)

    def test_stale_source(self):
        kernel = cannon(m44(), 256)
        trace = clean_trace(kernel)
        # Rotate a mid-trace fetch to read from a processor that never
        # owned nor received the rectangle.
        procs = kernel.machine.cluster.processors
        corrupted = None
        for step in trace.steps:
            for idx, copy in enumerate(step.copies):
                if copy.reduce:
                    continue
                src = copy.src_proc
                other = next(
                    p for p in procs
                    if p.proc_id not in (src.proc_id, copy.dst_proc.proc_id)
                )
                step.copies[idx] = dataclasses.replace(
                    copy, src_proc=other, src_coords=(),
                )
                corrupted = step.copies[idx]
                break
            if corrupted is not None:
                break
        assert corrupted is not None
        findings = sanitize_trace(kernel.plan, trace)
        assert any(f.rule == "stale-source" for f in findings)

    def test_write_write_race(self):
        kernel = cannon(m44(), 256)
        trace = clean_trace(kernel)
        step = next(
            s for s in trace.steps
            if any(not c.reduce for c in s.copies)
        )
        copy = next(c for c in step.copies if not c.reduce)
        procs = kernel.machine.cluster.processors
        other = next(
            p for p in procs
            if p.proc_id not in (copy.src_proc.proc_id,
                                 copy.dst_proc.proc_id)
        )
        # A second overlapping write to the same destination from a
        # different source in the same phase.
        step.copies.append(dataclasses.replace(
            copy, src_proc=other, src_coords=(),
        ))
        findings = sanitize_trace(kernel.plan, trace)
        assert any(f.rule == "write-write-race" for f in findings)

    def test_reduction_to_non_owner(self):
        kernel = solomonik(m222(), 256)
        trace = clean_trace(kernel)
        corrupted = False
        for step in trace.steps:
            for idx, copy in enumerate(step.copies):
                if not copy.reduce:
                    continue
                procs = kernel.machine.cluster.processors
                other = next(
                    p for p in procs
                    if p.proc_id != copy.dst_proc.proc_id
                )
                step.copies[idx] = dataclasses.replace(
                    copy, dst_proc=other, dst_coords=(),
                )
                corrupted = True
                break
            if corrupted:
                break
        assert corrupted
        findings = sanitize_trace(kernel.plan, trace)
        assert any(f.rule == "reduction-order" for f in findings)

    def test_overwrite_and_reduce_in_one_phase(self):
        kernel = solomonik(m222(), 256)
        trace = clean_trace(kernel)
        step = next(
            s for s in trace.steps if any(c.reduce for c in s.copies)
        )
        copy = next(c for c in step.copies if c.reduce)
        # The same rect both reduced into and overwritten at one
        # destination within one phase.
        step.copies.append(dataclasses.replace(copy, reduce=False))
        findings = sanitize_trace(kernel.plan, trace)
        assert any(f.rule == "reduction-order" for f in findings)


class TestKernelAnalyze:
    def test_cannon_is_clean_and_certified(self):
        """``Kernel.analyze`` end to end: a Cannon whose nodes hold
        only 64 KiB, so the communication lower bound is not vacuous."""
        cluster = Cluster.build(
            num_nodes=64,
            procs_per_node=1,
            proc_kind=ProcessorKind.CPU_SOCKET,
            proc_mem_kind=MemoryKind.SYSTEM_MEM,
            proc_mem_capacity=64 * 1024,
            system_mem_capacity=64 * 1024,
        )
        kernel = cannon(Machine(cluster, Grid(8, 8)), 256)
        report = kernel.analyze()
        assert report.clean
        assert report.comm_certificate >= 1
        assert report.memory_high_water == (
            kernel.trace(mode="batched").memory_high_water
        )
