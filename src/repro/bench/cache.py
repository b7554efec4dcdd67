"""Keyed plan/trace cache for benchmark sweeps.

The paper's figures re-simulate the same configurations over and over:
``headline_speedups`` re-runs Figure 15a's top node count, every figure
shares baselines across sweeps, and the benchmark suite executes several
figures in one process. Symbolic execution is deterministic — a kernel's
:class:`~repro.sim.report.SimReport` is a pure function of the plan, the
machine, and the cost-model parameters — so results are memoized under a
structural key:

``(kernel fingerprint, machine shape, cluster signature, tensor sizes,
params, check_capacity, executor mode)``

The :class:`~repro.sim.params.MachineParams` and the executor mode
(orbit / batched / scalar) are part of the key, so parameter sweeps and
mode toggles can never alias to stale entries. Cache contents are
picklable and exportable (:meth:`SimulationCache.export` /
:meth:`SimulationCache.install`), which is how the process-parallel
sweep driver (:mod:`repro.bench.parallel`) shares one logical cache
across workers.

where the *kernel fingerprint* is the plan's printed form (loop
structure, extents, communication points, leaf kernels — i.e. the
schedule) plus every tensor's shape/dtype/format. Out-of-memory
outcomes are cached too: a configuration that OOMs re-raises
:class:`~repro.util.errors.OutOfMemoryError` on every hit, so OOM rows
in a sweep are as cheap as successful ones.

Baseline models (ScaLAPACK, CTF, reference COSMA) build traces from
closed-form formulas rather than kernels; :func:`cached_baseline`
memoizes those per ``(function, cluster signature, arguments)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.machine.cluster import Cluster
from repro.sim.params import LASSEN, MachineParams
from repro.sim.report import SimReport
from repro.util.errors import OutOfMemoryError


def cluster_signature(cluster: Cluster) -> Tuple:
    """Structural identity of a cluster (homogeneous by construction)."""
    return (
        cluster.num_nodes,
        cluster.procs_per_node,
        cluster.processor_kind.value,
        cluster.proc_mem_kind.value,
        cluster.proc_mem_capacity,
        cluster.system_mem_capacity,
    )


def kernel_fingerprint(kernel) -> Tuple:
    """Structural identity of a compiled kernel.

    The plan's pretty-printed form pins the schedule (loop nest, launch
    dims, communication points, substituted leaf kernels, extents); the
    tensor table pins sizes, dtypes, and data distributions; the machine
    shape and cluster signature pin the placement.
    """
    plan = kernel.plan
    tensors = tuple(
        (
            name,
            t.shape,
            str(t.dtype),
            t.format.notation(),
            t.format.memory.value,
        )
        for name, t in sorted(plan.tensors.items())
    )
    return (
        plan.pretty(),
        plan.machine.shape,
        cluster_signature(plan.machine.cluster),
        tensors,
    )


def params_key(params: MachineParams) -> Tuple:
    return tuple(sorted(params.__dict__.items()))


class SimulationCache:
    """Memoizes ``Kernel.simulate`` results (including OOM outcomes)."""

    def __init__(self):
        self._store: Dict[Tuple, Tuple[str, object]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(kernel, params: MachineParams, check_capacity: bool,
             mode: str) -> Tuple:
        return (
            kernel_fingerprint(kernel),
            params_key(params),
            check_capacity,
            mode,
        )

    def simulate(
        self,
        kernel,
        params: MachineParams = LASSEN,
        check_capacity: bool = True,
        mode: str = "orbit",
    ) -> SimReport:
        """``kernel.simulate(params, check_capacity, mode)``, memoized."""
        key = self._key(kernel, params, check_capacity, mode)
        hit = self._store.get(key)
        if hit is not None:
            self.hits += 1
            outcome, payload = hit
            if outcome == "oom":
                raise OutOfMemoryError(*payload)
            return payload
        self.misses += 1
        try:
            report = kernel.simulate(
                params, check_capacity=check_capacity, mode=mode
            )
        except OutOfMemoryError as err:
            self._store[key] = ("oom", _oom_args(err))
            raise
        self._store[key] = ("ok", report)
        return report

    def cached(self, kernel, params: MachineParams, check_capacity: bool,
               mode: str):
        """The stored outcome for a configuration, or ``None``.

        Returns ``("ok", report)`` / ``("oom", args)`` without touching
        the hit counters; used by the tuner's incremental oracle, which
        layers a phase-structure store on top of this cache.
        """
        return self._store.get(
            self._key(kernel, params, check_capacity, mode)
        )

    def put(self, kernel, params: MachineParams, check_capacity: bool,
            mode: str, outcome: Tuple[str, object]):
        """Install an externally computed outcome for a configuration."""
        self._store[
            self._key(kernel, params, check_capacity, mode)
        ] = outcome

    def clear(self):
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def key_set(self):
        return set(self._store)

    def export(self, exclude=None) -> Dict[Tuple, Tuple[str, object]]:
        """Entries (optionally minus ``exclude`` keys), picklable."""
        if not exclude:
            return dict(self._store)
        return {k: v for k, v in self._store.items() if k not in exclude}

    def install(self, entries: Dict[Tuple, Tuple[str, object]]):
        """Merge entries exported by another process."""
        self._store.update(entries)


#: Process-global cache used by the figure generators and benchmarks.
SIM_CACHE = SimulationCache()

_BASELINE_STORE: Dict[Tuple, Tuple[str, object]] = {}


def cached_baseline(
    fn: Callable[..., SimReport], cluster: Cluster, *args, **kwargs
) -> SimReport:
    """Memoized call of a closed-form baseline model.

    Baselines are deterministic in ``(cluster, arguments)``; OOM
    outcomes are cached and re-raised like :class:`SimulationCache`.
    """
    key = (
        fn.__module__,
        fn.__qualname__,
        cluster_signature(cluster),
        args,
        tuple(sorted(kwargs.items())),
    )
    hit = _BASELINE_STORE.get(key)
    if hit is not None:
        outcome, payload = hit
        if outcome == "oom":
            raise OutOfMemoryError(*payload)
        return payload
    try:
        report = fn(cluster, *args, **kwargs)
    except OutOfMemoryError as err:
        _BASELINE_STORE[key] = ("oom", _oom_args(err))
        raise
    _BASELINE_STORE[key] = ("ok", report)
    return report


def _oom_args(err: OutOfMemoryError) -> Tuple:
    return (err.memory_name, err.needed_bytes, err.capacity_bytes)


def baseline_key_set():
    return set(_BASELINE_STORE)


def export_baselines(exclude=None) -> Dict[Tuple, Tuple[str, object]]:
    """Baseline-store entries (optionally minus ``exclude``), picklable."""
    if not exclude:
        return dict(_BASELINE_STORE)
    return {k: v for k, v in _BASELINE_STORE.items() if k not in exclude}


def install_baselines(entries: Dict[Tuple, Tuple[str, object]]):
    """Merge baseline entries exported by another process."""
    _BASELINE_STORE.update(entries)
