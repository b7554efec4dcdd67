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

The tuner's cost oracle (:mod:`repro.tuner.oracle`) scores every
candidate through :meth:`SimulationCache.simulate` as well, so this is
the one kernel-simulation memo in the process: its ``hits``/``misses`` count
figure sweeps and tuning searches alike.

Baseline models (ScaLAPACK, CTF, reference COSMA) build traces from
closed-form formulas rather than kernels; :func:`cached_baseline`
memoizes those in the same store, keyed ``("baseline", function,
cluster signature, arguments)``, without counting hits or misses.
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
        """``kernel.simulate(params, check_capacity, mode)``, memoized.
        ``hits``/``misses`` count these kernel lookups only."""
        key = self._key(kernel, params, check_capacity, mode)
        if key in self._store:
            self.hits += 1
        else:
            self.misses += 1
        return self.memoized(
            key, kernel.simulate, params,
            check_capacity=check_capacity, mode=mode,
        )

    def memoized(
        self, key: Tuple, compute: Callable[..., SimReport], *args,
        **kwargs,
    ) -> SimReport:
        """``compute(*args, **kwargs)``, memoized under ``key``; an OOM
        outcome is stored and re-raised on every later lookup."""
        hit = self._store.get(key)
        if hit is not None:
            outcome, payload = hit
            if outcome == "oom":
                raise OutOfMemoryError(*payload)
            return payload
        try:
            report = compute(*args, **kwargs)
        except OutOfMemoryError as err:
            self._store[key] = ("oom", (
                err.memory_name, err.needed_bytes, err.capacity_bytes
            ))
            raise
        self._store[key] = ("ok", report)
        return report

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


def cached_baseline(
    fn: Callable[..., SimReport], cluster: Cluster, *args, **kwargs
) -> SimReport:
    """Memoized call of a closed-form baseline model.

    Baselines are deterministic in ``(cluster, arguments)``; they are
    keys of :data:`SIM_CACHE`'s one store (OOM outcomes included), so
    forked sweep points ship them back with the kernel simulations.
    """
    key = (
        "baseline",
        fn.__module__,
        fn.__qualname__,
        cluster_signature(cluster),
        args,
        tuple(sorted(kwargs.items())),
    )
    return SIM_CACHE.memoized(key, fn, cluster, *args, **kwargs)
