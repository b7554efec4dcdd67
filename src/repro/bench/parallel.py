"""The one process supervisor: sweeps, the tuning oracle and the daemon.

Weak-scaling sweeps are embarrassingly parallel across node counts —
each point compiles and simulates its own kernels — but the paper's
figure tables must come back in axis order, and the keyed plan/trace
cache (:mod:`repro.bench.cache`) should stay warm across the whole
benchmark session. Every dispatcher (figure sweeps, ``Oracle(jobs>1)``
through :func:`run_points`, the serving daemon through
:func:`repro.serve.supervise.run_supervised`) runs on one supervised
primitive, the :class:`WorkerSlot`:

* one persistent supervised ``fork``-start child per dispatcher slot,
  replaced after a crash, runs points back to back over a duplex pipe,
  so it inherits the parent's warm cache and keeps the skeletons and
  plans it builds for its later points;
* every point ships back its rows *plus* the cache entries it added
  (both the simulation cache and the closed-form baseline store) and
  its observability deltas (metric counters, wall-clock spans), which
  :func:`install_envelope` merges into the parent's process-global
  state, so a figure computed with ``--jobs 8`` leaves the same cache
  state behind as a sequential run;
* a child that dies mid-point (SIGKILL, OOM killer, segfault) is pipe
  EOF — a detected ``("crash", detail)`` outcome for that point, never
  a hang — and the slot forks a fresh child for its next point.

On platforms without ``fork`` (or with ``jobs <= 1``) sweeps simply run
sequentially in-process.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import threading
import traceback
from typing import Callable, Dict, Hashable, Iterable, Iterator, List
from typing import Sequence, Tuple

from repro.bench.cache import (
    SIM_CACHE,
    baseline_key_set,
    export_baselines,
    install_baselines,
)
from repro.obs.metrics import METRICS
from repro.obs.spans import export_spans, install_spans, span_mark

#: Resolved lazily per worker; maps registered sweep names to callables.
_SWEEPS: Dict[str, Callable] = {}

#: Serializes the parent-side cache/metrics merge (and the sequential
#: fallback, which mutates the globals directly). The serving daemon
#: runs supervised tunes on executor threads while its event loop keeps
#: answering hits on the main thread; without this, two concurrent
#: dispatchers could interleave their installs. Re-entrant so
#: :func:`run_points` can hold it across its whole install loop.
_DISPATCH_LOCK = threading.RLock()

#: Held from pipe creation until the parent closes the child's end: a
#: child forked concurrently by another thread would otherwise inherit
#: that end and keep the pipe open past the real child's death, turning
#: its EOF (the crash signal) into a wait.
_FORK_LOCK = threading.Lock()


def register_sweep(name: str, fn: Callable):
    """Make a sweep callable addressable by name (picklable dispatch)."""
    _SWEEPS[name] = fn


def _resolve(name: str) -> Callable:
    fn = _SWEEPS.get(name)
    if fn is not None:
        return fn
    # Import lazily so workers resolve the callable after the fork.
    from repro.bench import figures, weak_scaling
    from repro.tuner import oracle as tuner_oracle

    from repro.serve import worker as serve_worker

    for module in (figures, weak_scaling, tuner_oracle, serve_worker):
        fn = getattr(module, name, None)
        if fn is not None:
            return fn
    raise ValueError(f"unknown sweep {name!r}")


def _run_point(payload):
    """One point in a child; never raises.

    Exceptions are shipped back as ``("err", traceback text)`` instead
    of propagating, so the child survives for its next point and the
    parent decides what to do (retry in-process, then surface the
    original worker traceback).
    """
    name, kwargs = payload
    sim_before = SIM_CACHE.key_set()
    base_before = baseline_key_set()
    metrics_before = METRICS.export()
    mark = span_mark()
    try:
        rows = _resolve(name)(**kwargs)
    except Exception:
        return ("err", traceback.format_exc())
    # The observability deltas ride the same envelope as the cache
    # deltas: a forked child inherited the parent's counters and span
    # list, so only what accumulated during this point ships back.
    return ("ok", (
        rows,
        SIM_CACHE.export(exclude=sim_before),
        export_baselines(exclude=base_before),
        METRICS.delta(metrics_before),
        export_spans(since=mark),
    ))


def _child_main(conn, parent_end):
    """A slot child: run each point the parent sends until told to stop."""
    global _DISPATCH_LOCK, _FORK_LOCK
    # The fork may land while a parent thread holds either lock; the
    # child would inherit it held by a thread that does not exist here,
    # and its own run_points would deadlock. Locks don't survive forks.
    _DISPATCH_LOCK = threading.RLock()
    _FORK_LOCK = threading.Lock()
    # Only the parent may hold this end, so the child sees EOF (and
    # exits) once the parent is gone.
    parent_end.close()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        conn.send(_run_point(task))


def _spawn():
    ctx = multiprocessing.get_context("fork")
    with _FORK_LOCK:
        conn, child_end = ctx.Pipe()
        proc = ctx.Process(
            target=_child_main, args=(child_end, conn), daemon=True
        )
        proc.start()
        child_end.close()  # EOF on ``conn`` now tracks the child alone
    return proc, conn


class WorkerSlot:
    """One dispatcher slot: a persistent child that runs points back to
    back, forked on first use and replaced after a crash.

    :meth:`run` returns ``("ok", envelope)`` (see :func:`_run_point`;
    pass it to :func:`install_envelope`), ``("err", traceback)`` for an
    exception the child caught itself, or ``("crash", detail)`` when
    the child died without delivering; the next :meth:`run` then forks
    a replacement. ``spawns`` counts the children forked. Without
    ``fork`` the points run in-process.

    :meth:`close` may come from another thread while a point runs:
    the slot is then closed by that point's :meth:`run` when it
    returns, and a closed slot never forks again.
    """

    def __init__(self):
        self.spawns = 0
        self._child = None
        self._state = threading.Lock()
        self._busy = False
        self._closed = False

    @property
    def pid(self):
        """The live child's pid, or ``None`` before the first fork and
        after a crash or :meth:`close`."""
        child = self._child
        return child[0].pid if child is not None else None

    def run(self, task: Tuple[str, dict]) -> Tuple[str, object]:
        with self._state:
            if self._closed:
                raise RuntimeError("the worker slot is closed")
            self._busy = True
        try:
            return self._run(task)
        finally:
            with self._state:
                self._busy = False
                closing = self._closed
            if closing:
                self._shutdown(join=True)

    def _run(self, task):
        if not _fork_available():
            try:
                return _run_point_strict(task)
            except Exception:
                return ("err", traceback.format_exc())
        if self._child is None:
            self._child = _spawn()
            self.spawns += 1
        proc, conn = self._child
        try:
            conn.send(task)
            return conn.recv()
        except (EOFError, OSError):
            conn.close()
            proc.join()
            self._child = None
            return (
                "crash",
                f"worker pid={proc.pid} died without delivering "
                f"(exitcode={proc.exitcode})",
            )

    def close(self, join: bool = True):
        """Stop the child (joined unless ``join=False``); the slot never
        forks again. A busy slot is closed when its point returns."""
        with self._state:
            self._closed = True
            if self._busy:
                return
        self._shutdown(join)

    def _shutdown(self, join: bool):
        if self._child is None:
            return
        proc, conn = self._child
        self._child = None
        # The idle child exits on this sentinel.
        try:
            conn.send(None)
        except OSError:
            pass
        conn.close()
        if join:
            proc.join()


def run_forked(
    tasks: Iterable[Tuple[Hashable, Tuple[str, dict]]],
) -> Iterator[Tuple[Hashable, Tuple[str, object]]]:
    """Run ``(key, (name, kwargs))`` points back to back on one
    :class:`WorkerSlot`.

    Yields ``(key, outcome)`` as each point lands (outcomes as
    :meth:`WorkerSlot.run`). The next point is drawn from ``tasks``
    only when the child is free, so slots sharing one queue balance
    load dynamically.
    """
    slot = WorkerSlot()
    try:
        for key, task in tasks:
            yield key, slot.run(task)
    finally:
        # Not joined: the child's teardown (~2 ms) would add to every
        # sweep, and multiprocessing reaps it at the next fork or at
        # exit.
        slot.close(join=False)


def install_envelope(envelope):
    """Merge a point's envelope into this process's global caches,
    metrics and spans; returns the point's rows."""
    rows, sim_delta, base_delta, metrics_delta, spans = envelope
    with _DISPATCH_LOCK:
        SIM_CACHE.install(sim_delta)
        install_baselines(base_delta)
        METRICS.install(metrics_delta)
        install_spans(spans)
    return rows


def run_points(
    name: str,
    per_point_kwargs: Sequence[dict],
    jobs: int,
    costs: Sequence[float] = None,
) -> List:
    """Run one sweep function over many kwargs sets, possibly in parallel.

    Returns the concatenated row lists in input order. With ``jobs > 1``
    the points run in ``jobs`` slots — a dispatcher thread each, driving
    one :func:`run_forked` child — that pull from one shared queue; the
    envelopes are installed in input order once every slot is done.

    ``costs`` (optional, one per point) orders the queue: expensive
    points start first, one point per pull, so a sweep's largest
    configurations never serialize behind each other in one slot while
    the others sit idle. Row order is unaffected.
    """
    tasks = [(name, kwargs) for kwargs in per_point_kwargs]
    # More slots than cores just adds fork and scheduling overhead —
    # single-core runners (CI containers) degrade to a clean sequential
    # pass instead of time-slicing forks.
    jobs = max(1, min(jobs, len(tasks), os.cpu_count() or 1))
    if jobs <= 1 or not _fork_available():
        with _DISPATCH_LOCK:
            rows: List = []
            for task in tasks:
                rows.extend(_resolve(name)(**task[1]))
            return rows
    order = list(range(len(tasks)))
    if costs is not None:
        order.sort(key=lambda i: -costs[i])
    queue = collections.deque(order)
    results: List = [None] * len(tasks)

    def pull():
        while True:
            try:
                index = queue.popleft()
            except IndexError:
                return
            yield index, tasks[index]

    errors: List[Exception] = []

    def slot():
        try:
            for index, outcome in run_forked(pull()):
                results[index] = outcome
        except Exception as err:  # re-raised on the calling thread
            errors.append(err)

    threads = [
        threading.Thread(target=slot, daemon=True) for _ in range(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    rows = []
    with _DISPATCH_LOCK:
        for task, (status, result) in zip(tasks, results):
            if status != "ok":
                # Retry the failed point once, sequentially in this
                # process: transient worker trouble (a fork inheriting
                # a torn cache, resource exhaustion under full fan-out,
                # a killed child) often clears on resubmission. A
                # second failure surfaces the *original worker* error
                # — the retry may fail differently, but the first
                # crash is what to debug.
                _, result = _retry_point(task, result)
            rows.extend(install_envelope(result))
    return rows


def _retry_point(task, worker_traceback: str):
    """Second (in-process) attempt at a point whose worker failed."""
    METRICS.inc("bench.pool_retries")
    try:
        return _run_point_strict(task)
    except Exception as retry_err:
        raise RuntimeError(
            f"sweep point {task[0]!r} failed in a pool worker and "
            f"again on in-process retry ({type(retry_err).__name__}: "
            f"{retry_err}); original worker traceback:\n"
            f"{worker_traceback}"
        ) from retry_err


def _run_point_strict(payload):
    """Like :func:`_run_point`, but lets exceptions propagate.

    Runs in the parent process, where metrics and spans accumulate in
    the live registry directly — the envelope ships empty deltas so the
    caller's install is a no-op rather than a double count.
    """
    name, kwargs = payload
    sim_before = SIM_CACHE.key_set()
    base_before = baseline_key_set()
    rows = _resolve(name)(**kwargs)
    return ("ok", (
        rows,
        SIM_CACHE.export(exclude=sim_before),
        export_baselines(exclude=base_before),
        {},
        [],
    ))


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False
