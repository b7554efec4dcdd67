"""Crash-safe file primitives shared by every on-disk store.

The tuning ledger (:class:`repro.tuner.oracle.TuningLedger`) and the
serving daemon's quarantine store (:mod:`repro.serve.supervise`) both
persist with the same discipline: writers serialize on an advisory
lock beside the target (:func:`locked`), and every whole-file write
lands through a same-directory temp file and ``os.replace``
(:func:`write_atomic`), so readers never observe a torn file. The
ledger's shard journals append in place instead (:func:`write_all`)
and make their creation durable with :func:`fsync_dir`.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def locked(path: Path):
    """Best-effort advisory lock serializing concurrent writers of
    ``path``.

    The lock file lives *beside* the target (same directory), so stores
    pointed into temporary directories (per-run ledgers) lock within
    that directory — never at a shared global location — and the
    sidecar is a runtime artifact covered by ``.gitignore``, not
    repository content. A missing parent directory is created first,
    so a fresh temp path can be locked immediately.
    """
    lock_file = None
    try:
        import fcntl

        path.parent.mkdir(parents=True, exist_ok=True)
        lock_file = open(path.with_name(path.name + ".lock"), "a+")
        fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
    except (ImportError, OSError):
        # Fall back to unlocked appends (atomic replace still protects
        # readers); don't leak the handle if only the flock failed.
        if lock_file is not None:
            lock_file.close()
        lock_file = None
    try:
        yield
    finally:
        if lock_file is not None:
            try:
                import fcntl

                fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)
            except (ImportError, OSError):
                pass
            lock_file.close()


def write_all(fd: int, data: bytes):
    """Write every byte of ``data`` to ``fd`` (``os.write`` may write
    fewer than it is given)."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def fsync_dir(path: Path):
    """Make directory ``path``'s entries durable: a rename or a newly
    created file inside it survives a power loss only once its
    directory is fsync'd too."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: Path, text: str) -> bool:
    """Write ``text`` to ``path`` via a same-directory temp file and
    ``os.replace``, so readers never observe a torn file.

    The order is write, fsync the file, replace, fsync the directory:
    without the first fsync a crash can publish an *empty* temp file
    under the final name, and without the second a power loss can
    forget the rename itself.
    """
    try:
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
    except OSError:
        return False
    try:
        try:
            write_all(fd, text.encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True
