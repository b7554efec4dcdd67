"""Reachability gate: every ``src/repro`` function is entered by tier-1.

A pytest plugin, loaded with ``-p tests.reachability``::

    PYTHONPATH=src python -m pytest -q -p tests.reachability

A call-only tracer (``sys.settrace`` and ``threading.settrace``,
re-armed in forked children) appends each newly entered ``src/repro``
function to a record file as it is entered, so children that end in
``os._exit`` report too. Subprocesses started with ``Popen`` are not
traced. At session end the run fails on any outermost function (one
not nested in another never-entered function) that was never entered
and is not in ``reachability_allowlist.txt``, and on allow-list
entries that are stale or give no reason.
"""

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
_PREFIX = str(SRC) + os.sep

_seen = set()
_record_fd = None
_owner_pid = None


def _tracer(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_PREFIX):
            os.write(_record_fd, (
                f"{code.co_filename}:{code.co_firstlineno}\n"
            ).encode())
    return None


def _arm():
    sys.settrace(_tracer)
    threading.settrace(_tracer)


def pytest_configure(config):
    global _record_fd, _owner_pid
    fd, path = tempfile.mkstemp(prefix="repro-reachability-")
    os.close(fd)
    _record_fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    config._reachability_record = path
    _owner_pid = os.getpid()
    os.register_at_fork(after_in_child=_arm)
    _arm()


def _functions(path):
    """``(qualname, first line, last line, nested)`` per def in a file,
    where ``first line`` is the code object's (the first decorator)."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                name = prefix + child.name
                yield name, first, child.end_lineno, list(
                    walk(child, name + ".")
                )
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    return list(walk(ast.parse(path.read_text()), ""))


def unreached(entered):
    """Outermost never-entered functions: ``{"file::qualname": lines}``."""
    out = {}

    def visit(rel, path, functions):
        for name, first, last, nested in functions:
            if f"{path}:{first}" in entered:
                visit(rel, path, nested)
            else:
                out[f"{rel}::{name}"] = last - first + 1

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        visit(rel, str(path), _functions(path))
    return out


def _allowlist():
    """``{"file::qualname": reason}``; an entry without a reason maps
    to ``""``."""
    entries = {}
    for line in ALLOWLIST.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        entries[name.strip()] = reason.strip()
    return entries


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    if os.getpid() != _owner_pid:
        return
    os.close(_record_fd)
    path = session.config._reachability_record
    entered = set(Path(path).read_text().split())
    os.unlink(path)
    missing = unreached(entered)
    allowed = _allowlist()
    problems = [
        f"never entered ({lines} lines): {name}"
        for name, lines in sorted(missing.items()) if name not in allowed
    ]
    problems += [
        f"allow-list entry is reachable or gone: {name}"
        for name in sorted(allowed) if name not in missing
    ]
    problems += [
        f"allow-list entry gives no reason: {name}"
        for name, reason in sorted(allowed.items()) if not reason
    ]
    session.config._reachability_report = (missing, allowed, problems)
    if problems:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = getattr(config, "_reachability_report", None)
    if report is None:
        return
    missing, allowed, problems = report
    terminalreporter.write_line(
        f"reachability: {len(missing)} src/repro functions never entered "
        f"({sum(missing.values())} lines), "
        f"{len(set(missing) & set(allowed))} of them allow-listed"
    )
    for problem in problems:
        terminalreporter.write_line(f"reachability: {problem}", red=True)
