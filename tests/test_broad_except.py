"""No broad exception handler in ``src/repro`` without a reason.

A bare ``except:``, ``except Exception`` or ``except BaseException``
(alone or in a tuple) must sit in a function that
``broad_except_allowlist.txt`` names, keyed by file and qualified
function name, with the reason the handler is a boundary. Stale
entries and entries without a reason fail too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("broad_except_allowlist.txt")
BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def broad_handlers(path: Path):
    """``{qualified function name: [line, ...]}`` of a file's broad
    handlers (``<module>`` for module-level code)."""
    found = {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.ExceptHandler) and _is_broad(child):
                found.setdefault(scope or "<module>", []).append(
                    child.lineno
                )
            walk(child, inner)

    walk(ast.parse(path.read_text()), "")
    return found


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


def test_every_broad_handler_is_allow_listed_with_a_reason():
    handlers = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        for name, lines in broad_handlers(path).items():
            handlers[f"{rel}::{name}"] = lines
    allowed = _allowlist()
    problems = [
        f"broad handler at lines {lines}: {name}"
        for name, lines in sorted(handlers.items()) if name not in allowed
    ]
    problems += [
        f"allow-list entry has no broad handler: {name}"
        for name in sorted(allowed) if name not in handlers
    ]
    problems += [
        f"allow-list entry gives no reason: {name}"
        for name, reason in sorted(allowed.items()) if not reason
    ]
    assert not problems, "\n".join(problems)


def test_the_scan_sees_every_broad_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "try:\n    pass\nexcept:\n    pass\n"
        "class C:\n"
        "    def f(self):\n"
        "        try:\n            pass\n"
        "        except (KeyError, BaseException):\n            pass\n"
        "        def g():\n"
        "            try:\n                pass\n"
        "            except Exception:\n                pass\n"
        "            except ValueError:\n                pass\n"
    )
    assert broad_handlers(source) == {
        "<module>": [3], "C.f": [9], "C.f.g": [14],
    }
