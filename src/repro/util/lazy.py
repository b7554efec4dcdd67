"""Lazy package namespaces (PEP 562).

A package ``__init__`` re-exports names from its modules without
importing those modules until a name is first read, so importing one
module of a package does not compile the rest of it::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.kernel": ("Kernel", "compile_kernel"),
    })

The table is the one list of a package's exports: ``__all__`` is its
names, sorted. ``from package import name``, ``from package import *``,
``package.name`` and ``dir(package)`` behave as they do with eager
imports, and every name is the very object its module defines.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps a module's dotted name to the names the package
    re-exports from it; ``__all__`` lists them sorted. The first read
    of a name imports its module and stores the object in the
    package's namespace, so later reads are plain attribute lookups.
    Any other name raises :class:`AttributeError`, which lets ``from
    package import submodule`` fall through to importing the submodule.
    """
    origin = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return sorted(origin), __getattr__, __dir__
