"""The scheduling language (Sections 2, 3.3 and 5.2).

A :class:`Schedule` wraps a tensor index notation assignment, lowers it to
concrete index notation, and applies transformations as rewrite rules:
``split``, ``divide``, ``collapse``, ``reorder``, ``precompute``,
``parallelize``, ``substitute`` from prior work, and the paper's three new
distributed primitives ``distribute``, ``communicate`` and ``rotate``.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.scheduling.schedule": ("Schedule",),
})
