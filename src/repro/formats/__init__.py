"""The format language (Section 3.2): tensor distribution notation.

A tensor's format describes how it is stored *and where it lives on the
machine*. The distribution half is the paper's tensor distribution notation
``T X -> Y M``: tensor dimensions named on the left are partitioned across
same-named machine dimensions on the right; remaining machine dimensions
either fix the partition to a coordinate (a digit) or broadcast it (``*``).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.formats.distribution": (
        "Distribution", "DimName", "Broadcast", "Fixed",
    ),
    "repro.formats.format": ("Format",),
})
