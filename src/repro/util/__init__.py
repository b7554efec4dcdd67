"""Shared utilities: geometry (intervals/rectangles), errors, naming."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.errors": (
        "DistributionError", "LoweringError", "OutOfMemoryError", "ReproError",
        "ScheduleError", "UnsupportedScheduleError",
    ),
    "repro.util.geometry": ("Interval", "Rect"),
})
