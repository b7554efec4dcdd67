"""The public compiler API: compile schedules into executable kernels."""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.kernel": ("Kernel", "compile_kernel"),
})
