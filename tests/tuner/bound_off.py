"""The oracle with its time lower bound switched off.

``BoundOff`` patches the time lower bound the oracle reads from its
memo (:meth:`~repro.analysis.prune.PruneMemo.time_lower_bound`) to
return ``0.0``. No bound then exceeds a cost, so a bound-ordered search
(``Oracle.evaluate_top``) simulates every class — the heuristic seed's
first, the rest in key order — and skips nothing. Tests run a tune with
and without it and require the searches to agree exactly
(:func:`assert_skip_exact`).
"""

from repro.analysis.prune import PruneMemo
from repro.bench.cache import SIM_CACHE


class BoundOff:
    """Context manager: every time lower bound is ``0.0`` inside."""

    def __enter__(self):
        self._saved = PruneMemo.time_lower_bound
        PruneMemo.time_lower_bound = lambda self, *args: 0.0
        return self

    def __exit__(self, *exc):
        PruneMemo.time_lower_bound = self._saved
        return False


def from_empty_cache(run):
    """``run()`` from an empty ``SIM_CACHE``; the cache's contents and
    counts are restored afterwards."""
    saved = SIM_CACHE.export()
    counts = SIM_CACHE.hits, SIM_CACHE.misses
    SIM_CACHE.clear()
    try:
        return run()
    finally:
        SIM_CACHE.clear()
        SIM_CACHE.install(saved)
        SIM_CACHE.hits, SIM_CACHE.misses = counts


def assert_same_search(skipped, full):
    """Two :class:`~repro.tuner.search.SearchOutcome` agree on the best
    and seed outcomes and on every ranked record."""
    assert skipped.best == full.best
    assert skipped.seed_outcome == full.seed_outcome
    assert skipped.ranked == full.ranked


def assert_skip_exact(tune_once):
    """Run ``tune_once()`` (returning a ``TuneResult``) with and without
    the bound, each from an empty cache; the searches must agree, and
    the one with the bound must not simulate more. Returns both."""
    with BoundOff():
        full = from_empty_cache(tune_once)
    skipped = from_empty_cache(tune_once)
    assert full.search.bound_skipped == 0
    assert_same_search(skipped.search, full.search)
    assert skipped.search.evaluations + skipped.search.bound_skipped == (
        full.search.evaluations
    )
    return skipped, full
