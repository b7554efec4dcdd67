"""The oracle with static pruning switched off.

``PruneOff`` patches :meth:`~repro.tuner.oracle.Oracle.prune_reason` to
return ``None``, so no candidate is decided statically and every one is
simulated (or given its symmetry leader's outcome). Tests compare a
search with and without it, or need every candidate to reach the
simulator.
"""

from repro.tuner.oracle import Oracle


class PruneOff:
    """Context manager: no candidate is statically pruned inside."""

    def __enter__(self):
        self._saved = Oracle.prune_reason
        Oracle.prune_reason = lambda self, *args: None
        return self

    def __exit__(self, *exc):
        Oracle.prune_reason = self._saved
        return False
