"""The bounded, clear-on-full memo behind the process-wide result tables."""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["BoundedMemo"]


class BoundedMemo:
    """A process-global memo of pure results, keyed by content digest.

    Backs the verified-run table of :func:`repro.core.adversary.checked_run`,
    the unfold/mix tables of :mod:`repro.graphs.lifts` and the ball table of
    :mod:`repro.graphs.soa`.  Every key is a content digest plus the call's
    remaining arguments, so entries never go stale, and reaching ``limit``
    entries clears the table: clearing only ever costs recomputation.

    All mutation happens through methods on the instance, never at module
    level.
    """

    __slots__ = ("limit", "_entries")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: Dict[tuple, Any] = {}

    def get(self, key: tuple):
        return self._entries.get(key)

    def put(self, key: tuple, value) -> None:
        if len(self._entries) >= self.limit:
            self._entries.clear()
        self._entries[key] = value
