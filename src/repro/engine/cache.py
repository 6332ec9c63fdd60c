"""Content-addressed memoization of canonical rooted forms.

The hot path of every adversary run is canonicalising witness balls
(:func:`repro.graphs.soa.canonical_rooted_form`): each inductive
step canonicalises two rooted trees-with-loops that double in size as the
ladder climbs.  Many of those balls recur — the two radius-0 balls of every
base case are the same labelled single-node graph, and the G- and H-side
balls of a step frequently coincide as labelled graphs.

:class:`CanonicalFormCache` memoizes the *top-level* canonical form keyed by
:func:`graph_digest` — the rooted digest of the graph's frozen
:class:`~repro.graphs.kernel.GraphKernel`, maintained incrementally by the
builders so a lookup no longer re-walks the graph.  The digest is a pure
function of the labelled rooted graph (node labels, ``(u, v, colour)`` edge
multiset, root), so a hit can only ever return the form the canonicaliser
would have computed; edge ids (which vary across copies) are deliberately
excluded.

The cache is one in-process LRU (``maxsize`` entries, least-recently-used
eviction) that lives for one shard.  Forms are never persisted: a form is a
pure function of a graph the process already holds, and a miss whose shape
the SoA canonicaliser has seen before is answered by its process-wide plan
cache (:mod:`repro.graphs.soa`, counted as ``plan_hits``).

Hits and misses are counted both in :class:`CacheStats` and on the ambient
:mod:`repro.obs` tracer (``engine.canonical_cache`` counter, ``outcome``
label), so a merged sweep trace reports the realised hit-rate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Hashable, Optional, Tuple

from ..graphs.kernel import GraphKernel
from ..graphs.multigraph import ECGraph
from ..graphs.soa import canonical_rooted_form, plan_hit_count
from ..obs.tracer import current_tracer

Node = Hashable

__all__ = [
    "CacheStats",
    "CanonicalFormCache",
    "graph_digest",
]


def graph_digest(g: ECGraph, root: Optional[Node] = None) -> str:
    """Stable content digest of a (rooted) EC-graph.

    Delegates to the graph's frozen :class:`~repro.graphs.kernel.GraphKernel`
    snapshot, whose digest is maintained *incrementally* as edges are added —
    after the first freeze each lookup is O(1) instead of re-walking the
    whole graph.  Two graphs share a digest iff they have identical labelled
    structure (node labels, ``(u, v, colour)`` edge multiset, root) — exactly
    the condition under which their canonical rooted forms agree.  Edge ids
    are excluded: they differ between otherwise identical copies.  Raises
    ``TypeError`` for objects without a kernel.
    """
    if isinstance(g, GraphKernel):
        return g.rooted_digest(root)
    kernel = getattr(g, "kernel", None)
    if not isinstance(kernel, GraphKernel):
        raise TypeError(f"expected a graph with a frozen kernel, got {type(g).__name__}")
    return kernel.rooted_digest(root)


@dataclass
class CacheStats:
    """Counters describing one cache's life so far.

    ``plan_hits`` counts *interned-plan reuse*: misses of the digest-keyed
    LRU whose form was nonetheless answered by the SoA canonicaliser's
    shape-plan cache (:mod:`repro.graphs.soa`) instead of a fresh tuple
    construction.  It is reported separately from ``hits`` and never
    enters ``hit_rate`` — a plan hit is a cheap *compute*, not a cache
    lookup that succeeded.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    plan_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["lookups"] = self.lookups
        payload["hit_rate"] = self.hit_rate
        return payload

    @classmethod
    def merged(cls, dicts) -> "CacheStats":
        """Aggregate several ``as_dict`` payloads (one per worker).

        The merge iterates the dataclass's *declared* fields rather than a
        hand-maintained key list: adding a counter can no longer silently
        drop it from merged totals (``plan_hits`` once was).  Counters a
        payload lacks — snapshots written by older workers — default to 0,
        so the merge is total-preserving and associative: merging partial
        merges equals merging the underlying payloads in one pass.
        """
        total = cls()
        for d in dicts:
            if isinstance(d, CacheStats):
                d = d.as_dict()
            for f in fields(cls):
                setattr(total, f.name, getattr(total, f.name) + d.get(f.name, 0))
        return total


@dataclass
class CanonicalFormCache:
    """In-memory LRU memo table for canonical rooted forms.

    ``maxsize`` bounds the table; the least-recently-used entry is evicted
    on overflow.
    """

    maxsize: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._lru: "OrderedDict[str, Any]" = OrderedDict()

    # ------------------------------------------------------------------
    # the public entry point installed into repro.graphs.isomorphism
    # ------------------------------------------------------------------
    def canonical_form(self, g: ECGraph, root: Node) -> Tuple:
        """The canonical rooted form of ``(g, root)``, memoized.

        A miss runs :func:`repro.graphs.soa.canonical_rooted_form`.
        """
        key = graph_digest(g, root)
        metrics = current_tracer().metrics
        if key in self._lru:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            metrics.counter("engine.canonical_cache", outcome="hit").inc()
            return self._lru[key]
        self.stats.misses += 1
        metrics.counter("engine.canonical_cache", outcome="miss").inc()
        # when the canonicaliser's shape-plan cache answers the root shape,
        # credit the reuse separately from the digest-keyed LRU
        before_plan = plan_hit_count()
        form = canonical_rooted_form(g, root)
        gained = plan_hit_count() - before_plan
        if gained:
            self.stats.plan_hits += gained
            metrics.counter("engine.canonical_cache", outcome="plan_hit").inc(gained)
        self._lru[key] = form
        while len(self._lru) > self.maxsize:
            self._lru.popitem(last=False)
            self.stats.evictions += 1
        return form

    def __len__(self) -> int:
        return len(self._lru)
