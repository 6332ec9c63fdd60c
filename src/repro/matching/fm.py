"""Fractional matchings (paper, Section 1.2).

A fractional matching (FM) on a graph ``G`` assigns each edge a weight in
``[0, 1]`` such that every node's incident weight sum ``y[v]`` is at most 1;
``v`` is *saturated* when ``y[v] = 1``.  An FM is *maximal* when every edge
has at least one saturated endpoint.  All weights here are exact
:class:`fractions.Fraction` values so that feasibility, saturation and the
propagation arguments of the lower bound are decided without tolerances.

Degree conventions for multigraphs follow the paper (Section 3.5): on an
EC-graph a loop contributes its weight **once** to ``y[v]``; on a PO-graph a
directed loop contributes **twice** (once as tail, once as head).

Loads are summed by :func:`exact_load` in integers — numerators over a
common denominator — rather than by chained ``Fraction`` additions, each of
which would normalise through a gcd.  The result is the same rational, so
every predicate is decided exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..graphs.digraph import POGraph
from ..graphs.multigraph import ECGraph

Node = Hashable
Color = Hashable
EdgeId = int

__all__ = [
    "FractionalMatching",
    "InconsistentOutputError",
    "exact_load",
    "fm_from_node_outputs",
    "po_node_load",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def exact_load(weights: Iterable) -> Tuple[int, int]:
    """The exact sum of ``weights`` as an unreduced ``(numerator, denominator)``.

    Integer numerators are added over a running common denominator (the lcm
    of the denominators seen so far), so the pair always denotes the exact
    rational sum, with a positive denominator.  Hence the sum is 1 iff
    ``numerator == denominator`` and exceeds 1 iff ``numerator >
    denominator``; ``Fraction(numerator, denominator)`` is the reduced sum.
    Non-``Fraction`` weights are converted with ``Fraction(w)`` first.
    """
    num, den = 0, 1
    for w in weights:
        if type(w) is not Fraction:
            w = Fraction(w)
        n, d = w.numerator, w.denominator
        if d == den:
            num += n
        elif den % d == 0:
            num += n * (den // d)
        else:
            common = den // gcd(den, d) * d
            num = num * (common // den) + n * (common // d)
            den = common
    return num, den


class InconsistentOutputError(ValueError):
    """Raised when the two endpoints of an edge announce different weights.

    In the LOCAL formulation each node outputs the weight of every incident
    edge (Section 1.4); a correct algorithm must make endpoints agree, and a
    disagreement is a hard correctness failure the verifiers report.
    """


@dataclass
class FractionalMatching:
    """An edge-weight assignment on an EC-graph, with exact arithmetic.

    Missing edges weigh 0.  The class is a value object: it never mutates its
    graph or its weights.  Node loads are computed once, on the first
    predicate that needs them, and shared by all later ones.
    """

    graph: ECGraph
    weights: Dict[EdgeId, Fraction]
    _loads: Optional[Dict[Node, Tuple[int, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        clean: Dict[EdgeId, Fraction] = {}
        for eid, w in self.weights.items():
            if not self.graph.has_edge_id(eid):
                raise KeyError(f"weight given for unknown edge id {eid}")
            clean[eid] = w if type(w) is Fraction else Fraction(w)
        self.weights = clean

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def weight(self, eid: EdgeId) -> Fraction:
        """Weight of edge ``eid`` (0 when unset)."""
        return self.weights.get(eid, ZERO)

    def _load_table(self) -> Dict[Node, Tuple[int, int]]:
        """Every node's load as an :func:`exact_load` pair, in node order.

        Sums over each node's slot ids (:meth:`ECGraph.incident_edge_ids`),
        so a loop counts once; unset edges weigh 0 and are skipped.
        """
        loads = self._loads
        if loads is None:
            weights = self.weights
            graph = self.graph
            loads = self._loads = {
                v: exact_load(
                    [weights[eid] for eid in graph.incident_edge_ids(v) if eid in weights]
                )
                for v in graph.nodes()
            }
        return loads

    def node_load(self, v: Node) -> Fraction:
        """``y[v]``: the sum of incident edge weights (loops count once)."""
        return Fraction(*self._load_table()[v])

    def is_saturated(self, v: Node) -> bool:
        """Whether ``y[v] = 1`` exactly."""
        num, den = self._load_table()[v]
        return num == den

    def saturated_nodes(self) -> List[Node]:
        """All saturated nodes."""
        return [v for v, (num, den) in self._load_table().items() if num == den]

    def total_weight(self) -> Fraction:
        """The FM's total weight ``sum_e y(e)``."""
        # __post_init__ guarantees every stored key is a live edge, and
        # missing edges weigh 0, so the stored weights alone carry the sum
        return sum(self.weights.values(), ZERO)

    # ------------------------------------------------------------------
    # feasibility / maximality
    # ------------------------------------------------------------------
    def feasibility_violations(self) -> List[str]:
        """Human-readable list of feasibility violations (empty iff feasible).

        Weights outside [0, 1] come first, in edge order, then overloaded
        nodes, in node order.
        """
        problems: List[str] = []
        # a Fraction's denominator is positive: 0 <= n/d <= 1 iff 0 <= n <= d
        outside = {
            eid
            for eid, w in self.weights.items()
            if not 0 <= w.numerator <= w.denominator
        }
        if outside:
            for e in self.graph.edges():
                if e.eid in outside:
                    problems.append(
                        f"edge {e.eid} has weight {self.weights[e.eid]} outside [0, 1]"
                    )
        for v, (num, den) in self._load_table().items():
            if num > den:
                problems.append(f"node {v!r} is overloaded: y[v] = {Fraction(num, den)}")
        return problems

    def is_feasible(self) -> bool:
        """Whether all weights lie in [0, 1] and no node is overloaded."""
        return not self.feasibility_violations()

    def maximality_violations(self) -> List[EdgeId]:
        """Edges with *no* saturated endpoint (empty iff maximal).

        For a loop the single endpoint must be saturated.
        """
        loads = self._load_table()
        saturated = {v for v, (num, den) in loads.items() if num == den}
        if len(saturated) == len(loads):
            return []
        return [
            e.eid
            for e in self.graph.edges()
            if e.u not in saturated and e.v not in saturated
        ]

    def is_maximal(self) -> bool:
        """Whether every edge has at least one saturated endpoint."""
        return not self.maximality_violations()

    def is_fully_saturated(self) -> bool:
        """Whether *every* node is saturated (Lemma 2's conclusion on loopy graphs)."""
        return all(num == den for num, den in self._load_table().values())

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def disagreements(self, other: "FractionalMatching") -> List[EdgeId]:
        """Edge ids on which two FMs over the same edge-id space differ."""
        ids = set(self.weights) | set(other.weights)
        return sorted(eid for eid in ids if self.weight(eid) != other.weight(eid))

    def restricted_to(self, nodes) -> Dict[EdgeId, Fraction]:
        """Weights of edges with at least one endpoint in ``nodes``."""
        keep = set(nodes)
        out: Dict[EdgeId, Fraction] = {}
        for e in self.graph.edges():
            if e.u in keep or e.v in keep:
                out[e.eid] = self.weight(e.eid)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FractionalMatching(total={self.total_weight()}, "
            f"saturated={len(self.saturated_nodes())}/{self.graph.num_nodes()}, "
            f"maximal={self.is_maximal()})"
        )


def fm_from_node_outputs(
    g: ECGraph, outputs: Mapping[Node, Mapping[Color, Fraction]]
) -> FractionalMatching:
    """Assemble an FM from per-node, per-colour local outputs.

    Every node must announce a weight for each of its incident colours, and
    the two endpoints of every non-loop edge must agree; otherwise
    :class:`InconsistentOutputError` is raised (this is itself a locally
    checkable condition).
    """
    weights: Dict[EdgeId, Fraction] = {}
    for v in g.nodes():
        out = outputs.get(v)
        if out is None:
            raise InconsistentOutputError(f"node {v!r} produced no output")
        expected = set(map(repr, g.incident_colors(v)))
        got = set(map(repr, out.keys()))
        if expected != got:
            raise InconsistentOutputError(
                f"node {v!r} announced colours {sorted(got)} but has {sorted(expected)}"
            )
        for color, w in out.items():
            e = g.edge_at(v, color)
            if type(w) is not Fraction:
                w = Fraction(w)
            if e.eid in weights and weights[e.eid] != w:
                raise InconsistentOutputError(
                    f"endpoints of edge {e.eid} disagree: {weights[e.eid]} vs {w}"
                )
            weights[e.eid] = w
    return FractionalMatching(graph=g, weights=weights)


def po_node_load(g: POGraph, weights: Mapping[EdgeId, Fraction], v: Node) -> Fraction:
    """``y[v]`` on a PO-graph: out-arcs + in-arcs; a directed loop counts twice."""
    return Fraction(
        *exact_load(
            weights.get(e.eid, ZERO) for e in chain(g.out_edges(v), g.in_edges(v))
        )
    )
