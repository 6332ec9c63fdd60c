"""Reference implementations kept as test oracles.

The library verifies Lemma 2 by summing loads as integer numerators over a
common denominator (``repro.matching.fm.exact_load``), and runs greedy and
proposal on integer fast paths.  This module keeps the straightforward
``Fraction`` versions they replaced, so the differential tests in
``tests/test_oracles.py`` can assert that both give the same verdicts,
messages, outputs, round counts and message counts.

Likewise, the library extracts balls and canonicalises rooted trees over
columnar snapshots (``repro.graphs.soa``).  The object-walking versions
here — a BFS plus edge-by-edge rebuild, and the plain recursion — are the
oracles those column paths are checked against.

Nothing here is imported by the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.witness import AlgorithmFailure
from repro.graphs.lifts import unfold_loop
from repro.graphs.multigraph import ECGraph
from repro.local.algorithm import DistributedAlgorithm, ECWeightAlgorithm
from repro.local.context import NodeContext
from repro.matching.fm import InconsistentOutputError, fm_from_node_outputs

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# balls and canonical forms
# ---------------------------------------------------------------------------


def ball(g: ECGraph, v, t: int) -> Tuple[ECGraph, Dict[Any, int]]:
    """``tau_t(g, v)`` rebuilt edge by edge: the BFS distances up to ``t``,
    then every edge with both ends in the ball and an end within ``t - 1``.
    Returns the subgraph and the distance dict."""
    dist = g.bfs_distances(v, max_dist=t)
    sub = ECGraph()
    for w in dist:
        sub.add_node(w)
    if t >= 1:
        for e in g.edges():
            du = dist.get(e.u)
            dv = dist.get(e.v)
            if du is not None and dv is not None and min(du, dv) <= t - 1:
                sub.add_edge(e.u, e.v, e.color, eid=e.eid)
    return sub, dist


def canonical_rooted_form(g: ECGraph, root, _from_eid: Optional[int] = None) -> Tuple:
    """The canonical form by plain recursion: ``(colour, "cut")`` for the
    edge arrived by, ``(colour, "loop")`` for a loop, ``(colour, <child
    form>)`` otherwise, sorted by ``repr``.  Recurses forever on a cycle."""
    entries = []
    for e in g.incident_edges(root):
        if _from_eid is not None and e.eid == _from_eid:
            entries.append((e.color, "cut"))
        elif e.is_loop:
            entries.append((e.color, "loop"))
        else:
            entries.append((e.color, canonical_rooted_form(g, e.other(root), _from_eid=e.eid)))
    return tuple(sorted(entries, key=lambda item: (repr(item[0]), repr(item[1]))))


# ---------------------------------------------------------------------------
# the verifier: loads, feasibility, maximality, saturation
# ---------------------------------------------------------------------------


def fm_node_load(g: ECGraph, weights: Mapping[int, Fraction], v) -> Fraction:
    """``y[v]`` as a chained ``Fraction`` sum over the node's edge ids."""
    return sum((weights.get(eid, ZERO) for eid in g.incident_edge_ids(v)), ZERO)


def feasibility_violations(g: ECGraph, weights: Mapping[int, Fraction]) -> List[str]:
    problems: List[str] = []
    for e in g.edges():
        w = weights.get(e.eid, ZERO)
        if not (ZERO <= w <= ONE):
            problems.append(f"edge {e.eid} has weight {w} outside [0, 1]")
    for v in g.nodes():
        load = fm_node_load(g, weights, v)
        if load > ONE:
            problems.append(f"node {v!r} is overloaded: y[v] = {load}")
    return problems


def maximality_violations(g: ECGraph, weights: Mapping[int, Fraction]) -> List[int]:
    saturated = {v for v in g.nodes() if fm_node_load(g, weights, v) == ONE}
    return [e.eid for e in g.edges() if e.u not in saturated and e.v not in saturated]


def node_load_of_output(g: ECGraph, outputs, v) -> Fraction:
    out = outputs[v]
    return sum(
        (
            w if type(w) is Fraction else Fraction(w)
            for w in (out[c] for c in g.incident_colors(v))
        ),
        Fraction(0),
    )


def unsaturated_nodes(g: ECGraph, outputs) -> list:
    return [v for v in g.nodes() if node_load_of_output(g, outputs, v) != ONE]


def figure4_certificate(g: ECGraph, v, algorithm: ECWeightAlgorithm):
    loops = g.loops_at(v)
    if not loops:
        return None
    lifted, _, new_eid = unfold_loop(g, loops[0].eid)
    outputs = algorithm.run_on(lifted)
    e = lifted.edge(new_eid)
    v1, v2 = e.u, e.v
    if (
        node_load_of_output(lifted, outputs, v1) != ONE
        and node_load_of_output(lifted, outputs, v2) != ONE
    ):
        return (lifted, v1, v2)
    return None


def checked_verdict(
    algorithm: ECWeightAlgorithm, g: ECGraph, require_saturation: bool = True
) -> Tuple[str, Optional[AlgorithmFailure]]:
    """``(verdict, failure)`` of the Lemma 2 check as ``checked_run`` gives
    it: the verdict its span records and the exception it raises (``None``
    when the verdict is ``ok``)."""
    outputs = algorithm.run_on(g)
    try:
        fm = fm_from_node_outputs(g, outputs)
    except InconsistentOutputError as exc:
        return "inconsistent", AlgorithmFailure(
            f"{algorithm.name} produced inconsistent endpoint outputs: {exc}", graph=g
        )
    problems = feasibility_violations(g, fm.weights)
    if problems:
        return "infeasible", AlgorithmFailure(
            f"{algorithm.name} produced an infeasible FM: {problems[0]}", graph=g
        )
    missing = maximality_violations(g, fm.weights)
    if missing:
        return "non-maximal", AlgorithmFailure(
            f"{algorithm.name} produced a non-maximal FM (edge {missing[0]} uncovered)",
            graph=g,
            detail=missing,
        )
    if require_saturation:
        bad = unsaturated_nodes(g, outputs)
        if bad:
            certificate = figure4_certificate(g, bad[0], algorithm)
            return "unsaturated", AlgorithmFailure(
                f"{algorithm.name} left node {bad[0]!r} unsaturated on a loopy "
                f"graph (Lemma 2); Figure-4 refutation "
                f"{'attached' if certificate else 'not constructible here'}",
                graph=g,
                detail=certificate,
            )
    return "ok", None


# ---------------------------------------------------------------------------
# the algorithms, with Fraction residuals and min()
# ---------------------------------------------------------------------------


class GreedyColorFM(DistributedAlgorithm):
    """Greedy-by-colour with ``Fraction`` residuals and weights."""

    model = "EC"

    def initial_state(self, ctx: NodeContext) -> Dict[str, Any]:
        return {
            "palette": list(ctx.globals["palette"]),
            "step": 0,
            "residual": ONE,
            "weights": {},
        }

    def send(self, state, ctx: NodeContext):
        step = state["step"]
        if step >= len(state["palette"]):
            return {}
        color = state["palette"][step]
        if color in ctx.ports:
            return {color: state["residual"]}
        return {}

    def receive(self, state, ctx: NodeContext, inbox):
        step = state["step"]
        state = dict(state)
        if step < len(state["palette"]):
            color = state["palette"][step]
            if color in ctx.ports:
                w = min(state["residual"], inbox[color])
                weights = dict(state["weights"])
                weights[color] = w
                state["weights"] = weights
                state["residual"] = state["residual"] - w
        state["step"] = step + 1
        return state

    def output(self, state, ctx: NodeContext):
        if state["step"] < len(state["palette"]):
            return None
        return {c: state["weights"].get(c, Fraction(0)) for c in ctx.ports}


_CLOSED = "closed"


class ProposalFM(DistributedAlgorithm):
    """The proposal dynamics with ``==`` against the marker and ``min()``."""

    def __init__(self, model: str = "EC"):
        self.model = model

    def initial_state(self, ctx: NodeContext):
        return {
            "residual": ONE,
            "weights": {p: ZERO for p in ctx.ports},
            "active": set(ctx.ports),
            "done": len(ctx.ports) == 0,
        }

    def _proposal(self, state) -> Optional[Fraction]:
        if state["residual"] == ZERO or not state["active"]:
            return None
        return Fraction(state["residual"], len(state["active"]))

    def send(self, state, ctx: NodeContext):
        if state["done"]:
            return {}
        p = self._proposal(state)
        return {
            port: p if p is not None else _CLOSED
            for port in ctx.ports
            if port in state["active"]
        }

    def receive(self, state, ctx: NodeContext, inbox):
        if state["done"]:
            return state
        state = dict(state)
        state["weights"] = dict(state["weights"])
        state["active"] = set(state["active"])
        my_proposal = self._proposal(state)
        for port in list(state["active"]):
            theirs = inbox.get(port, _CLOSED)
            if theirs == _CLOSED or my_proposal is None:
                state["active"].discard(port)
                continue
            increment = min(my_proposal, theirs)
            state["weights"][port] += increment
            state["residual"] -= increment
        if state["residual"] == ZERO:
            state["active"] = set()
        if not state["active"]:
            state["done"] = True
        return state

    def output(self, state, ctx: NodeContext):
        return dict(state["weights"]) if state["done"] else None

    def snapshot(self, state, ctx: NodeContext):
        return dict(state["weights"])
