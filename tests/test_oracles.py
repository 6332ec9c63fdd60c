"""Differential tests: the integer verifier and algorithm paths against the
``Fraction`` references in ``tests/reference_impls.py``, and the columnar
ball extraction and canonicaliser against the object-walking references
in the same file.

Inputs are Hypothesis-generated loopy EC multigraphs (proper colourings
with loops and parallel edges of distinct colours), loopy trees, their
random 2-lifts, PO multigraphs with directed loops, and simple ID graphs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adversary import checked_run
from repro.core.propagation import node_load_of_output
from repro.core.saturation import unsaturated_nodes
from repro.core.witness import AlgorithmFailure
from repro.graphs.digraph import POGraph
from repro.graphs.lifts import random_two_lift
from repro.graphs.multigraph import ECGraph
from repro.graphs.soa import _VECTOR_MIN_EDGES, canonical_rooted_form, extract_ball
from repro.local.algorithm import ECWeightAlgorithm
from repro.local.runtime import ECNetwork, IDNetwork, PONetwork, run
from repro.matching.fm import exact_load, fm_from_node_outputs, po_node_load
from repro.matching.greedy_color import GreedyColorFM, greedy_color_algorithm
from repro.matching.proposal import ProposalFM, proposal_algorithm
from repro.obs import Tracer
from tests import reference_impls as ref

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def loopy_ec_multigraphs(draw, max_nodes: int = 6, max_colors: int = 4) -> ECGraph:
    """A properly edge-coloured multigraph: each colour class is a partial
    matching plus loops, so the same pair may be joined in several colours.
    Optionally every node gets a loop of one extra colour (a loopy graph,
    where Lemma 2 demands full saturation)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    k = draw(st.integers(min_value=1, max_value=max_colors))
    g = ECGraph()
    for v in range(n):
        g.add_node(v)
    for color in range(1, k + 1):
        free = list(range(n))
        while free:
            v = free.pop(0)
            kind = draw(st.sampled_from(("none", "loop", "edge")))
            if kind == "loop":
                g.add_edge(v, v, color)
            elif kind == "edge" and free:
                u = free.pop(draw(st.integers(min_value=0, max_value=len(free) - 1)))
                g.add_edge(v, u, color)
    if draw(st.booleans()):
        for v in range(n):
            if not g.loops_at(v):
                g.add_edge(v, v, k + 1)
    return g


@st.composite
def loopy_trees(draw, min_nodes: int = 1, max_nodes: int = 8, min_colors: int = 1) -> ECGraph:
    """A properly edge-coloured tree plus loops in colours left free.

    Colours come from ``1..12``, so the ``repr`` order of a node's colours
    (``"10" < "2"``) can differ from their numeric order.  With at least two
    colours every leaf has a free one, so the tree reaches its drawn size."""
    palette = draw(st.lists(st.integers(1, 12), min_size=min_colors, max_size=4, unique=True))
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    g = ECGraph()
    g.add_node(0)
    for v in range(1, n):
        parents = [u for u in range(v) if set(palette) - set(g.incident_colors(u))]
        if not parents:
            break
        u = draw(st.sampled_from(parents))
        free = sorted(set(palette) - set(g.incident_colors(u)))
        g.add_edge(u, v, draw(st.sampled_from(free)))
    for v in g.nodes():
        for color in sorted(set(palette) - set(g.incident_colors(v))):
            if draw(st.booleans()):
                g.add_edge(v, v, color)
    return g


@st.composite
def po_multigraphs(draw, max_nodes: int = 6, max_colors: int = 3) -> POGraph:
    """Each colour class is a partial injection: at most one out- and one
    in-arc of a colour per node, directed loops allowed."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    k = draw(st.integers(min_value=1, max_value=max_colors))
    d = POGraph()
    for v in range(n):
        d.add_node(v)
    for color in range(1, k + 1):
        heads = list(range(n))
        for v in range(n):
            h = draw(st.sampled_from([None] + heads))
            if h is not None:
                heads.remove(h)
                d.add_edge(v, h, color)
    return d


@st.composite
def simple_graphs(draw, max_nodes: int = 7) -> nx.Graph:
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(p for p in pairs if draw(st.booleans()))
    return g


seeds = st.integers(min_value=0, max_value=10_000)
fractions = st.fractions(min_value=-2, max_value=2, max_denominator=12)


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


class Perturbed(ECWeightAlgorithm):
    """Returns ``outputs`` on ``graph`` and the honest ``base`` run on any
    other graph (the Figure-4 lift the verifier builds on failure)."""

    def __init__(self, base: ECWeightAlgorithm, graph: ECGraph, outputs):
        self.base, self.graph, self.outputs = base, graph, outputs
        self.name = f"perturbed-{base.name}"

    def run_on(self, g):
        if g is self.graph:
            return {v: dict(out) for v, out in self.outputs.items()}
        return self.base.run_on(g)


def perturb(g: ECGraph, outputs, draw):
    """One of: raise or lower an edge's weight at both ends, set it outside
    [0, 1] at both ends, drop a colour at one node, or make the two ends of
    a non-loop edge disagree."""
    outputs = {v: dict(out) for v, out in outputs.items()}
    edges = g.edges()
    if not edges:
        return outputs
    e = edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
    kind = draw(st.sampled_from(("raise", "lower", "outside", "drop", "disagree")))
    old = Fraction(outputs[e.u][e.color])
    unit = st.fractions(min_value=0, max_value=1, max_denominator=12)
    if kind == "raise":
        new = old + (1 - old) * draw(unit.filter(bool))
    elif kind == "lower":
        new = old * draw(unit.filter(lambda r: r < 1))
    elif kind == "outside":
        new = draw(st.sampled_from((Fraction(-1, 3), Fraction(3, 2), 2, -1)))
    elif kind == "drop":
        del outputs[e.u][e.color]
        return outputs
    else:
        outputs[e.u][e.color] = old + draw(fractions.filter(bool))
        return outputs
    outputs[e.u][e.color] = new
    outputs[e.v][e.color] = new
    return outputs


def assert_same_verdict(algorithm, g, require_saturation):
    expected_verdict, expected = ref.checked_verdict(algorithm, g, require_saturation)
    tracer = Tracer()
    try:
        checked_run(algorithm, g, require_saturation, tracer=tracer)
    except AlgorithmFailure as failure:
        assert expected is not None, f"reference passed, checked_run raised {failure}"
        assert str(failure) == str(expected)
        assert failure.graph is expected.graph
        # a maximal FM saturates every looped node, so an unsaturated
        # verdict never finds a loop to build a Figure-4 lift from
        assert failure.detail == expected.detail
    else:
        assert expected is None, f"checked_run passed, reference raised {expected}"
    (span,) = tracer.find("adversary.checked_run")
    assert span.attrs["verdict"] == expected_verdict


ALGORITHMS = {"greedy": greedy_color_algorithm, "proposal": proposal_algorithm}


class TestVerifierOracle:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @given(g=loopy_ec_multigraphs(), require_saturation=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_honest_outputs(self, name, g, require_saturation):
        algorithm = ALGORITHMS[name]()
        algorithm.fingerprint = None  # no run memo: every call verifies
        assert_same_verdict(algorithm, g, require_saturation)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @given(g=loopy_ec_multigraphs(), require_saturation=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_perturbed_outputs(self, name, g, require_saturation, data):
        base = ALGORITHMS[name]()
        outputs = perturb(g, base.run_on(g), data.draw)
        assert_same_verdict(Perturbed(base, g, outputs), g, require_saturation)

    @given(g=loopy_ec_multigraphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_loads_and_predicates(self, g, data):
        outputs = greedy_color_algorithm().run_on(g)
        outputs = perturb(g, outputs, data.draw)
        try:
            fm = fm_from_node_outputs(g, outputs)
        except Exception:
            return  # the dropped-colour and disagreeing cases stop here
        for v in g.nodes():
            load = fm.node_load(v)
            assert type(load) is Fraction
            assert load == ref.fm_node_load(g, fm.weights, v)
            assert fm.is_saturated(v) == (load == 1)
            assert node_load_of_output(g, outputs, v) == ref.node_load_of_output(
                g, outputs, v
            )
        assert fm.feasibility_violations() == ref.feasibility_violations(g, fm.weights)
        assert fm.maximality_violations() == ref.maximality_violations(g, fm.weights)
        assert unsaturated_nodes(g, outputs) == ref.unsaturated_nodes(g, outputs)

    @given(st.lists(fractions | st.integers(min_value=-3, max_value=3), max_size=12))
    def test_exact_load_is_the_exact_sum(self, weights):
        num, den = exact_load(weights)
        assert den > 0
        assert Fraction(num, den) == sum(map(Fraction, weights), Fraction(0))

    @given(g=po_multigraphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_po_node_load(self, g, data):
        weights = {
            e.eid: data.draw(fractions) for e in g.edges() if data.draw(st.booleans())
        }
        for v in g.nodes():
            expected = Fraction(0)
            for e in g.out_edges(v) + g.in_edges(v):
                expected += Fraction(weights.get(e.eid, 0))
            load = po_node_load(g, weights, v)
            assert type(load) is Fraction and load == expected


# ---------------------------------------------------------------------------
# the algorithms
# ---------------------------------------------------------------------------


def assert_same_run(network_factory, fast, reference, max_rounds=10_000):
    got = run(network_factory(), fast, max_rounds=max_rounds)
    want = run(network_factory(), reference, max_rounds=max_rounds)
    assert got.rounds == want.rounds
    assert got.halted == want.halted
    assert got.message_counts == want.message_counts
    assert got.outputs == want.outputs
    for v, out in want.outputs.items():
        if out is None:
            assert got.outputs[v] is None
            continue
        assert list(got.outputs[v]) == list(out)
        assert all(type(w) is Fraction for w in got.outputs[v].values())


def ec_graph_and_lift(g: ECGraph, seed: int):
    lifted, _ = random_two_lift(g, random.Random(seed))
    return (g, lifted)


class TestAlgorithmOracle:
    @given(g=loopy_ec_multigraphs(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_greedy_matches_reference(self, g, seed):
        for h in ec_graph_and_lift(g, seed):
            globals_ = {"palette": h.colors()}
            assert_same_run(
                lambda: ECNetwork(h, globals_=globals_),
                GreedyColorFM(),
                ref.GreedyColorFM(),
                max_rounds=len(h.colors()) + 1,
            )

    @given(g=loopy_ec_multigraphs(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_proposal_ec_matches_reference(self, g, seed):
        for h in ec_graph_and_lift(g, seed):
            assert_same_run(lambda: ECNetwork(h), ProposalFM("EC"), ref.ProposalFM("EC"))

    @given(d=po_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_proposal_po_matches_reference(self, d):
        assert_same_run(lambda: PONetwork(d), ProposalFM("PO"), ref.ProposalFM("PO"))

    @given(g=simple_graphs())
    @settings(max_examples=40, deadline=None)
    def test_proposal_id_matches_reference(self, g):
        assert_same_run(lambda: IDNetwork(g), ProposalFM("ID"), ref.ProposalFM("ID"))


# ---------------------------------------------------------------------------
# balls and canonical forms
# ---------------------------------------------------------------------------


def assert_same_ball(g: ECGraph, v, t: int) -> None:
    sub_kernel, distances = extract_ball(g, v, t)
    want, want_dist = ref.ball(g, v, t)
    assert list(distances.items()) == list(want_dist.items())
    view = ECGraph.from_kernel(sub_kernel)
    assert view.nodes() == want.nodes()
    assert [(e.eid, e.u, e.v, e.color) for e in view.edges()] == [
        (e.eid, e.u, e.v, e.color) for e in want.edges()
    ]
    assert sub_kernel.digest == want.kernel.digest
    assert sub_kernel._next_eid == want.kernel._next_eid


class TestBallAndFormOracle:
    @given(g=loopy_trees())
    @settings(max_examples=80, deadline=None)
    def test_canonical_forms_match_reference(self, g):
        for v in g.nodes():
            assert canonical_rooted_form(g, v) == ref.canonical_rooted_form(g, v)

    @given(g=loopy_trees(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_balls_match_reference(self, g, seed):
        for h in ec_graph_and_lift(g, seed):
            for v in h.nodes():
                for t in range(4):
                    assert_same_ball(h, v, t)

    @given(g=loopy_trees(min_nodes=33, max_nodes=40, min_colors=2), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_vectorised_balls_match_reference(self, g, seed):
        """The 2-lift of a tree on 33 or more nodes has at least 64 edges, so
        extraction filters edges with the NumPy mask."""
        lifted = ec_graph_and_lift(g, seed)[1]
        assert lifted.num_edges() >= _VECTOR_MIN_EDGES
        for v in lifted.nodes():
            for t in range(4):
                assert_same_ball(lifted, v, t)

    @given(g=loopy_trees(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_ball_forms_match_reference(self, g, seed):
        """Forms of the balls of a tree and of its 2-lift, computed over the
        snapshot each ball derives from its parent's columns; a lift's ball
        that closes a cycle must raise instead."""
        for h in ec_graph_and_lift(g, seed):
            for v in h.nodes():
                for t in range(4):
                    sub = ECGraph.from_kernel(extract_ball(h, v, t)[0])
                    if sub.is_tree_ignoring_loops():
                        assert canonical_rooted_form(sub, v) == ref.canonical_rooted_form(sub, v)
                    else:
                        with pytest.raises(ValueError, match="cycle"):
                            canonical_rooted_form(sub, v)
