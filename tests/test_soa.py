"""Tests for the columnar kernel snapshots (repro.graphs.soa).

The SoA layer is the only implementation of ball extraction and
canonicalisation.  The tests here compare it against the object-walking
references in ``tests/reference_impls.py``, pin the named errors raised
for inputs the columns cannot represent, and pin the sharing discipline —
snapshots memoize per frozen kernel, balls memoize by content digest, and
the canonicalisation plan cache recognises isomorphic shapes.
"""

from __future__ import annotations

import functools

import pytest

from repro.graphs.digraph import POGraph
from repro.graphs.families import (
    cycle_graph,
    path_graph,
    random_loopy_tree,
    single_node_with_loops,
    star_graph,
)
from repro.graphs.labels import LABELS
from repro.graphs.multigraph import ECGraph
from repro.graphs.neighborhoods import ball
from repro.graphs.soa import (
    _VECTOR_MIN_EDGES,
    SoASnapshot,
    canonical_rooted_form,
    extract_ball,
    plan_hit_count,
    reset_plan_cache,
    snapshot_of,
)
from tests import reference_impls as ref
from tests.test_oracles import assert_same_ball


class TestSnapshot:
    def test_memoized_per_frozen_kernel(self):
        kernel = random_loopy_tree(4, 1, seed=0).kernel
        first = snapshot_of(kernel)
        assert isinstance(first, SoASnapshot)
        assert snapshot_of(kernel) is first

    def test_label_table_clear_invalidates_snapshots(self):
        kernel = random_loopy_tree(4, 1, seed=1).kernel
        stale = snapshot_of(kernel)
        LABELS.clear()
        fresh = snapshot_of(kernel)
        assert fresh is not stale
        assert fresh.generation == LABELS.generation

    def test_columns_mirror_the_object_view(self):
        g = random_loopy_tree(5, 2, seed=2)
        snap = snapshot_of(g.kernel)
        assert snap.n == g.num_nodes()
        assert snap.m == g.num_edges()
        for v in g.nodes():
            i = snap.index_of[v]
            sl = slice(snap.slot_off[i], snap.slot_off[i + 1])
            incident = g.incident_edges(v)
            assert snap.slot_colors[sl] == [e.color for e in incident]
            assert list(snap.slot_eids[sl]) == [e.eid for e in incident]
            assert [snap.labels[j] for j in snap.slot_other[sl]] == [
                e.other(v) for e in incident
            ]


class TestCanonicalFormFast:
    """The plan-cached canonicaliser against the reference recursion."""

    def test_matches_reference_on_loopy_trees(self):
        for seed in range(4):
            g = random_loopy_tree(5, 2, seed=seed)
            for v in g.nodes():
                assert canonical_rooted_form(g, v) == ref.canonical_rooted_form(g, v)

    def test_matches_reference_on_fixture_families(self):
        for g in (path_graph(4), star_graph(3), single_node_with_loops(3)):
            for v in g.nodes():
                assert canonical_rooted_form(g, v) == ref.canonical_rooted_form(g, v)

    def test_equal_across_relabelling(self):
        g = random_loopy_tree(4, 1, seed=5)
        h = g.relabel({v: ("copy", v) for v in g.nodes()})
        assert canonical_rooted_form(g, 0) == canonical_rooted_form(h, ("copy", 0))

    def test_cycle_raises_like_the_reference_requires(self):
        with pytest.raises(ValueError, match="cycle"):
            canonical_rooted_form(cycle_graph(4), 0)

    def test_root_plan_hit_counted_on_isomorphic_repeat(self):
        reset_plan_cache()
        g = random_loopy_tree(4, 2, seed=6)
        form = canonical_rooted_form(g, 0)
        h = g.relabel({v: ("twin", v) for v in g.nodes()})
        before = plan_hit_count()
        twin_form = canonical_rooted_form(h, ("twin", 0))
        assert twin_form == form
        # node labels differ, colour structure agrees: the root shape cons
        # answers without rebuilding — the engine's ``plan_hits`` signal
        assert plan_hit_count() == before + 1
        # consed forms are identical objects, not merely equal
        assert twin_form is form


@functools.total_ordering
class TiedColor:
    """Distinct, sortable colours that all share one ``repr``."""

    def __init__(self, k: int):
        self.k = k

    def __repr__(self) -> str:
        return "tied"

    def __eq__(self, other) -> bool:
        return isinstance(other, TiedColor) and self.k == other.k

    def __lt__(self, other) -> bool:
        return self.k < other.k

    def __hash__(self) -> int:
        return hash(("tied", self.k))


class TestExplicitErrors:
    """Inputs the columns cannot represent raise a named error."""

    def test_foreign_object_raises_type_error(self):
        with pytest.raises(TypeError):
            canonical_rooted_form(object(), 0)
        with pytest.raises(TypeError):
            extract_ball(object(), 0, 1)

    def test_po_graph_raises_type_error(self):
        po = POGraph()
        po.add_edge("a", "b", 1)
        with pytest.raises(TypeError):
            snapshot_of(po.kernel)
        with pytest.raises(TypeError):
            canonical_rooted_form(po, "a")
        with pytest.raises(TypeError):
            ball(po, "a", 1)

    def test_repr_tied_colours_raise_value_error_on_canonicalisation(self):
        g = ECGraph()
        g.add_edge(0, 0, TiedColor(1))
        g.add_edge(0, 0, TiedColor(2))
        with pytest.raises(ValueError, match="repr"):
            canonical_rooted_form(g, 0)
        # ball extraction does not depend on the repr order
        assert ball(g, 0, 1).graph.num_edges() == 2

    def test_missing_root_raises_key_error(self):
        g = path_graph(3)
        with pytest.raises(KeyError):
            canonical_rooted_form(g, "nope")
        with pytest.raises(KeyError):
            extract_ball(g, "nope", 0)


class TestExtractBall:
    def test_matches_builder_reference_small(self):
        g = random_loopy_tree(6, 2, seed=3)
        for v in g.nodes():
            for t in range(4):
                assert_same_ball(g, v, t)

    def test_matches_builder_reference_vectorised(self):
        g = random_loopy_tree(40, 1, seed=4)
        assert g.num_edges() >= _VECTOR_MIN_EDGES  # NumPy mask path engaged
        for v in (0, 7, 39):
            for t in range(4):
                assert_same_ball(g, v, t)

    def test_radius_zero_excludes_loops(self):
        sub_kernel, distances = extract_ball(single_node_with_loops(3), 0, 0)
        view = ECGraph.from_kernel(sub_kernel)
        assert view.nodes() == [0]
        assert view.num_edges() == 0
        assert distances == {0: 0}

    def test_derived_snapshot_is_column_identical_to_fresh_build(self):
        """extract_ball attaches a snapshot filtered out of the parent's
        columns; it must match a from-scratch ``_build`` of the sub-kernel
        column for column, or canonical forms over balls could drift."""
        from array import array

        from repro.graphs.soa import SoASnapshot, _BALLS, _build

        columns = (
            "n", "m", "labels", "index_of", "node_lids", "slot_off",
            "slot_color_lids", "slot_colors", "slot_eids", "slot_other",
            "slot_repr_order", "canonical_ok", "edge_eids", "edge_ui",
            "edge_vi", "edge_color_lids",
        )
        g = random_loopy_tree(12, 2, seed=5)
        for v in (0, 5, 11):
            for t in range(4):
                _BALLS._entries.clear()
                sub_kernel, _ = extract_ball(g, v, t)
                derived = sub_kernel._soa
                assert isinstance(derived, SoASnapshot)
                fresh = _build(sub_kernel)
                for name in columns:
                    got, want = getattr(derived, name), getattr(fresh, name)
                    if isinstance(got, array):
                        got, want = list(got), list(want)
                    assert got == want, name

    def test_memo_shares_kernel_but_copies_distances(self):
        g = random_loopy_tree(5, 1, seed=8)
        first_kernel, first_dist = extract_ball(g, 0, 2)
        again_kernel, again_dist = extract_ball(g, 0, 2)
        # the frozen kernel is content-addressed and immutable: shared
        assert again_kernel is first_kernel
        # the distance dict is the caller's to mutate: copied per lookup
        assert again_dist == first_dist
        assert again_dist is not first_dist
        again_dist[0] = 99
        assert extract_ball(g, 0, 2)[1][0] == 0
