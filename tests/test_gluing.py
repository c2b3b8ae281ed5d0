"""Gluing constructions: edge gluing families, forest gluing, vertex gluing,
pendant trees, signed gluing, and trees of cycles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeglue.canon import canonical_form
from edgeglue.embed import is_free
from edgeglue.errors import (
    InvalidAttachIndex,
    InvalidRootedPattern,
    NotATree,
    OddCycleLength,
    SignMismatch,
)
from edgeglue.gluing import (
    GluingSpec,
    RootedPattern,
    attach_tree,
    edge_rooted,
    glue_along_edge,
    glue_at_vertex,
    glue_copies_along_forest,
    glue_family,
    signed_glue,
    tree_of_cycles,
)
from edgeglue.gluing import _glue_oriented, _signed_glue
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete_bipartite,
    cycle,
    encode_graph6,
    path,
    signed_cycle,
    star,
)


class TestRootedPattern:
    def test_edge_rooted(self):
        p = edge_rooted(cycle(4), (0, 1))
        assert p.ell == 1 + 1 and p.root_edge_count == 1
        assert p.distinguished_edge == (0, 1)

    def test_rejects_full_root_set(self):
        with pytest.raises(InvalidRootedPattern):
            RootedPattern(cycle(4), (0, 1, 2, 3))

    def test_rejects_cyclic_root_edges(self):
        h = cycle(4)
        big = glue_at_vertex(h, 0, LabeledGraph(2, [(0, 1)]), 0)
        with pytest.raises(InvalidRootedPattern):
            RootedPattern(big, (0, 1, 2, 3), frozenset(big.edges) - {(0, 4)})

    def test_isolated_root_vertices_allowed(self):
        p = RootedPattern(path(4), (0, 1, 3), frozenset([(0, 1)]))
        assert p.ell == 3 and p.root_edge_count == 1


class TestGlueAlongEdge:
    def test_two_paths_give_star_and_path(self):
        fam = glue_along_edge(path(3), (0, 1), path(3), (0, 1))
        assert len(fam) == 2
        certs = {canonical_form(g) for g in fam}
        assert certs == {canonical_form(star(3)), canonical_form(path(4))}

    def test_two_c4_collapse_to_one_graph(self):
        fam = glue_along_edge(cycle(4), (0, 1), cycle(4), (0, 1))
        assert len(fam) == 1
        g = fam[0]
        assert (g.vertex_count, g.edge_count) == (6, 7)

    def test_c4_c6_is_single_graph(self):
        fam = glue_along_edge(cycle(4), (0, 1), cycle(6), (2, 3))
        assert len(fam) == 1
        assert (fam[0].vertex_count, fam[0].edge_count) == (8, 9)

    def test_eight_c6_glue_to_one_graph_at_the_34_vertex_cap(self):
        fam = glue_family(GluingSpec(((cycle(6), (0, 1)),) * 8))
        assert len(fam) == 1
        assert (fam[0].vertex_count, fam[0].edge_count) == (34, 41)

    def test_self_glue_singleton_for_edge_swapping_patterns(self):
        # an automorphism swaps the endpoints of every edge of these
        for g in (cycle(4), cycle(6), complete_bipartite(2, 2)):
            e = g.sorted_edges[0]
            assert len(glue_along_edge(g, e, g, e)) == 1

    def test_parts_embed_in_every_result(self):
        for g in glue_along_edge(cycle(4), (0, 1), cycle(6), (0, 1)):
            assert not is_free(g, cycle(4))
            assert not is_free(g, cycle(6))

    def test_family_order_is_deterministic(self):
        a = [encode_graph6(g) for g in glue_along_edge(path(3), (0, 1), path(3), (0, 1))]
        b = [encode_graph6(g) for g in glue_along_edge(path(3), (0, 1), path(3), (0, 1))]
        assert a == b
        # output is sorted by certificate
        fam = glue_along_edge(path(3), (0, 1), path(3), (0, 1))
        certs = [canonical_form(g) for g in fam]
        assert certs == sorted(certs)

    def test_multi_part_family(self):
        spec = GluingSpec(((cycle(4), (0, 1)), (cycle(4), (0, 1)), (path(3), (0, 1))))
        fam = glue_family(spec)
        for g in fam:
            assert g.vertex_count == 2 + 2 + 2 + 1
            assert g.edge_count == 1 + 3 + 3 + 1


class TestForestGluing:
    def test_c4_along_edge_three_copies(self):
        g = glue_copies_along_forest(edge_rooted(cycle(4), (0, 1)), 3)
        assert (g.vertex_count, g.edge_count) == (8, 10)

    def test_c6_along_path_two_copies(self):
        p = RootedPattern(cycle(6), (0, 1, 2), frozenset([(0, 1), (1, 2)]))
        g = glue_copies_along_forest(p, 2)
        assert (g.vertex_count, g.edge_count) == (9, 10)

    def test_p4_with_isolated_root_leaf(self):
        p = RootedPattern(path(4), (0, 1, 3), frozenset([(0, 1)]))
        g = glue_copies_along_forest(p, 2)
        assert (g.vertex_count, g.edge_count) == (5, 5)

    def test_single_copy_is_h_itself(self):
        p = edge_rooted(cycle(5), (0, 1))
        g = glue_copies_along_forest(p, 1)
        assert canonical_form(g) == canonical_form(cycle(5))

    def test_rejects_h_edge_inside_roots_outside_f(self):
        # roots {0, 1} of P3 with no root edges: the H-edge (0,1) would be
        # silently shared between copies
        p = RootedPattern(path(3), (0, 1))
        with pytest.raises(InvalidRootedPattern):
            glue_copies_along_forest(p, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=4, max_value=8))
    def test_count_arithmetic_random(self, s, k):
        p = edge_rooted(cycle(k), (0, 1))
        g = glue_copies_along_forest(p, s)
        assert g.vertex_count == 2 + s * (k - 2)
        assert g.edge_count == 1 + s * (k - 1)


class TestVertexGluing:
    def test_two_c4_share_a_vertex(self):
        g = glue_at_vertex(cycle(4), 0, cycle(4), 0)
        assert (g.vertex_count, g.edge_count) == (7, 8)

    def test_two_edges_make_a_path(self):
        k2 = LabeledGraph(2, [(0, 1)])
        g = glue_at_vertex(k2, 1, k2, 0)
        assert canonical_form(g) == canonical_form(path(3))

    def test_consistent_with_attach_tree(self):
        k2 = LabeledGraph(2, [(0, 1)])
        a = glue_at_vertex(cycle(4), 2, k2, 0)
        b = attach_tree(cycle(4), 2, k2, 0)
        assert a == b


class TestAttachTree:
    def test_pan_graph(self):
        k2 = LabeledGraph(2, [(0, 1)])
        g = attach_tree(cycle(4), 0, k2, 0)
        assert (g.vertex_count, g.edge_count) == (5, 5)

    def test_path_tail(self):
        g = attach_tree(cycle(4), 0, path(3), 0)
        assert (g.vertex_count, g.edge_count) == (6, 6)

    def test_attachment_point_is_irrelevant_on_c4(self):
        certs = {
            canonical_form(attach_tree(cycle(4), v, path(3), 0)) for v in range(4)
        }
        assert len(certs) == 1

    def test_rejects_non_tree(self):
        with pytest.raises(NotATree):
            attach_tree(cycle(4), 0, cycle(3), 0)


class TestSignedGlue:
    def test_three_signed_c4(self):
        c = signed_cycle(4)
        e = next(iter(c.edges))
        g = signed_glue(GluingSpec(((c, e), (c, e), (c, e))))
        assert (g.plus_count, g.minus_count, g.edge_count) == (4, 4, 10)

    def test_single_part_is_identity_up_to_relabeling(self):
        c = signed_cycle(6)
        g = signed_glue(GluingSpec(((c, (0, 0)),)))
        assert canonical_form(g) == canonical_form(c)

    def test_part_types_pick_the_gluing(self):
        """Signed parts glue only by signed_glue, unsigned parts only by
        glue_family, and a spec may not mix the two."""
        c4, sc4 = cycle(4), signed_cycle(4)
        with pytest.raises(SignMismatch):
            glue_family(GluingSpec(((sc4, (0, 0)), (sc4, (0, 0)))))
        with pytest.raises(SignMismatch):
            GluingSpec(((c4, (0, 1)), (sc4, (0, 0))))
        with pytest.raises(SignMismatch):
            signed_glue(GluingSpec(((c4, (0, 1)), (c4, (0, 1)))))

    def test_c4_c6_matches_unsigned_glue(self):
        c4, c6 = signed_cycle(4), signed_cycle(6)
        g = signed_glue(GluingSpec(((c4, (0, 0)), (c6, (0, 0)))))
        assert (g.vertex_count, g.edge_count) == (8, 9)
        unsigned = glue_along_edge(cycle(4), (0, 1), cycle(6), (0, 1))
        assert canonical_form(g.as_unsigned()) in {
            canonical_form(u) for u in unsigned
        }


class TestLabelledLayout:
    """Exact labelled outputs: shared vertices first, then each part's other
    vertices, part by part, in index order.  A change of layout that keeps
    sizes and isomorphism classes still fails here."""

    def test_glue_at_vertex(self):
        # h1 keeps its labels; h2's other vertices follow in index order
        tailed_triangle = LabeledGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        g = glue_at_vertex(tailed_triangle, 3, path(3), 0)
        assert g.vertex_count == 6
        assert g.sorted_edges == ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5))

    def test_forest_gluing(self):
        g = glue_copies_along_forest(RootedPattern(path(4), (0, 1, 3), frozenset([(0, 1)])), 3)
        assert g.vertex_count == 6
        assert g.sorted_edges == ((0, 1), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
        # root vertex i of H is vertex i of the result, in the given root order
        g = glue_copies_along_forest(RootedPattern(path(4), (3, 0, 1), frozenset([(0, 1)])), 2)
        assert g.vertex_count == 5
        assert g.sorted_edges == ((0, 3), (0, 4), (1, 2), (2, 3), (2, 4))
        p = RootedPattern(cycle(6), (4, 2, 3), frozenset([(2, 3), (3, 4)]))
        g = glue_copies_along_forest(p, 2)
        assert g.vertex_count == 9
        assert g.sorted_edges == (
            (0, 2), (0, 5), (0, 8), (1, 2), (1, 4), (1, 7), (3, 4), (3, 5), (6, 7), (6, 8)
        )

    @pytest.mark.parametrize(
        "flip, edges, maps",
        [
            (False, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3)), [[2, 0, 1, 3], [0, 1, 4]]),
            (True, ((0, 1), (0, 2), (0, 4), (1, 3), (2, 3)), [[2, 0, 1, 3], [1, 0, 4]]),
        ],
    )
    def test_glue_oriented(self, flip, edges, maps):
        g, got = _glue_oriented([(cycle(4), (1, 2)), (path(3), (0, 1))], (False, flip))
        assert g.vertex_count == 5 and g.sorted_edges == edges
        assert got == maps

    def test_signed_glue(self):
        p4 = SignedBipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
        g, maps = _signed_glue([(signed_cycle(4), (1, 0)), (p4, (1, 1))])
        assert (g.plus_count, g.minus_count) == (3, 3)
        assert g.sorted_edges == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 2))
        # flattened: + vertices 0..2, then - vertices 3..5
        assert maps == [[1, 0, 3, 4], [2, 0, 5, 3]]


class TestTreeOfCycles:
    def test_single_tree_edge(self):
        t = LabeledGraph(2, [(0, 1)])
        g = tree_of_cycles(t, {0: 4, 1: 6}, {((0, 1), 0): 0, ((0, 1), 1): 0})
        assert (g.vertex_count, g.edge_count) == (9, 10)

    def test_path_of_three_c4(self):
        t = path(3)
        attach = {
            ((0, 1), 0): 0,
            ((0, 1), 1): 0,
            ((1, 2), 1): 2,
            ((1, 2), 2): 0,
        }
        g = tree_of_cycles(t, {0: 4, 1: 4, 2: 4}, attach)
        assert (g.vertex_count, g.edge_count) == (10, 12)

    def test_rejects_odd_cycles(self):
        t = LabeledGraph(2, [(0, 1)])
        with pytest.raises(OddCycleLength):
            tree_of_cycles(t, {0: 5, 1: 4}, {((0, 1), 0): 0, ((0, 1), 1): 0})

    def test_rejects_bad_positions(self):
        t = LabeledGraph(2, [(0, 1)])
        with pytest.raises(InvalidAttachIndex):
            tree_of_cycles(t, {0: 4, 1: 4}, {((0, 1), 0): 9, ((0, 1), 1): 0})
        with pytest.raises(InvalidAttachIndex):
            tree_of_cycles(t, {0: 4, 1: 4}, {((0, 1), 0): 0})
