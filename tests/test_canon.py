"""Canonical labeling and automorphism counting, cross-checked against
exhaustive-permutation oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeglue.canon import (
    automorphism_count,
    automorphism_count_bruteforce,
    canonical_form,
    canonical_form_bruteforce,
    decode_canonical,
    signed_automorphism_count,
)
from edgeglue.embed import count_embeddings
from edgeglue.errors import SizeExceeded
from edgeglue.gluing import GluingSpec, signed_glue
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    path,
    signed_complete_bipartite,
    signed_cycle,
    signed_star,
    star,
)
from math import factorial


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph(n, edges)


@st.composite
def signed_graphs(draw, max_side=4):
    m = draw(st.integers(min_value=0, max_value=max_side))
    n = draw(st.integers(min_value=0, max_value=max_side))
    cells = [(p, q) for p in range(m) for q in range(n)]
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return SignedBipartiteGraph(m, n, edges)


def hypercube(d):
    """d-cube: bit strings of length d, adjacent when they differ in one bit."""
    edges = [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1]
    return LabeledGraph(1 << d, edges)


def rook(k):
    """k x k rook's graph: cells (r, c), adjacent when they share a row or a column."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    return LabeledGraph(
        k * k,
        [
            (i, j)
            for i in range(k * k)
            for j in range(i + 1, k * k)
            if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]
        ],
    )


def shrikhande():
    """Cayley graph on Z4 x Z4 with connections +-(1,0), +-(0,1), +-(1,1).

    Strongly regular with the parameters of the 4 x 4 rook's graph, so colour
    refinement alone cannot tell the two apart.
    """
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    cells = [(r, c) for r in range(4) for c in range(4)]
    return LabeledGraph(
        16,
        [
            (i, j)
            for i in range(16)
            for j in range(i + 1, 16)
            if ((cells[j][0] - cells[i][0]) % 4, (cells[j][1] - cells[i][1]) % 4) in steps
        ],
    )


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        g = cycle(4)
        assert canonical_form(g) == canonical_form(g.relabel([2, 0, 3, 1]))

    def test_separates_the_two_4_vertex_trees(self):
        assert canonical_form(path(4)) != canonical_form(star(3))

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.randoms())
    def test_permutation_invariance_random(self, g, rnd):
        perm = list(range(g.vertex_count))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6), graphs(max_n=6))
    def test_equivalence_matches_bruteforce_oracle(self, g1, g2):
        # the two schemes produce different byte strings but must induce the
        # same partition into isomorphism classes
        mine = canonical_form(g1) == canonical_form(g2)
        oracle = canonical_form_bruteforce(g1) == canonical_form_bruteforce(g2)
        assert mine == oracle

    def test_exhaustive_class_count_on_4_vertices(self):
        from itertools import combinations

        pairs = list(combinations(range(4), 2))
        certs = {
            canonical_form(
                LabeledGraph(4, [pairs[i] for i in range(6) if m >> i & 1])
            )
            for m in range(1 << 6)
        }
        assert len(certs) == 11  # the 11 graphs on 4 vertices

    def test_certificates_decode_to_isomorphic_graphs(self):
        for g in (cycle(6), star(4), complete_bipartite(2, 3)):
            back = decode_canonical(canonical_form(g))
            assert canonical_form(back) == canonical_form(g)

    def test_signed_sides_are_not_exchangeable(self):
        # K_{1,2} with the center on + vs on -: same underlying graph,
        # different signed certificates
        a = signed_complete_bipartite(1, 2)
        b = signed_complete_bipartite(2, 1)
        assert canonical_form(a) != canonical_form(b)
        back = decode_canonical(canonical_form(a))
        assert (back.plus_count, back.minus_count) == (1, 2)

    @pytest.mark.parametrize(
        "g, cert",
        [
            (signed_cycle(4), "sb:2:2:1111"),
            (
                signed_glue(
                    GluingSpec(((signed_cycle(4), (0, 0)), (signed_cycle(4), (0, 0))))
                ),
                "sb:3:3:101011111",
            ),
            (signed_star(2), "sb:1:2:11"),
            (signed_star(2, center_plus=False), "sb:2:1:11"),
        ],
    )
    def test_pinned_signed_certificates(self, g, cert):
        # store keys and bench/expected.json depend on these exact bytes
        assert canonical_form(g).bytes.decode() == cert

    @pytest.mark.parametrize(
        "g", [hypercube(5), rook(5), shrikhande()], ids=["Q5", "rook5x5", "shrikhande"]
    )
    def test_symmetric_graphs_invariant_under_relabeling(self, g):
        perm = list(range(g.vertex_count))
        random.Random(5).shuffle(perm)
        assert canonical_form(g.relabel(perm)) == canonical_form(g)

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.9])
    def test_34_vertex_forms_invariant_under_relabeling(self, density):
        rng = random.Random(34)
        g = LabeledGraph(34, [(i, j) for i in range(34) for j in range(i + 1, 34) if rng.random() < density])
        perm = list(range(34))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == canonical_form(g)
        assert canonical_form(decode_canonical(canonical_form(g))) == canonical_form(g)

    def test_34_vertex_symmetric_form_invariant_under_relabeling(self):
        # eight paths of length 5 between the ends of one edge: 8 C6s glued along it
        paths = [(1, *range(2 + 4 * k, 6 + 4 * k), 0) for k in range(8)]
        g = LabeledGraph(34, [(0, 1)] + [e for p in paths for e in zip(p, p[1:])])
        perm = list(range(34))
        random.Random(8).shuffle(perm)
        assert canonical_form(g.relabel(perm)) == canonical_form(g)
        assert automorphism_count(g) == 2 * factorial(8)

    def test_separates_graphs_that_refinement_cannot(self):
        assert canonical_form(shrikhande()) != canonical_form(rook(4))

    def test_signed_invariance_under_side_permutations(self):
        g = signed_cycle(6)
        shuffled = type(g)(3, 3, [((p + 1) % 3, (q + 2) % 3) for p, q in g.edges])
        assert canonical_form(g) == canonical_form(shuffled)


class TestAutomorphisms:
    def test_known_groups(self):
        assert automorphism_count(cycle(4)) == 8
        assert automorphism_count(complete_bipartite(3, 3)) == 72
        assert automorphism_count(LabeledGraph(2, [(0, 1)])) == 2

    def test_k33_matches_bruteforce(self):
        g = complete_bipartite(3, 3)
        assert automorphism_count_bruteforce(g) == 72

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7))
    def test_agrees_with_bruteforce_oracle(self, g):
        assert automorphism_count(g) == automorphism_count_bruteforce(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_divides_factorial(self, g):
        assert factorial(g.vertex_count) % automorphism_count(g) == 0

    def test_signed_count_halves_c4(self):
        # only the 4 of C4's 8 automorphisms that fix the sides survive
        assert signed_automorphism_count(signed_cycle(4)) == 4

    @settings(max_examples=80, deadline=None)
    @given(signed_graphs())
    def test_signed_count_equals_self_embeddings(self, h):
        # side-preserving injective maps of h into itself are its automorphisms
        assert signed_automorphism_count(h) == count_embeddings(h, h)

    @pytest.mark.parametrize(
        "g, order",
        [
            (complete_bipartite(8, 8), 2 * factorial(8) ** 2),
            (hypercube(5), 2**5 * factorial(5)),
            (rook(5), 2 * factorial(5) ** 2),
            (complete(32), factorial(32)),
            (shrikhande(), 192),
        ],
        ids=["K8,8", "Q5", "rook5x5", "K32", "shrikhande"],
    )
    def test_known_groups_beyond_the_bruteforce_oracle(self, g, order):
        assert automorphism_count(g) == order

    def test_34_vertex_cap_is_shared(self):
        g = empty_graph(35)
        with pytest.raises(SizeExceeded):
            canonical_form(g)
        with pytest.raises(SizeExceeded):
            automorphism_count(g)
        with pytest.raises(SizeExceeded):
            signed_automorphism_count(SignedBipartiteGraph(18, 17))
        assert automorphism_count(empty_graph(34)) == factorial(34)
