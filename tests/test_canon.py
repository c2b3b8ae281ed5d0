"""Canonical labeling and automorphism counting, cross-checked against
exhaustive-permutation oracles."""

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
from edgeglue.gluing import GluingSpec, signed_glue
from edgeglue.graphs import (
    LabeledGraph,
    complete_bipartite,
    cycle,
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
                    GluingSpec(((signed_cycle(4), (0, 0)), (signed_cycle(4), (0, 0))), "signed-unique")
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
