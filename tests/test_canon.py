"""Canonical labeling and automorphism counting, cross-checked against
exhaustive-permutation oracles."""

import json
import random
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeglue import canon
from edgeglue.canon import (
    _orbits,
    _refine,
    automorphism_count,
    canonical_form,
    decode_canonical,
)
from edgeglue.embed import _symmetry_conditions, count_copies, count_embeddings
from edgeglue.errors import SizeExceeded
from edgeglue.gluing import GluingSpec, signed_glue
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    complete_bipartite,
    cycle,
    decode_graph6,
    decode_sb,
    path,
    signed_complete_bipartite,
    signed_cycle,
    signed_star,
    star,
)
from math import factorial

from oracles import automorphism_count_bruteforce, canonical_form_bruteforce, is_color_complete_pairwise

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"


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


def neighbour_lists(g):
    nbrs = [[] for _ in range(g.vertex_count)]
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def reference_refine(nbrs, colors, width):
    """Colour refinement as first written: full rounds until a round changes nothing."""
    while True:
        k = max(colors) + 1 if colors else 0
        pw = [1 << width * (k - 1 - c) for c in range(k)]
        digit = [pw[c] for c in colors]
        shift = width * k
        keys = [(c << shift) + sum([digit[u] for u in nb]) for c, nb in zip(colors, nbrs)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        new_colors = [rank[key] for key in keys]
        if new_colors == colors:
            return colors
        colors = new_colors


class TestRefine:
    """`_refine` returns what the plain fixed-point loop returns, for every
    kind of colouring the search gives it."""

    @staticmethod
    def check(g, colors):
        nbrs, width = neighbour_lists(g), g.vertex_count.bit_length()
        got = _refine(nbrs, list(colors), width)
        assert got == reference_refine(nbrs, list(colors), width)
        return got

    @staticmethod
    def individualized(colors, v):
        """The colouring of the child that individualizes v, as the search makes it."""
        branch = [c * 2 for c in colors]
        branch[v] -= 1
        return branch

    def test_random_graphs_from_uniform_colourings(self):
        rnd = random.Random(5)
        for _ in range(200):
            n = rnd.randint(2, 24)
            p = rnd.choice([0.1, 0.3, 0.5, 0.8])
            g = LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p])
            self.check(g, [0] * n)
            self.check(g, [rnd.randint(1, 5)] * n)

    @pytest.mark.parametrize(
        "g", [cycle(7), complete(5), complete_bipartite(3, 3), hypercube(4), rook(4), shrikhande(), LabeledGraph(4)]
    )
    def test_regular_graphs_stay_one_class(self, g):
        assert self.check(g, [0] * g.vertex_count) == [0] * g.vertex_count
        assert self.check(g, [3] * g.vertex_count) == [0] * g.vertex_count

    def test_disconnected_graphs(self):
        g = LabeledGraph(9, list(cycle(4).edges) + [(4, 5), (5, 6), (6, 4), (7, 8)])
        self.check(g, [0] * 9)
        two_triangles = LabeledGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert self.check(two_triangles, [0] * 6) == [0] * 6

    def test_individualized_colourings(self):
        rnd = random.Random(7)
        seen_minus_one = 0
        graphs_ = [hypercube(3), rook(3), shrikhande(), cycle(6), complete_bipartite(2, 4)]
        graphs_ += [LabeledGraph(12, [(i, j) for i in range(12) for j in range(i + 1, 12) if rnd.random() < 0.3])]
        for g in graphs_:
            colors = self.check(g, [0] * g.vertex_count)
            for _ in range(3):  # down three levels of the tree
                cells = {}
                for v, c in enumerate(colors):
                    cells.setdefault(c, []).append(v)
                target = min((c for c in cells if len(cells[c]) > 1), default=None)
                if target is None:
                    break
                for v in cells[target]:
                    branch = self.individualized(colors, v)
                    seen_minus_one += -1 in branch
                    self.check(g, branch)
                colors = self.check(g, self.individualized(colors, cells[target][0]))
        assert seen_minus_one > 0

    def test_signed_two_class_colourings(self):
        rnd = random.Random(11)
        graphs_ = [signed_cycle(4), signed_complete_bipartite(3, 3), signed_star(3), SignedBipartiteGraph(2, 3)]
        for _ in range(50):
            m, n = rnd.randint(1, 6), rnd.randint(1, 6)
            cells = [(p, q) for p in range(m) for q in range(n)]
            graphs_.append(SignedBipartiteGraph(m, n, [e for e in cells if rnd.random() < 0.5]))
        for h in graphs_:
            self.check(h.as_unsigned(), h.colors)

    def test_zero_and_one_vertex(self):
        assert self.check(LabeledGraph(0), []) == []
        assert self.check(LabeledGraph(1), [0]) == [0]
        assert self.check(LabeledGraph(1), [4]) == [0]


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
        assert automorphism_count(signed_cycle(4)) == 4

    @settings(max_examples=80, deadline=None)
    @given(signed_graphs())
    def test_signed_count_equals_self_embeddings(self, h):
        # side-preserving injective maps of h into itself are its automorphisms
        assert automorphism_count(h) == count_embeddings(h, h)

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

    def test_stabiliser_orbits_match_a_permutation_scan(self):
        """For every v, _orbits on h with 0..v-1 individualized (distinct
        colours above the base colours) gives the orbits and the order of
        the automorphisms that keep the base colours and fix 0..v-1, as
        found by scanning every permutation."""
        rng = random.Random(31)
        cases = []
        for _ in range(40):
            n = rng.randint(1, 7)
            cases.append((LabeledGraph(n, [(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.5]), None))
        cases += [(g, None) for g in (cycle(5), complete_bipartite(2, 3), LabeledGraph(5, cycle(4).edges), LabeledGraph(4))]
        signed = [signed_cycle(4), signed_complete_bipartite(2, 3), SignedBipartiteGraph(2, 2, [(0, 0), (1, 1)])]
        for _ in range(15):
            m, n = rng.randint(0, 3), rng.randint(1, 4)
            signed.append(SignedBipartiteGraph(m, n, [(p, q) for p in range(m) for q in range(n) if rng.random() < 0.6]))
        cases += [(h.as_unsigned(), h.colors) for h in signed]
        for h, colors in cases:
            n = h.vertex_count
            base = [0] * n if colors is None else list(colors)
            auts = [
                s
                for s in permutations(range(n))
                if all(base[s[u]] == base[u] for u in range(n))
                and all(h.has_edge(s[a], s[b]) for a, b in h.edges)
            ]
            for v in range(n):
                stab = [s for s in auts if all(s[u] == u for u in range(v))]
                expected = {frozenset(s[u] for s in stab) for u in range(n)}
                roots, aut = _orbits(h, [max(base) + 1 + u for u in range(v)] + base[v:])
                assert {frozenset(u for u in range(n) if roots[u] == r) for r in roots} == expected, (h, colors, v)
                assert aut == len(stab)

    def test_34_vertex_cap_is_shared(self):
        g = LabeledGraph(35)
        with pytest.raises(SizeExceeded):
            canonical_form(g)
        with pytest.raises(SizeExceeded):
            automorphism_count(g)
        with pytest.raises(SizeExceeded):
            automorphism_count(SignedBipartiteGraph(18, 17))
        assert automorphism_count(LabeledGraph(34)) == factorial(34)


def golden_graphs() -> list:
    """The unsigned and signed input graphs of tests/data/golden.json."""
    golden = json.loads(GOLDEN.read_text())
    return [decode_graph6(row[1]) for row in golden["unsigned"]] + [decode_sb(row[1]) for row in golden["signed"]]


def random_graphs(seed: int, count: int) -> list:
    """Seeded random graphs of up to 14 vertices, every third one signed."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        if i % 3 == 2:
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            out.append(SignedBipartiteGraph(m, n, [(a, b) for a in range(m) for b in range(n) if rng.random() < p]))
        else:
            n = rng.randint(1, 14)
            out.append(LabeledGraph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


def flat(g):
    """The graph canon searches and its colouring."""
    if isinstance(g, SignedBipartiteGraph):
        return g.as_unsigned(), g.colors
    return g, (0,) * g.vertex_count


def copy_of(g):
    """An equal graph that is a distinct object."""
    if isinstance(g, SignedBipartiteGraph):
        return SignedBipartiteGraph(g.plus_count, g.minus_count, g.edges)
    return LabeledGraph(g.vertex_count, g.edges)


@pytest.fixture
def searches(monkeypatch):
    """Each uncached search, as (graph, colouring), in call order."""
    calls = []
    tree_search = canon._tree_search

    def counted(g, colors):
        calls.append((g, tuple(colors)))
        return tree_search(g, colors)

    monkeypatch.setattr(canon, "_tree_search", counted)
    return calls


class TestSearchMemo:
    """canon keeps each search's result on the graph object, keyed by the
    colouring; nothing is kept by value."""

    @pytest.mark.parametrize(
        "g",
        [cycle(6), rook(4), signed_cycle(6), signed_complete_bipartite(2, 3)],
        ids=["C6", "rook4x4", "signed C6", "signed K2,3"],
    )
    def test_form_then_count_search_once(self, searches, g):
        form = canonical_form(g)
        assert automorphism_count(g) == automorphism_count(copy_of(g))
        assert canonical_form(g) == form
        assert [c for c in searches if c[0] is flat(g)[0]] == [flat(g)]
        assert len(searches) == 2  # the copy ran its own

    @pytest.mark.parametrize(
        "h, host",
        [(cycle(4), complete(6)), (complete_bipartite(2, 3), complete(6)), (signed_cycle(4), signed_complete_bipartite(3, 3))],
        ids=["C4", "K2,3", "signed C4"],
    )
    def test_count_copies_reuses_the_level_0_search(self, searches, h, host):
        aut = automorphism_count(h)
        assert searches == [flat(h)]
        copies = count_copies(h, host)
        levels = [c for c in searches if c[0] is flat(h)[0]]
        assert levels.count(flat(h)) == 1 and len(levels) > 1
        # a repeat call on the same objects searches nothing
        before = len(searches)
        assert count_copies(h, host) == copies
        assert automorphism_count(h) == aut
        assert len(searches) == before

    def test_memoised_results_equal_fresh_searches(self):
        graphs_ = golden_graphs() + random_graphs(27, 300)
        assert sum(isinstance(g, SignedBipartiteGraph) for g in graphs_) > 100
        for g in graphs_:
            form, aut = canonical_form(g), automorphism_count(g)
            g_flat, colors = flat(g)
            other = copy_of(g)
            o_flat, _ = flat(other)
            assert o_flat is not g_flat and o_flat == g_flat
            assert canon._search(g_flat, colors) == canon._tree_search(o_flat, colors)
            assert (canonical_form(g), automorphism_count(g)) == (form, aut)
            assert (canonical_form(other), automorphism_count(other)) == (form, aut)

    def test_memoised_chain_equals_fresh_chain(self):
        for g in random_graphs(41, 60):
            if g.vertex_count > 12:
                continue
            g_flat, colors = flat(g)
            chain = _symmetry_conditions(g_flat, colors)
            assert _symmetry_conditions(g_flat, colors) == chain
            assert _symmetry_conditions(flat(copy_of(g))[0], colors) == chain

    def test_equal_objects_search_separately(self, searches):
        a, b = rook(4), rook(4)
        assert a == b and a is not b
        assert canonical_form(a) == canonical_form(b)
        assert searches == [flat(a), flat(b)]
        assert searches[0][0] is a and searches[1][0] is b
        assert a._searches is not b._searches
        signed_a, signed_b = signed_cycle(4), signed_cycle(4)
        assert automorphism_count(signed_a) == automorphism_count(signed_b)
        assert len(searches) == 4


class TestColorComplete:
    """canon's colour-complete test reads one vertex per cell, which is right
    only on the equitable partitions `_refine` leaves; on every partition
    the search reaches it must agree with the pairwise reference."""

    def test_agrees_with_the_pairwise_reference(self, monkeypatch):
        outcomes = []
        fast = canon._is_color_complete

        def checked(adj, cells):
            got = fast(adj, cells)
            assert got == is_color_complete_pairwise(adj, cells), cells
            outcomes.append(got)
            return got

        monkeypatch.setattr(canon, "_is_color_complete", checked)
        graphs_ = golden_graphs() + [hypercube(4), rook(4), shrikhande()] + random_graphs(13, 200)
        for g in graphs_:
            g_flat, colors = flat(g)
            canon._tree_search(g_flat, colors)
        assert outcomes.count(True) > 50 and outcomes.count(False) > 50
