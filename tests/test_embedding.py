"""Embedding enumeration, copy counting, rooted extensions, and freeness."""

import time
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeglue import embed
from edgeglue.canon import automorphism_count, signed_automorphism_count
from edgeglue.embed import (
    count_copies,
    count_embeddings,
    count_embeddings_naive,
    enumerate_copies,
    enumerate_embeddings,
    enumerate_extensions,
    is_free,
)
from edgeglue.errors import InvalidPartialMap, InvalidRootedPattern, InvariantViolation
from edgeglue.gluing import RootedPattern, edge_rooted
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    complete_bipartite,
    cycle,
    path,
    signed_complete_bipartite,
    signed_cycle,
)


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return LabeledGraph(n, [e for e in pairs if rng.random() < 0.5])


class TestEnumerate:
    def test_c4_into_itself(self):
        assert count_embeddings(cycle(4), cycle(4)) == 8

    def test_edge_into_k33(self):
        k2 = LabeledGraph(2, [(0, 1)])
        assert count_embeddings(k2, complete_bipartite(3, 3)) == 18

    def test_c4_into_k23(self):
        assert count_embeddings(cycle(4), complete_bipartite(2, 3)) == 24

    def test_order_is_lexicographic_and_limit_works(self):
        maps = [e.map for e in enumerate_embeddings(cycle(4), cycle(4))]
        assert maps == sorted(maps)
        limited = list(islice(enumerate_embeddings(cycle(4), cycle(4)), 3))
        assert [e.map for e in limited] == maps[:3]

    def test_signed_embeddings_respect_sides(self):
        h, g = signed_cycle(4), signed_complete_bipartite(3, 3)
        embs = list(enumerate_embeddings(h, g))
        assert len(embs) == 36
        for emb in embs:
            assert all(emb.map[p] < 3 for p in range(2))  # + stays in +
            assert all(emb.map[2 + q] >= 3 for q in range(2))

    def test_matches_naive_oracle_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            h = random_graph(rng, int(rng.integers(2, 6)))
            g = random_graph(rng, int(rng.integers(2, 9)))
            assert count_embeddings(h, g) == count_embeddings_naive(h, g)


class TestCountCopies:
    def test_known_counts(self):
        assert count_copies(cycle(4), complete_bipartite(2, 3)) == 3
        assert count_copies(cycle(4), cycle(4)) == 1
        k2 = LabeledGraph(2, [(0, 1)])
        assert count_copies(k2, complete_bipartite(3, 3)) == 9

    def test_copies_times_aut_is_embedding_count(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = random_graph(rng, int(rng.integers(2, 6)))
            if h.edge_count == 0:
                continue
            g = random_graph(rng, int(rng.integers(2, 9)))
            assert (
                count_copies(h, g) * automorphism_count(h)
                == count_embeddings(h, g)
            )


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph(n, edges)


@st.composite
def signed_graphs(draw, max_side):
    m = draw(st.integers(min_value=0, max_value=max_side))
    n = draw(st.integers(min_value=0, max_value=max_side))
    cells = [(p, q) for p in range(m) for q in range(n)]
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return SignedBipartiteGraph(m, n, edges)


def orbit_least_maps(h, g) -> list[tuple[int, ...]]:
    """The embeddings of h into g that are least in their Aut(h)-orbit, with
    the automorphisms found by trying every permutation of h's vertices."""
    colors = None
    if isinstance(h, SignedBipartiteGraph):
        colors = h.colors
        flat = h.as_unsigned()
    else:
        flat = h
    k = flat.vertex_count
    aut = [
        s
        for s in permutations(range(k))
        if all(flat.has_edge(s[a], s[b]) for a, b in flat.edges)
        and (colors is None or all(colors[s[v]] == colors[v] for v in range(k)))
    ]
    least, seen = [], set()
    for emb in enumerate_embeddings(h, g):  # lexicographic: orbits start at their least map
        if emb.map not in seen:
            least.append(emb.map)
            seen.update(tuple(emb.map[s[v]] for v in range(k)) for s in aut)
    return least


C4_PLUS_ISOLATED = LabeledGraph(5, cycle(4).edges)


class TestEnumerateCopies:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=6), graphs(max_n=8))
    def test_stream_is_the_orbit_least_embeddings(self, h, g):
        copies = list(enumerate_copies(h, g))
        assert [e.map for e in copies] == orbit_least_maps(h, g)
        assert count_copies(h, g) == len(copies)
        assert count_copies(h, g) * automorphism_count(h) == count_embeddings_naive(h, g)

    @settings(max_examples=100, deadline=None)
    @given(signed_graphs(max_side=3), signed_graphs(max_side=4))
    def test_signed_stream_is_the_orbit_least_embeddings(self, h, g):
        copies = list(enumerate_copies(h, g))
        assert [e.map for e in copies] == orbit_least_maps(h, g)
        assert count_copies(h, g) * signed_automorphism_count(h) == count_embeddings(h, g)

    def test_isolated_vertex_and_disconnected_patterns(self):
        assert count_copies(C4_PLUS_ISOLATED, complete(6)) == 45 * 2
        two_k2 = LabeledGraph(4, [(0, 1), (2, 3)])
        assert count_copies(two_k2, complete(5)) == 15

    def test_stream_is_lexicographic_with_one_map_per_copy(self):
        copies = list(enumerate_copies(cycle(6), complete(7)))
        maps = [e.map for e in copies]
        assert maps == sorted(maps)
        images = {frozenset(e.image_edge(f) for f in e.pattern.edges) for e in copies}
        assert len(images) == len(copies) == count_embeddings(cycle(6), complete(7)) // 12

    def test_unchecked_orbit_search_is_caught(self, monkeypatch):
        """Without the edge check on the fixed pairs, the orbit search maps
        the C4's last vertex onto the isolated one; the orbit sizes then
        multiply to 16, not |Aut| = 8."""

        def skip_edge_check(h, colors, fixed):
            return next(embed._backtrack(h, h, fixed, colors, colors), None) is not None

        monkeypatch.setattr(embed, "_extends_to_automorphism", skip_edge_check)
        with pytest.raises(InvariantViolation):
            count_copies(C4_PLUS_ISOLATED, complete(6))

    def test_k66_chain_is_fast(self):
        """Partial maps that break a non-edge are refuted when made; before,
        the edge-only search took over half a second on K_{6,6}."""
        h = complete_bipartite(6, 6)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _, order = embed._symmetry_conditions(h, None)
            best = min(best, time.perf_counter() - start)
        assert order == 2 * 720 * 720
        assert best < 0.02

    def test_disagreeing_automorphism_count_is_caught(self, monkeypatch):
        monkeypatch.setattr(embed, "automorphism_count", lambda h: 4)
        with pytest.raises(InvariantViolation):
            count_copies(cycle(4), complete(5))


class TestExtensions:
    def test_edge_of_c4_onto_k22_edge(self):
        p = edge_rooted(cycle(4), (0, 1))
        host = complete_bipartite(2, 2)
        # with both endpoints pinned, the remaining two vertices are forced
        exts = list(enumerate_extensions({0: 0, 1: 2}, p, host))
        assert len(exts) == 1
        assert exts[0].map == (0, 2, 1, 3)
        # both orientations of the root edge onto the host edge together
        # account for the two labeled placements
        flipped = list(enumerate_extensions({0: 2, 1: 0}, p, host))
        assert len(exts) + len(flipped) == 2

    def test_degenerate_full_root_set_rejected(self):
        with pytest.raises(InvalidRootedPattern):
            RootedPattern(cycle(4), (0, 1, 2, 3), frozenset(cycle(4).edges))

    def test_isolated_host_image_gives_empty_stream(self):
        p = edge_rooted(cycle(4), (0, 1))
        host = LabeledGraph(5, [(0, 1)])  # vertices 2..4 isolated
        assert list(enumerate_extensions({0: 0, 1: 1}, p, host)) == []

    def test_invalid_psi_rejected(self):
        p = edge_rooted(cycle(4), (0, 1))
        host = complete_bipartite(2, 2)
        with pytest.raises(InvalidPartialMap):
            list(enumerate_extensions({0: 0, 1: 0}, p, host))  # not injective
        with pytest.raises(InvalidPartialMap):
            list(enumerate_extensions({0: 0, 1: 1}, p, host))  # F-edge broken
        with pytest.raises(InvalidPartialMap):
            list(enumerate_extensions({0: 0}, p, host))  # wrong domain

    def test_extensions_partition_the_embeddings(self):
        p = edge_rooted(cycle(4), (0, 1))
        host = complete_bipartite(2, 3)
        total = 0
        for x in range(host.vertex_count):
            for y in range(host.vertex_count):
                if x != y and host.has_edge(x, y):
                    total += sum(1 for _ in enumerate_extensions({0: x, 1: y}, p, host))
        assert total == count_embeddings(cycle(4), host)


class TestIsFree:
    def test_triangle_with_pendant_is_c4_free(self):
        g = LabeledGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert is_free(g, cycle(4))

    def test_k22_contains_c4(self):
        assert not is_free(complete_bipartite(2, 2), cycle(4))

    def test_edge_freeness_is_edgelessness(self):
        k2 = LabeledGraph(2, [(0, 1)])
        assert is_free(LabeledGraph(3), k2)
        assert not is_free(path(3), k2)
