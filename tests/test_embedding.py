"""Embedding enumeration, copy counting, rooted extensions, and freeness."""

import time
from itertools import combinations, islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeglue import canon, embed
from edgeglue.canon import automorphism_count
from edgeglue.embed import (
    count_copies,
    count_embeddings,
    enumerate_copies,
    enumerate_embeddings,
    is_free,
)
from edgeglue.errors import InvalidRootedPattern, InvariantViolation, SignMismatch
from edgeglue.gluing import RootedPattern, edge_rooted
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    complete_bipartite,
    component_roots,
    cycle,
    path,
    signed_complete_bipartite,
    signed_cycle,
    star,
)

from oracles import count_embeddings_naive


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

    @pytest.mark.parametrize(
        "h, g", [(signed_cycle(4), complete(4)), (cycle(4), signed_complete_bipartite(2, 2))]
    )
    def test_signed_with_unsigned_is_a_sign_mismatch(self, h, g):
        for call in (lambda: next(enumerate_embeddings(h, g)), lambda: count_embeddings(h, g),
                     lambda: next(enumerate_copies(h, g)), lambda: count_copies(h, g),
                     lambda: is_free(g, h)):
            with pytest.raises(SignMismatch):
                call()

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
        assert count_copies(h, g) * automorphism_count(h) == count_embeddings(h, g)

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

    def test_orbits_without_the_first_leaf_cells_are_caught(self, monkeypatch):
        """K4's search stops at one colour-complete leaf and finds no
        automorphism, so orbits read off the found ones alone are single
        vertices; the orbit sizes then multiply to 1, not |Aut| = 24."""

        def found_automorphisms_only(g, colors):
            _, aut, gens, _ = canon._search(g, colors)
            n = g.vertex_count
            return component_roots(n, [(u, gamma[u]) for gamma in gens for u in range(n)]), aut

        monkeypatch.setattr(embed, "_orbits", found_automorphisms_only)
        with pytest.raises(InvariantViolation):
            count_copies(complete(4), complete(6))

    def test_k66_chain_is_fast(self):
        """Each level of K_{6,6}'s chain is one refined canonical search;
        a backtracking orbit search without refinement took over half a
        second on it.  Each run gets a fresh pattern, because canon keeps
        its searches on the graph object."""
        best = float("inf")
        for _ in range(3):
            h = complete_bipartite(6, 6)
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
    """Edge-pinned streams, as the family builder draws them: _backtrack
    with the images of the root edge's ends fixed."""

    def test_edge_of_c4_onto_k22_edge(self):
        p = edge_rooted(cycle(4), (0, 1))
        host = complete_bipartite(2, 2)
        # with both endpoints pinned, the remaining two vertices are forced
        exts = stream(p.pattern, host, {0: 0, 1: 2})
        assert exts == [(0, 2, 1, 3)]
        # both orientations of the root edge onto the host edge together
        # account for the two labeled placements
        flipped = stream(p.pattern, host, {0: 2, 1: 0})
        assert len(exts) + len(flipped) == 2

    def test_degenerate_full_root_set_rejected(self):
        with pytest.raises(InvalidRootedPattern):
            RootedPattern(cycle(4), (0, 1, 2, 3), frozenset(cycle(4).edges))

    def test_isolated_host_image_gives_empty_stream(self):
        p = edge_rooted(cycle(4), (0, 1))
        host = LabeledGraph(5, [(0, 1)])  # vertices 2..4 isolated
        assert stream(p.pattern, host, {0: 0, 1: 1}) == []

    def test_extensions_partition_the_embeddings(self):
        p = edge_rooted(cycle(4), (0, 1))
        host = complete_bipartite(2, 3)
        total = 0
        for x in range(host.vertex_count):
            for y in range(host.vertex_count):
                if x != y and host.has_edge(x, y):
                    total += len(stream(p.pattern, host, {0: x, 1: y}))
        assert total == count_embeddings(cycle(4), host)


def permitted_maps(h, g, fixed=None, colors=None, host_colors=None, conditions=()):
    """Every map of the permitted kind, sorted, from all injective images
    of h's vertices in g: it extends fixed, keeps colours, sends edges to
    edges and meets every condition (v, w), map[v] < map[w]."""
    fixed = fixed or {}
    out = []
    for img in permutations(range(g.vertex_count), h.vertex_count):
        if any(img[v] != u for v, u in fixed.items()):
            continue
        if colors is not None and any(colors[v] != host_colors[u] for v, u in enumerate(img)):
            continue
        if not all(g.has_edge(img[a], img[b]) for a, b in h.edges):
            continue
        if any(img[v] >= img[w] for v, w in conditions):
            continue
        out.append(img)
    return sorted(out)


def stream(h, g, fixed=None, colors=None, host_colors=None, conditions=()):
    return list(embed._backtrack(h, g, fixed or {}, colors, host_colors, conditions))


def random_partial_map(rng, h, g, size):
    """A random injective map of `size` pattern vertices that keeps the
    adjacency among themselves, as _backtrack trusts its fixed pairs to;
    None when the draw breaks it."""
    domain = sorted(rng.choice(h.vertex_count, size, replace=False).tolist())
    images = rng.choice(g.vertex_count, size, replace=False).tolist()
    fixed = dict(zip(domain, images))
    for a, b in combinations(domain, 2):
        if h.has_edge(a, b) and not g.has_edge(fixed[a], fixed[b]):
            return None
    return fixed


class TestBacktrackStream:
    """The backtracker's stream, order included, equals every permitted map
    found by trying all injective images, sorted."""

    def test_unsigned_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            h = random_graph(rng, int(rng.integers(1, 6)))
            g = random_graph(rng, int(rng.integers(1, 8)))
            assert stream(h, g) == permitted_maps(h, g)

    def test_signed_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m, n = rng.integers(0, 4, size=2).tolist()
            h = SignedBipartiteGraph(m, n, [(p, q) for p in range(m) for q in range(n) if rng.random() < 0.6])
            m, n = rng.integers(1, 5, size=2).tolist()
            g = SignedBipartiteGraph(m, n, [(p, q) for p in range(m) for q in range(n) if rng.random() < 0.6])
            hf, gf = h.as_unsigned(), g.as_unsigned()
            expected = permitted_maps(hf, gf, colors=h.colors, host_colors=g.colors)
            assert [e.map for e in enumerate_embeddings(h, g)] == expected
            assert stream(hf, gf, colors=h.colors, host_colors=g.colors) == expected

    def test_fixed_partial_maps(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 60:
            h = random_graph(rng, int(rng.integers(2, 6)))
            g = random_graph(rng, int(rng.integers(h.vertex_count, 8)))
            fixed = random_partial_map(rng, h, g, int(rng.integers(1, h.vertex_count + 1)))
            if fixed is None:
                continue
            checked += 1
            assert stream(h, g, fixed) == permitted_maps(h, g, fixed)
            # conditions (v, w) on a placed w, with v fixed or placed before it
            pairs = permutations(range(h.vertex_count), 2)
            pairs = [(v, w) for v, w in pairs if w not in fixed and (v < w or v in fixed)]
            conditions = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(0, 3))]]
            assert stream(h, g, fixed, conditions=conditions) == permitted_maps(h, g, fixed, conditions=conditions)

    def test_extensions_of_rooted_patterns(self):
        host = random_graph(np.random.default_rng(23), 7)
        for h, e in [(cycle(4), (0, 1)), (cycle(5), (1, 2)), (path(4), (1, 2)), (C4_PLUS_ISOLATED, (2, 3))]:
            p = edge_rooted(h, e)
            for x, y in host.sorted_edges:
                for psi in ({e[0]: x, e[1]: y}, {e[0]: y, e[1]: x}):
                    assert stream(p.pattern, host, psi) == permitted_maps(h, host, psi)

    def test_copies_under_conditions(self):
        rng = np.random.default_rng(29)
        patterns = [cycle(4), path(4), star(3), C4_PLUS_ISOLATED, LabeledGraph(4, [(0, 1), (2, 3)])]
        for h in patterns:
            conditions, _ = embed._symmetry_conditions(h, None)
            for _ in range(4):
                g = random_graph(rng, int(rng.integers(h.vertex_count, 8)))
                expected = permitted_maps(h, g, conditions=conditions)
                assert stream(h, g, conditions=conditions) == expected
                assert [e.map for e in enumerate_copies(h, g)] == expected == orbit_least_maps(h, g)

    def test_hosts_below_the_pattern_degree(self):
        # the host's leaves and isolated vertices are below the star centre's degree
        host = LabeledGraph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6), (1, 2)])
        for h in [star(3), star(2), path(3), LabeledGraph(3, [(0, 1)])]:
            assert stream(h, host) == permitted_maps(h, host)

    def test_isolated_pattern_vertices(self):
        host = LabeledGraph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
        for h in [C4_PLUS_ISOLATED, LabeledGraph(2), LabeledGraph(3, [(1, 2)])]:
            assert stream(h, host) == permitted_maps(h, host)

    def test_all_fixed_map_is_yielded_once(self):
        assert stream(cycle(4), complete(5), {0: 4, 1: 2, 2: 0, 3: 1}) == [(4, 2, 0, 1)]
        assert stream(LabeledGraph(0), complete(3)) == [()]

    def test_pattern_larger_than_host(self):
        assert stream(path(3), complete(2)) == []
        assert stream(LabeledGraph(3), LabeledGraph(2), {0: 0, 1: 1}) == []



def frame_count(h, g, fixed=None, colors=None, host_colors=None, conditions=(), avoid=0):
    """The maps under _frames, counted the way count_embeddings counts them."""
    frames = embed._frames(h, g, fixed or {}, colors, host_colors, conditions, avoid)
    return sum(mask.bit_count() for _, _, mask in frames)


class TestCountingKernel:
    """The popcounts of the last-level masks equal the length of the per-map
    stream, the permutation scan and the public streams."""

    def test_unsigned_pairs(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            h = random_graph(rng, int(rng.integers(1, 6)))
            g = random_graph(rng, int(rng.integers(0, 8)))
            n = count_embeddings(h, g)
            assert n == len(stream(h, g)) == count_embeddings_naive(h, g) == frame_count(h, g)
            assert count_copies(h, g) == sum(1 for _ in enumerate_copies(h, g))

    def test_signed_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            m, n = rng.integers(0, 4, size=2).tolist()
            h = SignedBipartiteGraph(m, n, [(p, q) for p in range(m) for q in range(n) if rng.random() < 0.6])
            m, n = rng.integers(0, 5, size=2).tolist()
            g = SignedBipartiteGraph(m, n, [(p, q) for p in range(m) for q in range(n) if rng.random() < 0.6])
            hf, gf = h.as_unsigned(), g.as_unsigned()
            expected = permitted_maps(hf, gf, colors=h.colors, host_colors=g.colors)
            assert count_embeddings(h, g) == len(expected) == sum(1 for _ in enumerate_embeddings(h, g))
            if h.edge_count:
                assert count_copies(h, g) == sum(1 for _ in enumerate_copies(h, g))

    def test_one_level_patterns(self):
        host = random_graph(np.random.default_rng(43), 7)
        assert count_embeddings(LabeledGraph(1), host) == 7 == frame_count(LabeledGraph(1), host)
        # every vertex but one fixed: the search is the last level alone
        for h, fixed in [(path(3), {0: 0, 1: 1}), (cycle(4), {0: 0, 1: 1, 3: 2})]:
            g = complete(6)
            assert frame_count(h, g, fixed) == len(stream(h, g, fixed)) == len(permitted_maps(h, g, fixed))

    def test_pattern_larger_than_host_and_empty_host(self):
        assert count_embeddings(path(3), complete(2)) == 0 == count_copies(path(3), complete(2))
        assert count_embeddings(LabeledGraph(1), LabeledGraph(0)) == 0
        assert count_embeddings(LabeledGraph(0), LabeledGraph(0)) == 1 == len(stream(LabeledGraph(0), LabeledGraph(0)))
        assert count_embeddings(LabeledGraph(0), complete(3)) == 1

    def test_fully_fixed_map_is_one_frame(self):
        fixed = {0: 4, 1: 2, 2: 0, 3: 1}
        assert list(embed._frames(cycle(4), complete(5), fixed, None, None)) == [([4, 2, 0, 1], None, 1)]
        assert frame_count(cycle(4), complete(5), fixed) == 1

    def test_avoid_drops_exactly_the_maps_through_avoided_vertices(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            h = random_graph(rng, int(rng.integers(2, 5)))
            g = random_graph(rng, int(rng.integers(h.vertex_count, 8)))
            fixed = random_partial_map(rng, h, g, int(rng.integers(0, h.vertex_count)))
            if fixed is None:
                continue
            avoid = int(rng.integers(0, 1 << g.vertex_count))
            placed = [v for v in range(h.vertex_count) if v not in fixed]
            expected = [m for m in permitted_maps(h, g, fixed) if not any(avoid >> m[v] & 1 for v in placed)]
            got = list(embed._backtrack(h, g, fixed, None, None, avoid=avoid))
            assert got == expected
            assert frame_count(h, g, fixed, avoid=avoid) == len(expected)

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
