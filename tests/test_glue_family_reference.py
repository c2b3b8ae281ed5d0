"""`glue_family` glues one orientation per edge-flip symmetry class.

The reference below is the plain loop over all 2^(t-1) orientations; the
family must come out the same, labeled graph for labeled graph and in the
same order.  The flip test (an automorphism of a part swaps its marked
edge's ends) is checked against a scan of every vertex permutation.
"""

import random
import time
from itertools import permutations, product

import pytest

from edgeglue import gluing
from edgeglue.canon import _swaps_ends, canonical_form
from edgeglue.errors import SizeExceeded
from edgeglue.gluing import GluingSpec, _glue_oriented, glue_family
from edgeglue.graphs import LabeledGraph, complete_bipartite, cycle, path, star


def glue_family_every_orientation(spec: GluingSpec) -> list[LabeledGraph]:
    """Every orientation glued and canonicalised, the first graph of each
    form kept, sorted by certificate."""
    parts = spec.parts
    seen = {}
    for flips in product((False, True), repeat=len(parts) - 1):
        g = _glue_oriented(parts, (False,) + flips)[0]
        seen.setdefault(canonical_form(g), g)
    return [seen[c] for c in sorted(seen)]


def random_part(rng: random.Random) -> LabeledGraph:
    kind = rng.choice(("cycle", "path", "star", "kab", "random"))
    if kind == "cycle":
        return cycle(rng.randint(3, 7))
    if kind == "path":
        return path(rng.randint(2, 7))
    if kind == "star":
        return star(rng.randint(1, 6))
    if kind == "kab":
        a = rng.randint(1, 3)
        return complete_bipartite(a, rng.randint(1, 7 - a))
    while True:
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        if edges:
            return LabeledGraph(n, edges)


def random_spec(rng: random.Random) -> GluingSpec:
    parts = []
    for _ in range(rng.randint(1, 5)):
        g = random_part(rng)
        a, b = rng.choice(g.sorted_edges)
        parts.append((g, (a, b) if rng.random() < 0.5 else (b, a)))
    return GluingSpec(tuple(parts))


def labeled(family):
    return [(g.vertex_count, g.edges) for g in family]


@pytest.mark.parametrize("seed", range(4))
def test_same_labeled_family_as_every_orientation(seed):
    rng = random.Random(seed)
    for _ in range(100):
        spec = random_spec(rng)
        assert 2 + sum(g.vertex_count - 2 for g, _ in spec.parts) <= 34
        assert labeled(glue_family(spec)) == labeled(glue_family_every_orientation(spec))


def graphs_up_to_isomorphism(max_n: int):
    """One graph per isomorphism class on 1..max_n vertices: each class on n
    vertices arises from one on n - 1 by adding a vertex and its neighbours."""
    layer = [LabeledGraph(1)]
    yield from layer
    for n in range(2, max_n + 1):
        seen = {}
        for g in layer:
            for mask in range(1 << (n - 1)):
                h = LabeledGraph(n, list(g.edges) + [(v, n - 1) for v in range(n - 1) if mask >> v & 1])
                seen.setdefault(canonical_form(h), h)
        layer = list(seen.values())
        yield from layer


def swapped_edges_by_scan(g: LabeledGraph) -> set[tuple[int, int]]:
    """The edges whose ends some automorphism of g swaps, over all n! maps."""
    swapped = set()
    for p in permutations(range(g.vertex_count)):
        if all(tuple(sorted((p[a], p[b]))) in g.edges for a, b in g.edges):
            swapped |= {(a, b) for a, b in g.edges if p[a] == b and p[b] == a}
    return swapped


def test_swaps_ends_matches_a_permutation_scan():
    graphs = list(graphs_up_to_isomorphism(6))
    # 1, 2, 4, 11, 34 and 156 classes
    assert len(graphs) == 208
    for g in graphs:
        expected = swapped_edges_by_scan(g)
        for a, b in g.edges:
            assert _swaps_ends(g, a, b) == ((a, b) in expected), (g, (a, b))
            assert _swaps_ends(g, b, a) == ((a, b) in expected), (g, (b, a))


def double_star(k: int, l: int) -> LabeledGraph:
    """Edge 0-1, with k leaves on 0 and l leaves on 1."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)] + [(1, 2 + k + i) for i in range(l)]
    return LabeledGraph(2 + k + l, edges)


def spider_and_star(k: int) -> LabeledGraph:
    """Edge 0-1 with equal end degrees: 1 has k leaves, numbered first, and
    0 has k paths of length 2 hanging off it."""
    edges = [(0, 1)] + [(1, 2 + i) for i in range(k)] + [(0, 2 + k + i) for i in range(k)]
    return LabeledGraph(2 + 3 * k, edges + [(2 + k + i, 2 + 2 * k + i) for i in range(k)])


@pytest.mark.parametrize("part", [double_star(8, 9), spider_and_star(10)], ids=["S(8,9)", "spider+star"])
def test_flip_test_is_fast_when_refinement_splits_the_ends(part):
    """No automorphism swaps these parts' marked ends (20 and 32 vertices),
    and colour refinement tells them apart at once.  A backtracker that only
    compares degrees tries about k! placements of the leaves first: on a
    2-vCPU VM, S(6,7) alone took 8 s that way and the spider with k = 8
    took 0.15 s.  Each run glues fresh parts, because canon keeps its
    searches on the graph object."""
    best = float("inf")
    for _ in range(3):
        spec = GluingSpec(((path(2), (0, 1)), (LabeledGraph(part.vertex_count, part.edges), (0, 1))))
        start = time.perf_counter()
        family = glue_family(spec)
        best = min(best, time.perf_counter() - start)
    assert labeled(family) == labeled(glue_family_every_orientation(spec))
    assert len(family) == 1
    assert best < 1


@pytest.mark.parametrize(
    "parts, searches",
    [
        (((cycle(6), (0, 1)),) * 8, 1),
        (((path(3), (0, 1)), (path(3), (0, 1))), 2),
        (
            (
                (cycle(4), (0, 1)),
                (cycle(6), (0, 1)),
                (cycle(8), (0, 1)),
                (complete_bipartite(2, 3), (0, 2)),
            ),
            1,
        ),
    ],
    ids=["8xC6", "P3+P3", "C4+C6+C8+K2,3"],
)
def test_canonical_searches_per_family(monkeypatch, parts, searches):
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(gluing, "canonical_form", counted)
    glue_family(GluingSpec(parts))
    assert len(calls) == searches


def test_size_cap_still_raised_by_the_one_search():
    with pytest.raises(SizeExceeded, match="at most 34 vertices"):
        glue_family(GluingSpec(((cycle(6), (0, 1)),) * 9))
