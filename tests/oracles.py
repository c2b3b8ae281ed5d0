"""Brute-force oracles the tests check the engines against.

Each scans every permutation, so it shares no code with the search it
checks; the sizes are kept small.
"""

from itertools import permutations

from edgeglue.canon import CanonicalLabel
from edgeglue.errors import SizeExceeded
from edgeglue.graphs import LabeledGraph, encode_graph6


def count_embeddings_naive(h: LabeledGraph, g: LabeledGraph) -> int:
    """Independent oracle: scan all injective maps."""
    pn, hn = h.vertex_count, g.vertex_count
    if pn > hn:
        return 0
    count = 0
    for img in permutations(range(hn), pn):
        if all(g.has_edge(img[a], img[b]) for a, b in h.edges):
            count += 1
    return count


def automorphism_count_bruteforce(h: LabeledGraph) -> int:
    """Exhaustive-permutation oracle, v <= 8."""
    n = h.vertex_count
    if n > 8:
        raise SizeExceeded("brute-force automorphism oracle limited to 8 vertices")
    edges = h.edges
    count = 0
    for perm in permutations(range(n)):
        if all((min(perm[a], perm[b]), max(perm[a], perm[b])) in edges for a, b in edges):
            count += 1
    return count


def canonical_form_bruteforce(g: LabeledGraph) -> CanonicalLabel:
    """Exhaustive-permutation canonicalization oracle, v <= 8."""
    n = g.vertex_count
    if n > 8:
        raise SizeExceeded("brute-force canonical oracle limited to 8 vertices")
    if n == 0:
        return CanonicalLabel(b"g6:?")
    best = None
    for perm in permutations(range(n)):
        enc = encode_graph6(g.relabel(perm))
        if best is None or enc < best:
            best = enc
    return CanonicalLabel(b"g6:" + best.encode())


def is_color_complete_pairwise(adj, cells) -> bool:
    """Reference colour-complete test: scans every pair of distinct vertices
    in every pair of cells and requires one adjacency bit per cell pair.
    Unlike canon's test it does not need the cells to be equitable."""
    for a in range(len(cells)):
        for b in range(a, len(cells)):
            seen = set()
            for u in cells[a]:
                for v in cells[b]:
                    if u == v:
                        continue
                    seen.add(adj[u] >> v & 1)
            if len(seen) > 1:
                return False
    return True
