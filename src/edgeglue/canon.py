"""Canonical labeling and automorphism counting.

Canonicalization uses colour refinement plus individualization/backtracking:
refine to an equitable partition, then individualize each vertex of the
first non-singleton cell and take the minimum certificate over the branches.
For graphs with at most 8 vertices an exhaustive-permutation fallback is
available as an independent oracle (used by the tests).

The certificate of an unsigned graph is the graph6 string of the
canonically relabeled graph, so certificates double as decodable graph
encodings.  Signed certificates carry the part sizes and the canonical
bipartite adjacency bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .errors import SizeExceeded
from .graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    decode_graph6,
    decode_sb,
    encode_graph6,
    encode_sb,
)

MAX_CANONICAL_VERTICES = 32
MAX_AUTOMORPHISM_VERTICES = 16


@dataclass(frozen=True, order=True)
class CanonicalLabel:
    """Opaque isomorphism certificate; equal iff the graphs are isomorphic."""

    bytes: bytes

    def __repr__(self):
        return f"CanonicalLabel({self.bytes!r})"


def _refine(adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """Iterate colour refinement to a stable partition."""
    n = len(adj)
    while True:
        buckets = {}
        for v in range(n):
            m = adj[v]
            sig = [0] * (max(colors) + 1 if colors else 0)
            u = 0
            while m:
                low = m & -m
                u = low.bit_length() - 1
                sig[colors[u]] += 1
                m ^= low
            key = (colors[v], tuple(sig))
            buckets.setdefault(key, []).append(v)
        new_colors = [0] * n
        for c, (_, members) in enumerate(sorted(buckets.items())):
            for v in members:
                new_colors[v] = c
        if new_colors == colors:
            return colors
        colors = new_colors


def _cells(colors: list[int]) -> list[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _certificate_for_order(adj: tuple[int, ...], order: list[int]) -> tuple:
    """Adjacency bits of the graph relabeled so order[i] becomes i."""
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bits = []
    for j in range(1, n):
        vj = order[j]
        row = adj[vj]
        for i in range(j):
            bits.append(row >> order[i] & 1)
    return tuple(bits)


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    """True when swapping u and v alone is an automorphism."""
    mask = ~((1 << u) | (1 << v))
    return adj[u] & mask == adj[v] & mask


def _canonical_search(adj: tuple[int, ...], colors: list[int]):
    """Return (bits, order) minimizing the certificate over the search tree."""
    colors = _refine(adj, colors)
    cells = _cells(colors)
    target = None
    for cell in cells:
        if len(cell) > 1:
            target = cell
            break
    if target is None:
        order = [v for cell in cells for v in cell]
        return _certificate_for_order(adj, order), order
    if _is_color_complete(adj, cells):
        # adjacency is constant between (and inside) colour classes, so every
        # cell-consistent order produces the same certificate
        order = [v for cell in cells for v in cell]
        return _certificate_for_order(adj, order), order
    best = None
    best_order = None
    tried: list[int] = []
    for v in target:
        # branches on pairwise-interchangeable vertices yield identical
        # certificate sets; one representative per twin class suffices
        if any(_twins(adj, v, w) for w in tried):
            continue
        tried.append(v)
        branch = list(colors)
        # individualize v: give it a colour just below its cell
        for u in range(len(branch)):
            branch[u] = branch[u] * 2
        branch[v] -= 1
        bits, order = _canonical_search(adj, branch)
        if best is None or bits < best:
            best, best_order = bits, order
    return best, best_order


def _initial_colors(g: LabeledGraph, colors=None) -> list[int]:
    if colors is None:
        return [0] * g.vertex_count
    return list(colors)


def canonical_form(g: LabeledGraph | SignedBipartiteGraph) -> CanonicalLabel:
    """Isomorphism-invariant certificate; sign-respecting in the signed case."""
    if isinstance(g, SignedBipartiteGraph):
        return _canonical_form_signed(g)
    if g.vertex_count > MAX_CANONICAL_VERTICES:
        raise SizeExceeded(
            f"canonical_form supports at most {MAX_CANONICAL_VERTICES} vertices"
        )
    if g.vertex_count == 0:
        return CanonicalLabel(b"g6:?")
    _, order = _canonical_search(g.adjacency, _initial_colors(g))
    pos = [0] * g.vertex_count
    for i, v in enumerate(order):
        pos[v] = i
    return CanonicalLabel(b"g6:" + encode_graph6(g.relabel(pos)).encode())


def _canonical_form_signed(g: SignedBipartiteGraph) -> CanonicalLabel:
    if g.vertex_count > MAX_CANONICAL_VERTICES:
        raise SizeExceeded(
            f"canonical_form supports at most {MAX_CANONICAL_VERTICES} vertices"
        )
    flat = g.as_unsigned()
    if g.vertex_count == 0:
        order = []
    else:
        # + and - are colours that may not be exchanged
        _, order = _canonical_search(flat.adjacency, list(g.colors))
    pos = [0] * g.vertex_count
    for i, v in enumerate(order):
        pos[v] = i
    # colour classes stay contiguous, + first, because refinement only splits
    relabeled = SignedBipartiteGraph.from_flat(g.plus_count, flat.relabel(pos))
    return CanonicalLabel(encode_sb(relabeled).encode())


def decode_canonical(label: CanonicalLabel) -> LabeledGraph | SignedBipartiteGraph:
    """Certificates are decodable: recover the canonical representative."""
    raw = label.bytes
    if raw.startswith(b"g6:"):
        return decode_graph6(raw[3:].decode())
    if raw.startswith(b"sb:"):
        return decode_sb(raw.decode())
    raise ValueError("unknown certificate format")


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


def _is_color_complete(adj, cells) -> bool:
    """True when adjacency is determined by the refined colour classes alone."""
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


def _count_color_preserving_maps(adj, colors) -> int:
    """Backtracking count of colour- and adjacency-preserving permutations."""
    n = len(adj)
    candidates = [
        [u for u in range(n) if colors[u] == colors[v]] for v in range(n)
    ]
    count = 0
    image = [-1] * n
    used = 0

    def place(v):
        nonlocal count, used
        if v == n:
            count += 1
            return
        av = adj[v]
        for u in candidates[v]:
            if used >> u & 1:
                continue
            ok = True
            for w in range(v):
                if (av >> w & 1) != (adj[u] >> image[w] & 1):
                    ok = False
                    break
            if ok:
                image[v] = u
                used |= 1 << u
                place(v + 1)
                used ^= 1 << u
        image[v] = -1

    place(0)
    return count


def automorphism_count(h: LabeledGraph, signed_colors=None) -> int:
    """|Aut(h)|; with signed_colors, only colour-preserving automorphisms."""
    n = h.vertex_count
    if n > MAX_AUTOMORPHISM_VERTICES:
        raise SizeExceeded(
            f"automorphism_count supports at most {MAX_AUTOMORPHISM_VERTICES} vertices"
        )
    if n == 0:
        return 1
    colors = _refine(h.adjacency, _initial_colors(h, signed_colors))
    cells = _cells(colors)
    if _is_color_complete(h.adjacency, cells):
        out = 1
        for cell in cells:
            out *= factorial(len(cell))
        return out
    return _count_color_preserving_maps(h.adjacency, colors)


def signed_automorphism_count(h: SignedBipartiteGraph) -> int:
    """Automorphisms fixing the + and - sides setwise."""
    return automorphism_count(h.as_unsigned(), signed_colors=h.colors)


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
