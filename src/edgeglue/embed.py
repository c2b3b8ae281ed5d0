"""Injective edge-preserving maps of a pattern into a host.

Embeddings are labeled: the map sends pattern vertex i to a distinct host
vertex, and every pattern edge lands on a host edge (non-induced).  Signed
embeddings additionally keep the + side of the pattern inside the + side of
the host.  Enumeration is a bitset backtracker that assigns pattern vertices
in index order with ascending candidates, so the stream is lexicographic on
the map tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .canon import automorphism_count, signed_automorphism_count
from .errors import InvalidPartialMap, InvariantViolation, SizeExceeded
from .graphs import LabeledGraph, SignedBipartiteGraph

MAX_PATTERN_VERTICES = 12
# the flattened host of z(1, 64): m + n peaks at 65 inside the m*n <= 64 cap
MAX_HOST_VERTICES = 65


@dataclass(frozen=True)
class Embedding:
    """map[i] = host vertex assigned to pattern vertex i."""

    pattern: LabeledGraph
    host: LabeledGraph
    map: tuple[int, ...]

    def image(self) -> frozenset[int]:
        return frozenset(self.map)

    def image_edge(self, e) -> tuple[int, int]:
        a, b = self.map[e[0]], self.map[e[1]]
        return (a, b) if a < b else (b, a)


def _check_caps(pattern_n: int, host_n: int):
    if pattern_n > MAX_PATTERN_VERTICES:
        raise SizeExceeded(f"pattern limited to {MAX_PATTERN_VERTICES} vertices")
    if host_n > MAX_HOST_VERTICES:
        raise SizeExceeded(f"host limited to {MAX_HOST_VERTICES} vertices")


def _backtrack(
    pattern: LabeledGraph,
    host: LabeledGraph,
    fixed: dict[int, int],
    pattern_colors: Optional[Sequence[int]],
    host_colors: Optional[Sequence[int]],
    limit: Optional[int],
) -> Iterator[Embedding]:
    pn, hn = pattern.vertex_count, host.vertex_count
    if pn > hn:
        return
    padj, hadj = pattern.adjacency, host.adjacency
    pdeg, hdeg = pattern.degrees, host.degrees
    image = [-1] * pn
    used = 0
    for v, u in fixed.items():
        image[v] = u
        used |= 1 << u
    full_mask = (1 << hn) - 1
    yielded = 0

    def candidates(v: int) -> Iterator[int]:
        mask = full_mask & ~used
        # intersect host neighborhoods of already-placed pattern neighbors
        m = padj[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            if image[w] >= 0:
                mask &= hadj[image[w]]
        dv = pdeg[v]
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            if hdeg[u] < dv:
                continue
            if pattern_colors is not None and pattern_colors[v] != host_colors[u]:
                continue
            yield u

    order = [v for v in range(pn) if v not in fixed]

    def place(idx: int) -> Iterator[Embedding]:
        nonlocal used, yielded
        if idx == len(order):
            yield Embedding(pattern, host, tuple(image))
            return
        v = order[idx]
        for u in candidates(v):
            image[v] = u
            used |= 1 << u
            yield from place(idx + 1)
            used ^= 1 << u
            image[v] = -1

    for emb in place(0):
        yield emb
        yielded += 1
        if limit is not None and yielded >= limit:
            return


def enumerate_embeddings(h, g, limit: Optional[int] = None) -> Iterator[Embedding]:
    """Every injective edge-preserving map of h into g, lexicographic order.

    Both arguments unsigned LabeledGraphs, or both SignedBipartiteGraphs
    (then the map preserves sides, expressed on the flattened vertex sets).
    """
    if isinstance(h, SignedBipartiteGraph) != isinstance(g, SignedBipartiteGraph):
        raise TypeError("pattern and host must both be signed or both unsigned")
    if isinstance(h, SignedBipartiteGraph):
        pc, hc = h.colors, g.colors
        h, g = h.as_unsigned(), g.as_unsigned()
    else:
        pc = hc = None
    _check_caps(h.vertex_count, g.vertex_count)
    yield from _backtrack(h, g, {}, pc, hc, limit)


def count_embeddings(h, g) -> int:
    return sum(1 for _ in enumerate_embeddings(h, g))


def count_copies(h, g) -> int:
    """Unlabeled copies: embeddings divided by the automorphism count."""
    total = count_embeddings(h, g)
    if isinstance(h, SignedBipartiteGraph):
        aut = signed_automorphism_count(h)
    else:
        aut = automorphism_count(h)
    if total % aut:
        raise InvariantViolation(f"{total} embeddings is not a multiple of |Aut| = {aut}")
    return total // aut


def is_free(g, h) -> bool:
    """True iff g contains no copy of h; short-circuits on the first hit."""
    return next(enumerate_embeddings(h, g, limit=1), None) is None


def enumerate_extensions(psi, rooted_pattern, host: LabeledGraph) -> Iterator[Embedding]:
    """All full embeddings of the rooted pattern's H that restrict to psi on F.

    psi maps the pattern's root vertices to host vertices, given either as a
    dict {root vertex -> host vertex} or a sequence aligned with
    rooted_pattern.root_vertices.
    """
    p = rooted_pattern
    roots = list(p.root_vertices)
    if not isinstance(psi, dict):
        if len(psi) != len(roots):
            raise InvalidPartialMap("psi length does not match root count")
        psi = dict(zip(roots, psi))
    if set(psi) != set(roots):
        raise InvalidPartialMap("psi must be defined exactly on the root vertices")
    images = list(psi.values())
    if len(set(images)) != len(images):
        raise InvalidPartialMap("psi is not injective")
    for u in images:
        host.check_vertex(u)
    for a, b in p.root_edges:
        if not host.has_edge(psi[a], psi[b]):
            raise InvalidPartialMap(f"psi does not embed F: edge {(a, b)} broken")
    # H-edges inside the root set but outside F must also land on host edges,
    # otherwise no extension exists
    rootset = set(roots)
    for a, b in p.pattern.edges:
        if a in rootset and b in rootset and not host.has_edge(psi[a], psi[b]):
            return
    _check_caps(p.pattern.vertex_count, host.vertex_count)
    yield from _backtrack(p.pattern, host, dict(psi), None, None, None)


def count_embeddings_naive(h: LabeledGraph, g: LabeledGraph) -> int:
    """Independent oracle: scan all injective maps."""
    from itertools import permutations

    pn, hn = h.vertex_count, g.vertex_count
    if pn > hn:
        return 0
    count = 0
    for img in permutations(range(hn), pn):
        if all(g.has_edge(img[a], img[b]) for a, b in h.edges):
            count += 1
    return count
