"""Injective edge-preserving maps of a pattern into a host, and its copies.

Embeddings are labeled: the map sends pattern vertex i to a distinct host
vertex, and every pattern edge lands on a host edge (non-induced).  Signed
embeddings additionally keep the + side of the pattern inside the + side of
the host.  Enumeration is a bitset backtracker that assigns pattern vertices
in index order with ascending candidates, so the stream is lexicographic on
the map tuple.

A copy of H is the image of an embedding, and every copy is the image of
exactly |Aut(H)| embeddings: f and f∘σ for the automorphisms σ.
`enumerate_copies` yields one embedding per copy, the lexicographically least
map of its Aut(H)-orbit, by symmetry-breaking conditions (Grochow & Kellis,
"Network motif discovery using subgraph enumeration and symmetry-breaking",
RECOMB 2007).  Take the stabiliser chain over the pattern vertices in index
order: for each v, the orbit O_v of v under the automorphisms that fix
0..v-1.  A least map f sends v below every other member of O_v, since some
automorphism fixing 0..v-1 swaps any w in O_v into place v and would
otherwise give a smaller map; conversely the conditions f(v) < f(w), for
every v and every w in O_v other than v, pick that least map out of each
orbit.  The backtracker applies them as lower bounds on the candidates of w,
because v < w is placed first, so the copies come in lexicographic order.
By orbit-stabilizer the product of the |O_v| is |Aut(H)|, which
`count_copies` checks against the canonical search in `canon`.
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
    conditions: Sequence[tuple[int, int]] = (),
    induced: bool = False,
) -> Iterator[Embedding]:
    """Embeddings extending fixed, which is trusted to embed its own pairs.

    Each condition (v, w) asks map[v] < map[w]; v must be fixed or come
    before w in index order, so it is placed when w's candidates are drawn.
    With induced, pattern non-edges must land on host non-edges too.
    """
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
    if induced:
        pnon = [(1 << pn) - 1 & ~padj[v] & ~(1 << v) for v in range(pn)]
    yielded = 0
    below: list[list[int]] = [[] for _ in range(pn)]
    for v, w in conditions:
        below[w].append(v)

    def candidates(v: int) -> Iterator[int]:
        mask = full_mask & ~used
        for a in below[v]:
            mask &= -2 << image[a]  # host vertices above image[a]
        # intersect host neighborhoods of already-placed pattern neighbors
        m = padj[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            if image[w] >= 0:
                mask &= hadj[image[w]]
        if induced:
            m = pnon[v]
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if image[w] >= 0:
                    mask &= ~hadj[image[w]]
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


def _flatten(h, g):
    """(pattern, host, pattern colours, host colours) on flattened vertex sets;
    the colours are None for unsigned graphs."""
    if isinstance(h, SignedBipartiteGraph) != isinstance(g, SignedBipartiteGraph):
        raise TypeError("pattern and host must both be signed or both unsigned")
    if isinstance(h, SignedBipartiteGraph):
        pc, hc = h.colors, g.colors
        h, g = h.as_unsigned(), g.as_unsigned()
    else:
        pc = hc = None
    _check_caps(h.vertex_count, g.vertex_count)
    return h, g, pc, hc


def enumerate_embeddings(h, g, limit: Optional[int] = None) -> Iterator[Embedding]:
    """Every injective edge-preserving map of h into g, lexicographic order.

    Both arguments unsigned LabeledGraphs, or both SignedBipartiteGraphs
    (then the map preserves sides, expressed on the flattened vertex sets).
    """
    h, g, pc, hc = _flatten(h, g)
    yield from _backtrack(h, g, {}, pc, hc, limit)


def count_embeddings(h, g) -> int:
    return sum(1 for _ in enumerate_embeddings(h, g))


def _extends_to_automorphism(
    h: LabeledGraph, colors: Optional[Sequence[int]], fixed: dict[int, int]
) -> bool:
    """True iff some colour-preserving automorphism of h agrees with fixed.

    _backtrack trusts fixed, so the pairs are checked here first: their
    colours, and adjacency between fixed vertices, which must map edges to
    edges and non-edges to non-edges.  The search then places the other
    vertices the same way (induced), so a map that breaks an adjacency is
    refuted when it is made, not deep in the tree.
    """
    if colors is not None and any(colors[v] != colors[u] for v, u in fixed.items()):
        return False
    adj = h.adjacency
    # a pair of fixed points keeps its adjacency; check the pairs with a moved vertex
    for a, fa in fixed.items():
        if a == fa:
            continue
        for b, fb in fixed.items():
            if (adj[a] >> b ^ adj[fa] >> fb) & 1:
                return False
    return next(_backtrack(h, h, fixed, colors, colors, 1, induced=True), None) is not None


def _symmetry_conditions(
    h: LabeledGraph, colors: Optional[Sequence[int]]
) -> tuple[list[tuple[int, int]], int]:
    """The stabiliser-chain conditions (v, w), meaning map[v] < map[w], and
    the product of the orbit sizes, which is |Aut(h)|."""
    conditions = []
    order = 1
    for v in range(h.vertex_count):
        fixed = {u: u for u in range(v)}
        orbit = [
            w
            for w in range(v + 1, h.vertex_count)
            if _extends_to_automorphism(h, colors, {**fixed, v: w})
        ]
        conditions += [(v, w) for w in orbit]
        order *= 1 + len(orbit)
    return conditions, order


def _copy_stream(h, g) -> tuple[int, Iterator[Embedding]]:
    """The orbit-size product of h's stabiliser chain, and the stream of the
    maps that meet its conditions."""
    h, g, pc, hc = _flatten(h, g)
    conditions, order = _symmetry_conditions(h, pc)
    return order, _backtrack(h, g, {}, pc, hc, None, conditions)


def enumerate_copies(h, g) -> Iterator[Embedding]:
    """One embedding per copy of h in g, the lexicographically least map of
    its Aut(h)-orbit; the stream is in lexicographic order.  Arguments as for
    enumerate_embeddings."""
    yield from _copy_stream(h, g)[1]


def count_copies(h, g) -> int:
    """Unlabeled copies of h in g, counted on the enumerate_copies stream.

    The orbit sizes behind its conditions must multiply to the |Aut(h)| of
    the canonical search, else InvariantViolation.
    """
    if isinstance(h, SignedBipartiteGraph):
        aut = signed_automorphism_count(h)
    else:
        aut = automorphism_count(h)
    order, copies = _copy_stream(h, g)
    if order != aut:
        raise InvariantViolation(f"stabiliser chain gives |Aut| = {order}, canonical search {aut}")
    return sum(1 for _ in copies)


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
