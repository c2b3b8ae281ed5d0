"""Injective edge-preserving maps of a pattern into a host, and its copies.

Embeddings are labeled: the map sends pattern vertex i to a distinct host
vertex, and every pattern edge lands on a host edge (non-induced).  Signed
embeddings additionally keep the + side of the pattern inside the + side of
the host.  Enumeration is one loop over a stack of candidate bitmasks, one
level per pattern vertex: each level's mask starts from one computed before
the loop (degree, colour and fixed neighbours) and is cut by the images of
the earlier levels.  Pattern vertices are assigned in index order with
ascending candidates, so the stream is lexicographic on the map tuple.
Every stream is a lazy generator: a caller that needs only the first maps
takes them with next() or itertools.islice.

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
    conditions: Sequence[tuple[int, int]] = (),
    induced: bool = False,
) -> Iterator[Embedding]:
    """Embeddings extending fixed, which is trusted to embed its own pairs.

    Each condition (v, w) asks map[v] < map[w]; v must be fixed or come
    before w in index order, so it is placed when w's candidates are drawn.
    With induced, pattern non-edges must land on host non-edges too.

    The vertices not in fixed are placed in index order, one level each.
    Before the loop, each level gets a static mask: the host vertices of at
    least its pattern vertex's degree and of its colour, adjacent to the
    images of its fixed neighbours (under induced, not adjacent to those of
    its fixed non-neighbours) and above the images of its fixed lower
    bounds.  A level's candidates are its static mask less the used
    vertices, cut down by the images of the earlier levels it depends on;
    the stack holds each level's candidates not yet tried.
    """
    pn, hn = pattern.vertex_count, host.vertex_count
    if pn > hn:
        return
    padj, hadj = pattern.adjacency, host.adjacency
    image = [-1] * pn
    used = 0
    for v, u in fixed.items():
        image[v] = u
        used |= 1 << u
    order = [v for v in range(pn) if v not in fixed]
    depth = len(order)
    if not depth:
        yield Embedding(pattern, host, tuple(image))
        return
    hdeg = host.degrees
    at_least = {}  # pattern degree -> host vertices of at least that degree
    for d in set(pattern.degrees[v] for v in order):
        at_least[d] = sum(1 << u for u in range(hn) if hdeg[u] >= d)
    if pattern_colors is not None:
        colour_class: dict[int, int] = {}
        for u in range(hn):
            colour_class[host_colors[u]] = colour_class.get(host_colors[u], 0) | 1 << u
    lower: list[list[int]] = [[] for _ in range(pn)]
    for v, w in conditions:
        lower[w].append(v)
    static, adjacent, apart, above = [], [], [], []
    for i, v in enumerate(order):
        mask = at_least[pattern.degrees[v]]
        if pattern_colors is not None:
            mask &= colour_class.get(pattern_colors[v], 0)
        for w, u in fixed.items():
            if padj[v] >> w & 1:
                mask &= hadj[u]
            elif induced:
                mask &= ~hadj[u]
        for w in lower[v]:
            if w in fixed:
                mask &= -2 << fixed[w]  # host vertices above fixed[w]
        static.append(mask)
        earlier = order[:i]
        adjacent.append([w for w in earlier if padj[v] >> w & 1])
        apart.append([w for w in earlier if not padj[v] >> w & 1] if induced else [])
        above.append([w for w in lower[v] if w not in fixed])
    last = depth - 1
    stack = [0] * depth
    stack[0] = static[0] & ~used  # level 0 has no earlier level
    i = 0
    while True:
        mask = stack[i]
        if not mask:
            if not i:
                return
            i -= 1
            used ^= 1 << image[order[i]]
            continue
        low = mask & -mask
        stack[i] = mask ^ low
        image[order[i]] = low.bit_length() - 1
        if i == last:
            yield Embedding(pattern, host, tuple(image))
            continue
        used |= low
        i += 1
        mask = static[i] & ~used
        for w in adjacent[i]:
            mask &= hadj[image[w]]
        for w in apart[i]:
            mask &= ~hadj[image[w]]
        for w in above[i]:
            mask &= -2 << image[w]
        stack[i] = mask


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


def enumerate_embeddings(h, g) -> Iterator[Embedding]:
    """Every injective edge-preserving map of h into g, lexicographic order.

    Both arguments unsigned LabeledGraphs, or both SignedBipartiteGraphs
    (then the map preserves sides, expressed on the flattened vertex sets).
    """
    h, g, pc, hc = _flatten(h, g)
    yield from _backtrack(h, g, {}, pc, hc)


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
    return next(_backtrack(h, h, fixed, colors, colors, induced=True), None) is not None


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
    return order, _backtrack(h, g, {}, pc, hc, conditions)


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
    return next(enumerate_embeddings(h, g), None) is None


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
    yield from _backtrack(p.pattern, host, dict(psi), None, None)


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
