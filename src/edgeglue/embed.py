"""Injective edge-preserving maps of a pattern into a host, and its copies.

Embeddings are labeled: the map sends pattern vertex i to a distinct host
vertex, and every pattern edge lands on a host edge (non-induced).  Signed
embeddings additionally keep the + side of the pattern inside the + side of
the host.  Enumeration is one loop over a stack of candidate bitmasks, one
level per pattern vertex: each level's mask starts from one computed before
the loop (degree, colour and fixed neighbours) and is cut by the images of
the earlier levels.  Pattern vertices are assigned in index order with
ascending candidates, so the stream is lexicographic on the map tuple.  The
kernel stops one level short: `_frames` hands out the last level's candidate
mask, `_backtrack` expands it into bare map tuples, and the public streams
wrap those in `Embedding`s.  The counts never build a map: they add up the
popcounts of the last-level masks.  A caller may also pass `avoid`, host
vertices no level may use.  Every stream is a lazy generator: a caller that
needs only the first maps takes them with next() or itertools.islice.

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
The orbits come from `canon`'s search with 0..v-1 individualized.  By
orbit-stabilizer the product of the |O_v| is |Aut(H)|, which `count_copies`
checks against canon's count of the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .canon import _orbits, automorphism_count
from .errors import InvariantViolation, SignMismatch, SizeExceeded
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


def _frames(
    pattern: LabeledGraph, host: LabeledGraph, fixed: dict[int, int],
    pattern_colors: Optional[Sequence[int]], host_colors: Optional[Sequence[int]],
    conditions: Sequence[tuple[int, int]] = (), avoid: int = 0,
) -> Iterator[tuple[list[int], Optional[int], int]]:
    """Maps extending fixed, which is trusted to embed its own pairs, down
    to their last level: yields (image, v, mask), image placing every level
    but the last (shared between frames, image[v] free for the caller), v
    the last level's pattern vertex and mask its candidates, in lexicographic
    order.  With nothing to place (depth 0), the one frame is (image, None, 1).

    Each condition (v, w) asks map[v] < map[w]; v must be fixed or come
    before w in index order, so it is placed when w's candidates are drawn.
    No level takes a host vertex in the bitmask avoid.

    The vertices not in fixed are placed in index order, one level each.
    Before the loop, each level gets a static mask: the host vertices of at
    least its pattern vertex's degree and of its colour, adjacent to the
    images of its fixed neighbours and above the images of its fixed lower
    bounds.  A level's candidates are its static mask less the used and
    avoided vertices, cut down by the images of the earlier levels it
    depends on; the stack holds each level's candidates not yet tried.
    """
    pn, hn = pattern.vertex_count, host.vertex_count
    if pn > hn:
        return
    padj, hadj = pattern.adjacency, host.adjacency
    image = [-1] * pn
    used = avoid  # level vertices never come from avoid, so backtracking keeps it
    for v, u in fixed.items():
        image[v] = u
        used |= 1 << u
    order = [v for v in range(pn) if v not in fixed]
    depth = len(order)
    if not depth:
        yield image, None, 1
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
    static, adjacent, above = [], [], []
    for i, v in enumerate(order):
        mask = at_least[pattern.degrees[v]]
        if pattern_colors is not None:
            mask &= colour_class.get(pattern_colors[v], 0)
        for w, u in fixed.items():
            if padj[v] >> w & 1:
                mask &= hadj[u]
        for w in lower[v]:
            if w in fixed:
                mask &= -2 << fixed[w]  # host vertices above fixed[w]
        static.append(mask)
        adjacent.append([w for w in order[:i] if padj[v] >> w & 1])
        above.append([w for w in lower[v] if w not in fixed])
    last, v_last = depth - 1, order[-1]
    if not last:
        yield image, v_last, static[0] & ~used
        return
    stack = [0] * last  # levels 0..last-1; the last level goes out whole
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
        used |= low
        j = i + 1
        mask = static[j] & ~used
        for w in adjacent[j]:
            mask &= hadj[image[w]]
        for w in above[j]:
            mask &= -2 << image[w]
        if j < last:
            stack[j] = mask
            i = j
            continue
        used ^= low
        if mask:
            yield image, v_last, mask


def _backtrack(*args, **kwargs) -> Iterator[tuple[int, ...]]:
    """The maps of _frames(*args, **kwargs) as tuples, in lexicographic
    order: each frame's last-level mask is expanded in ascending order."""
    for image, v, mask in _frames(*args, **kwargs):
        if v is None:
            yield tuple(image)
            continue
        while mask:
            low = mask & -mask
            mask ^= low
            image[v] = low.bit_length() - 1
            yield tuple(image)


def _flatten(h, g):
    """(pattern, host, pattern colours, host colours) on flattened vertex sets;
    the colours are None for unsigned graphs.  A signed graph with an
    unsigned one raises SignMismatch."""
    if isinstance(h, SignedBipartiteGraph) != isinstance(g, SignedBipartiteGraph):
        raise SignMismatch("pattern and host must both be signed or both unsigned")
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
    for m in _backtrack(h, g, {}, pc, hc):
        yield Embedding(h, g, m)


def count_embeddings(h, g) -> int:
    """The number of maps enumerate_embeddings yields, by popcounts of the
    last level's candidate masks."""
    h, g, pc, hc = _flatten(h, g)
    return sum(mask.bit_count() for _, _, mask in _frames(h, g, {}, pc, hc))


def _symmetry_conditions(
    h: LabeledGraph, colors: Optional[Sequence[int]]
) -> tuple[list[tuple[int, int]], int]:
    """The stabiliser-chain conditions (v, w), meaning map[v] < map[w], and
    the product of the orbit sizes, which is |Aut(h)|.

    Level v's orbit comes from canon's search with 0..v-1 individualized.
    After a one-vertex orbit the group is unchanged and its orbits are
    reused; once an orbit fills its group, the rest of the chain is trivial.
    The product is the orbits' own, which count_copies checks against canon's.
    """
    n = h.vertex_count
    base = [0] * n if colors is None else list(colors)
    conditions, order, roots = [], 1, None
    for v in range(n):
        if roots is None:
            roots, aut = _orbits(h, [max(base) + 1 + u for u in range(v)] + base[v:])
        orbit = [w for w in range(v + 1, n) if roots[w] == roots[v]]
        conditions += [(v, w) for w in orbit]
        order *= 1 + len(orbit)
        if 1 + len(orbit) == aut:
            break
        if orbit:
            roots = None
    return conditions, order


def enumerate_copies(h, g) -> Iterator[Embedding]:
    """One embedding per copy of h in g, the lexicographically least map of
    its Aut(h)-orbit; the stream is in lexicographic order.  Arguments as for
    enumerate_embeddings."""
    h, g, pc, hc = _flatten(h, g)
    for m in _backtrack(h, g, {}, pc, hc, _symmetry_conditions(h, pc)[0]):
        yield Embedding(h, g, m)


def count_copies(h, g) -> int:
    """Unlabeled copies of h in g, counted on the enumerate_copies stream.

    The orbit sizes behind its conditions must multiply to the |Aut(h)| of
    the canonical search, else InvariantViolation.
    """
    aut = automorphism_count(h)
    h, g, pc, hc = _flatten(h, g)
    conditions, order = _symmetry_conditions(h, pc)
    if order != aut:
        raise InvariantViolation(f"stabiliser chain gives |Aut| = {order}, canonical search {aut}")
    return sum(mask.bit_count() for _, _, mask in _frames(h, g, {}, pc, hc, conditions))


def is_free(g, h) -> bool:
    """True iff g contains no copy of h; short-circuits on the first hit."""
    return next(enumerate_embeddings(h, g), None) is None
