"""Canonical labeling and automorphism counting from one search tree.

Each node of the tree refines its colouring to an equitable partition
(colour refinement) and then individualizes, one branch at a time, each
vertex of the first non-singleton cell.  A node whose partition is discrete,
or colour-complete (adjacency constant inside and between cells), is a leaf;
its certificate is the adjacency of the graph relabeled in cell order, and
the canonical form is the leaf with the least certificate.

Two leaves with equal certificates give an automorphism.  The search prunes
with them (McKay & Piperno, "Practical graph isomorphism, II", 2014): a child
in the orbit of an already tried sibling, under the automorphisms found so
far that fix the node's individualized vertices, roots the image of a
subtree already explored, so the set of leaf certificates is unchanged.  A
subtree that reaches a leaf equal to the first leaf is abandoned at once.
The same tree gives |Aut| by the orbit-stabilizer theorem: the product, over
the nodes of the first path, of the orbit of the child taken there, times
the product of |cell|! at the first leaf.  The tests check both results
against exhaustive-permutation oracles on graphs of at most 8 vertices.

The search runs once per graph object and colouring.  Its result is kept on
the (flat) graph object itself, beside its cached adjacency, keyed by the
colouring, so `canonical_form`, `automorphism_count`, `_orbits`,
`_swaps_ends` and each level of embed's stabiliser chain share one search
whenever they ask about the same object.  Nothing is kept by value: an equal
but distinct graph runs its own search, and the results die with the graph.

The search keeps a leaf's certificate as one int: the graph6 adjacency bits
of the relabeled graph, first bit most significant.  The certificate of an
unsigned graph is its graph6 string, so certificates double as decodable
graph encodings.  Signed certificates carry the part sizes and the canonical
bipartite adjacency bits, read from the same int.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import SizeExceeded
from .graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    component_roots,
    decode_graph6,
    decode_sb,
    graph6_from_bits,
    sb_from_bits,
)

# within the 62 vertices of short graph6
MAX_CANONICAL_VERTICES = 34


@dataclass(frozen=True, order=True)
class CanonicalLabel:
    """Opaque isomorphism certificate; equal iff the graphs are isomorphic."""

    bytes: bytes

    def __repr__(self):
        return f"CanonicalLabel({self.bytes!r})"


def _refine(nbrs: list[list[int]], colors: list[int], width: int) -> list[int]:
    """Iterate colour refinement to a stable partition.

    A round sorts the vertices by their colour, then by their count of
    neighbours in each colour class.  Both go into one int per vertex: the
    colour above k = max(colors) + 1 digits of `width` bits, the digit of
    colour 0 most significant, so int order is that (colour, counts) order.
    An individualized vertex of cell 0 has colour -1; pw[-1] counts it in
    the last digit, the same digit as colour k - 1.  2**width must exceed
    every count: width = n.bit_length() does for n vertices.

    On a uniform colouring the first round's keys, less one constant, are
    the degrees, so that round ranks the degrees.  The rounds stop as soon
    as the partition is discrete: a discrete partition is equitable, and
    another round would rank the keys in the same order.
    """
    n = len(colors)
    keys = list(map(len, nbrs)) if n and colors.count(colors[0]) == n else None
    while True:
        if keys is None:
            k = max(colors) + 1 if colors else 0
            pw = [1 << width * (k - 1 - c) for c in range(k)]
            digit = [pw[c] for c in colors]
            shift = width * k
            keys = [(c << shift) + sum(map(digit.__getitem__, nb)) for c, nb in zip(colors, nbrs)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        new_colors = [rank[key] for key in keys]
        if len(rank) == n or new_colors == colors:
            return new_colors
        colors, keys = new_colors, None


def _cells(colors: list[int]) -> list[list[int]]:
    """The colour classes of a refined colouring, whose colours are 0..k-1."""
    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _certificate_for_order(nbrs: list[list[int]], order: list[int]) -> int:
    """Adjacency of the graph relabeled so order[i] becomes i, as one int.

    Its bits are the graph6 bits, pair (i, j) for i < j ordered by j then i,
    with the first bit most significant; for one vertex count, int order is
    the order of the bit strings.
    """
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    cert = 0
    for i, v in enumerate(order):
        # the i bits of pairs (j, i), j < i, the bit of j = 0 first
        row = 0
        top = i - 1
        for u in nbrs[v]:
            j = pos[u]
            if j < i:
                row |= 1 << top - j
        cert = cert << i | row
    return cert


def _is_color_complete(adj, cells) -> bool:
    """True when adjacency is determined by the refined colour classes alone.

    The cells must be equitable, as `_refine` leaves them: every vertex of a
    cell has the same number of neighbours in each cell, so the first vertex
    of a cell speaks for all of it.  Adjacency is constant between cells a
    and b iff that number is 0 or |b|, and inside cell a iff it is 0 or
    |a| - 1, since no vertex is its own neighbour.
    """
    masks = [sum(map((1).__lshift__, cell)) for cell in cells]
    for a, cell in enumerate(cells):
        nb = adj[cell[0]]
        for b in range(a, len(cells)):
            count = (nb & masks[b]).bit_count()
            if count and count != len(cells[b]) - (a == b):
                return False
    return True


_Result = tuple[int, int, tuple[tuple[int, ...], ...], tuple[int, ...]]


def _search(g: LabeledGraph, colors) -> _Result:
    """The least leaf certificate, |Aut| of the coloured graph, the
    automorphisms found and the refined colours of the first leaf, whose
    classes are that leaf's cells.

    The search runs once per graph object and colouring: its result is kept
    on g, in the dict `g._searches` keyed by the colouring as a tuple, so it
    dies with g.  The result is all tuples, so its callers can share it.
    """
    key = tuple(colors)
    found = g._searches.get(key)
    if found is None:
        found = g._searches[key] = _tree_search(g, key)
    return found


def _tree_search(g: LabeledGraph, colors) -> _Result:
    """_search without the memo; the tree, its pruning and the count are
    described in the module docstring."""
    n = g.vertex_count
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    width = n.bit_length()
    gens: list[tuple[int, ...]] = []
    first = best = None  # (certificate, order)
    first_colors: tuple[int, ...] = ()
    aut = 1

    def orbits(path: list[int]) -> list[int]:
        """Orbit representatives under the found automorphisms that fix path."""
        fixing = [g for g in gens if all(g[u] == u for u in path)]
        return component_roots(n, [(u, g[u]) for g in fixing for u in range(n)])

    def visit(colors: list[int], path: list[int]) -> bool:
        """Explore one subtree; True means a leaf equal to the first was found."""
        nonlocal first, best, first_colors, aut
        on_first_path = first is None
        colors = _refine(nbrs, colors, width)
        cells = _cells(colors)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None or _is_color_complete(g.adjacency, cells):
            # adjacency is constant between (and inside) colour classes, so every
            # cell-consistent order produces the same certificate, and every
            # permutation inside the cells fixes the path
            order = [v for cell in cells for v in cell]
            cert = _certificate_for_order(nbrs, order)
            if on_first_path:
                first = best = (cert, order)
                first_colors = tuple(colors)
                for cell in cells:
                    if len(cell) > 1:
                        aut *= factorial(len(cell))
                return False
            for ref_cert, ref_order in (first, best):
                if cert == ref_cert:
                    gamma = [0] * n
                    for u, v in zip(ref_order, order):
                        gamma[u] = v
                    gens.append(tuple(gamma))
                    return cert == first[0]
            if cert < best[0]:
                best = (cert, order)
            return False
        tried: list[int] = []
        known = -1  # the number of automorphisms behind roots
        for v in target:
            if known != len(gens):
                known, roots = len(gens), orbits(path)
            if any(roots[v] == roots[w] for w in tried):
                continue
            tried.append(v)
            # individualize v: give it a colour just below its cell
            branch = [c * 2 for c in colors]
            branch[v] -= 1
            if visit(branch, path + [v]) and not on_first_path:
                return True
        if on_first_path:
            if known != len(gens):
                roots = orbits(path)
            aut *= roots.count(roots[target[0]])
        return False

    visit(list(colors), [])
    return best[0], aut, tuple(gens), first_colors


def _orbits(g: LabeledGraph, colors) -> tuple[list[int], int]:
    """Orbit roots (equal iff one orbit) of the automorphisms of g that keep
    colors, and their number.  The automorphisms _search finds and the
    permutations inside its first leaf's cells generate the group.  The cells
    are needed: the search adds none of their permutations to the ones it
    finds (on K_n it finds none at all).
    """
    n = g.vertex_count
    _, aut, gens, first_colors = _search(g, colors)
    pairs = [(u, gamma[u]) for gamma in gens for u in range(n)]
    head: dict[int, int] = {}  # colour -> the first vertex of its cell
    pairs += [(head.setdefault(c, u), u) for u, c in enumerate(first_colors)]
    return component_roots(n, pairs), aut


def _swaps_ends(g: LabeledGraph, a: int, b: int) -> bool:
    """True iff some automorphism of g swaps the vertices a and b.

    Colour a 1 and b 2 (every other vertex 0), then a 2 and b 1.  The cells
    keep the colour order, so a leaf lists a and b last, in colour order,
    and two equal least certificates give an automorphism of g that sends
    the first colouring onto the second: a to b and b to a.  Conversely such
    an automorphism maps one coloured graph onto the other, whose least
    certificates are then equal.
    """
    colors = [0] * g.vertex_count
    colors[a], colors[b] = 1, 2
    cert = _search(g, colors)[0]
    colors[a], colors[b] = 2, 1
    return _search(g, colors)[0] == cert


def _check_size(g) -> None:
    if g.vertex_count > MAX_CANONICAL_VERTICES:
        raise SizeExceeded(f"canonical search supports at most {MAX_CANONICAL_VERTICES} vertices")


def canonical_form(g: LabeledGraph | SignedBipartiteGraph) -> CanonicalLabel:
    """Isomorphism-invariant certificate; sign-respecting in the signed case."""
    _check_size(g)
    if isinstance(g, SignedBipartiteGraph):
        # + and - are colours that may not be exchanged
        cert = _search(g.as_unsigned(), g.colors)[0]
        # colour classes stay contiguous, + first, because refinement only
        # splits: + vertex p and - vertex q are flat vertices p and m + q
        m, n = g.plus_count, g.minus_count
        top = (m + n) * (m + n - 1) // 2 - 1
        bits = (cert >> top - (m + q) * (m + q - 1) // 2 - p & 1 for p in range(m) for q in range(n))
        return CanonicalLabel(sb_from_bits(m, n, bits).encode())
    cert = _search(g, [0] * g.vertex_count)[0]
    return CanonicalLabel(b"g6:" + graph6_from_bits(g.vertex_count, cert).encode())


def decode_canonical(label: CanonicalLabel) -> LabeledGraph | SignedBipartiteGraph:
    """Certificates are decodable: recover the canonical representative."""
    raw = label.bytes
    if raw.startswith(b"g6:"):
        return decode_graph6(raw[3:].decode())
    if raw.startswith(b"sb:"):
        return decode_sb(raw.decode())
    raise ValueError("unknown certificate format")


def automorphism_count(h: LabeledGraph | SignedBipartiteGraph) -> int:
    """|Aut(h)|; for a signed h, the automorphisms fixing each side setwise."""
    _check_size(h)
    if isinstance(h, SignedBipartiteGraph):
        return _search(h.as_unsigned(), h.colors)[1]
    return _search(h, [0] * h.vertex_count)[1]
