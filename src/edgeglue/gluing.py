"""Gluing constructions.

All the ways this package combines small graphs into bigger ones:
identifying marked edges (two orientation choices per extra part, family
deduplicated up to isomorphism), identifying several copies of a graph
pointwise along a labeled subforest, vertex identification, pendant-tree
attachment, sign-preserving edge gluing of signed bipartite graphs, and
trees of even cycles.

Flipping a part whose marked edge (a, b) is swapped by one of the part's
automorphisms σ gives an isomorphic glued graph (apply σ to that part,
fix every other vertex); flipping every part at once is the swap 0 <-> 1.
So `glue_family` glues only the orientations in which those parts, and
the first part without such an automorphism, stay unflipped: one per
isomorphism class of orientations, and the lexicographically first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Optional

from .canon import _swaps_ends, canonical_form
from .errors import (
    EdgeGlueError,
    InvalidAttachIndex,
    InvalidRootedPattern,
    NotATree,
    OddCycleLength,
    SignMismatch,
)
from .graphs import LabeledGraph, SignedBipartiteGraph, component_roots


@dataclass(frozen=True)
class RootedPattern:
    """A pattern H with a labeled subforest F and an optional marked edge.

    root_vertices span F (isolated root vertices are allowed: trivial
    trees); root_edges are F's edges.  The marked edge is the edge of H the
    balanced-family builder pins copies to.
    """

    pattern: LabeledGraph
    root_vertices: tuple[int, ...]
    root_edges: frozenset[tuple[int, int]] = frozenset()
    distinguished_edge: Optional[tuple[int, int]] = None

    def __post_init__(self):
        h = self.pattern
        roots = tuple(self.root_vertices)
        object.__setattr__(self, "root_vertices", roots)
        if len(set(roots)) != len(roots):
            raise InvalidRootedPattern("duplicate root vertices")
        if not 0 < len(roots) < h.vertex_count:
            raise InvalidRootedPattern("need 0 < v(F) < v(H)")
        for v in roots:
            if not 0 <= v < h.vertex_count:
                raise InvalidRootedPattern(f"root vertex {v} outside H")
        rootset = set(roots)
        norm = frozenset(tuple(sorted(e)) for e in self.root_edges)
        object.__setattr__(self, "root_edges", norm)
        for e in norm:
            if e not in h.edges:
                raise InvalidRootedPattern(f"root edge {e} not an edge of H")
            if not set(e) <= rootset:
                raise InvalidRootedPattern(f"root edge {e} leaves the root set")
        # (V(F), E(F)) must be a forest
        index = {v: i for i, v in enumerate(roots)}
        forest = LabeledGraph(len(roots), [(index[a], index[b]) for a, b in norm])
        if not forest.is_forest():
            raise InvalidRootedPattern("root edges contain a cycle; F must be a forest")
        if self.distinguished_edge is not None:
            e = tuple(sorted(self.distinguished_edge))
            if e not in h.edges:
                raise InvalidRootedPattern(f"distinguished edge {e} not an edge of H")
            object.__setattr__(self, "distinguished_edge", e)

    @property
    def ell(self) -> int:
        return len(self.root_vertices)

    @property
    def root_edge_count(self) -> int:
        return len(self.root_edges)


def edge_rooted(pattern: LabeledGraph, edge) -> RootedPattern:
    """RootedPattern with F = the single given edge, also distinguished."""
    e = pattern.check_edge(edge)
    return RootedPattern(pattern, e, frozenset([e]), e)


@dataclass(frozen=True)
class GluingSpec:
    """Parts to glue along their marked edges: all unsigned graphs, which
    `glue_family` glues in every orientation up to isomorphism, or all
    SignedBipartiteGraphs, which `signed_glue` glues the one sign-preserving
    way.  Mixed parts raise SignMismatch.
    """

    parts: tuple

    def __post_init__(self):
        parts = tuple((g, tuple(e)) for g, e in self.parts)
        object.__setattr__(self, "parts", parts)
        if len({isinstance(g, SignedBipartiteGraph) for g, _ in parts}) > 1:
            raise SignMismatch("parts must be all signed or all unsigned")
        for g, e in parts:
            g.check_edge(e)


def _identify(shared: int, parts) -> tuple[LabeledGraph, list[list[int]]]:
    """Lay out the parts as one graph; also return, per part, the glued
    vertex of each of its vertices.

    Each part is (graph, {vertex: glued id}).  Ids 0..shared-1 are the shared
    vertices; every other vertex gets a fresh id, part by part, in index
    order.  A part may also name an id an earlier part laid out.
    """
    total = shared
    edges = []
    maps = []
    for g, fixed in parts:
        remap = []
        for v in range(g.vertex_count):
            if v in fixed:
                remap.append(fixed[v])
            else:
                remap.append(total)
                total += 1
        edges.extend((remap[a], remap[b]) for a, b in g.edges)
        maps.append(remap)
    return LabeledGraph(total, edges), maps


def _glue_oriented(parts, orientations) -> tuple[LabeledGraph, list[list[int]]]:
    """Identify every marked edge with the shared edge {0, 1}; also return,
    per part, the glued vertex of each of its vertices.

    orientations[i] flips which endpoint of part i's marked edge becomes 0.
    """
    return _identify(2, [
        (g, {b: 0, a: 1} if flip else {a: 0, b: 1})
        for (g, (a, b)), flip in zip(parts, orientations)
    ])


def glue_family(spec: GluingSpec) -> list[LabeledGraph]:
    """All graphs obtainable by gluing the parts along one common edge.

    Of the 2^(t-1) orientation choices, only those the module docstring
    keeps are glued: 2^(k-1) of them when k parts have no automorphism
    swapping their marked edge's ends (one when k <= 1).  Each skipped
    orientation is isomorphic to a kept one that comes before it in
    product order, so keeping the first graph of each canonical form gives
    the same labeled graphs as gluing them all.  The list is sorted by
    certificate for determinism.  Signed parts raise SignMismatch: they
    glue one way, by `signed_glue`.
    """
    parts = spec.parts
    if not parts:
        raise EdgeGlueError("nothing to glue")
    if isinstance(parts[0][0], SignedBipartiteGraph):
        raise SignMismatch("glue_family needs unsigned parts; signed parts glue by signed_glue")
    t = len(parts)
    # the all-unflipped graph first: past canon's vertex cap it raises
    # SizeExceeded before any automorphism test runs
    g = _glue_oriented(parts, (False,) * t)[0]
    seen = {canonical_form(g): g}
    free = [i for i, (h, (a, b)) in enumerate(parts) if not _swaps_ends(h, a, b)][1:]
    for flips in islice(product((False, True), repeat=len(free)), 1, None):
        flipped = dict(zip(free, flips))
        g = _glue_oriented(parts, [flipped.get(i, False) for i in range(t)])[0]
        seen.setdefault(canonical_form(g), g)
    return [seen[c] for c in sorted(seen)]


def glue_along_edge(h1: LabeledGraph, e1, h2: LabeledGraph, e2) -> list[LabeledGraph]:
    """Both endpoint identifications of e1 with e2, up to isomorphism."""
    e1 = h1.check_edge(e1)
    e2 = h2.check_edge(e2)
    return glue_family(GluingSpec(((h1, e1), (h2, e2))))


def glue_copies_along_forest(p: RootedPattern, s: int) -> LabeledGraph:
    """s labeled copies of H identified pointwise on the same labeled F.

    Root vertex i of H becomes vertex i of the result; each copy's non-root
    vertices get fresh indices.  v = l + s*(h-l), e = e(F) + s*(e(H)-e(F)).
    """
    if s < 1:
        raise InvalidRootedPattern("need s >= 1")
    h = p.pattern
    rootset = set(p.root_vertices)
    # an H-edge inside the roots but outside F would be shared between the
    # copies, breaking the stated edge count; reject rather than silently merge
    for a, b in h.edges:
        if a in rootset and b in rootset and (a, b) not in p.root_edges:
            raise InvalidRootedPattern(
                f"H-edge {(a, b)} lies inside the root set but is not a root edge"
            )
    index = {v: i for i, v in enumerate(p.root_vertices)}
    return _identify(p.ell, [(h, index)] * s)[0]


def glue_at_vertex(h1: LabeledGraph, u: int, h2: LabeledGraph, v: int) -> LabeledGraph:
    """Identify u in h1 with v in h2; disjoint otherwise."""
    h1.check_vertex(u)
    h2.check_vertex(v)
    return _identify(0, [(h1, {}), (h2, {v: u})])[0]


def attach_tree(h: LabeledGraph, v: int, t: LabeledGraph, v_prime: int) -> LabeledGraph:
    """Attach the tree t to h by identifying v with v_prime."""
    if not t.is_tree():
        raise NotATree("attachment graph is not a tree")
    return glue_at_vertex(h, v, t, v_prime)


def _signed_glue(parts) -> tuple[SignedBipartiteGraph, list[list[int]]]:
    """Identify all marked edges into the shared edge (0, 0); also return,
    per part, the glued vertex of each of its vertices, both on the
    flattened vertex sets (+ side first).

    Each side lists the shared endpoint, then every part's other vertices
    on that side, part by part, in index order.
    """
    plus_total, minus_total = 1, 1
    edges = [(0, 0)]
    side_maps = []
    for g, (fp, fq) in parts:
        plus_map = [0] * g.plus_count
        minus_map = [0] * g.minus_count
        for pv in range(g.plus_count):
            if pv != fp:
                plus_map[pv] = plus_total
                plus_total += 1
        for qv in range(g.minus_count):
            if qv != fq:
                minus_map[qv] = minus_total
                minus_total += 1
        for pe, qe in g.edges:
            e = (plus_map[pe], minus_map[qe])
            if e != (0, 0):
                edges.append(e)
        side_maps.append((plus_map, minus_map))
    maps = [plus_map + [plus_total + q for q in minus_map] for plus_map, minus_map in side_maps]
    return SignedBipartiteGraph(plus_total, minus_total, edges), maps


def signed_glue(spec: GluingSpec) -> SignedBipartiteGraph:
    """Identify all marked edges into one shared edge, signs preserved.

    Every marked edge's + endpoint maps to the shared + endpoint, so the
    identification is unique.  Unsigned parts raise SignMismatch.
    """
    parts = spec.parts
    if not parts:
        raise EdgeGlueError("nothing to glue")
    if not isinstance(parts[0][0], SignedBipartiteGraph):
        raise SignMismatch("signed_glue needs signed parts")
    return _signed_glue(parts)[0]


def tree_of_cycles(t: LabeledGraph, cycles: dict, attach: dict) -> LabeledGraph:
    """Glue one even cycle per tree vertex, identified along the tree edges.

    cycles maps each tree vertex to an even cycle length >= 4; attach maps
    (tree edge, endpoint) to a position on that endpoint's cycle.  For each
    tree edge uv the chosen positions on the two cycles are identified.
    """
    if not t.is_tree():
        raise NotATree("first argument must be a tree")
    for v in range(t.vertex_count):
        length = cycles.get(v)
        if length is None or length < 4 or length % 2:
            raise OddCycleLength(f"cycle at tree vertex {v} must be even and >= 4")
    # global ids before identification: (tree vertex, position)
    offsets = {}
    total = 0
    for v in range(t.vertex_count):
        offsets[v] = total
        total += cycles[v]

    def gid(v, pos):
        if not 0 <= pos < cycles[v]:
            raise InvalidAttachIndex(f"position {pos} invalid on cycle of length {cycles[v]}")
        return offsets[v] + pos

    glued = []
    for (u, v) in t.sorted_edges:
        try:
            pu = attach[((u, v), u)]
            pv = attach[((u, v), v)]
        except KeyError as exc:
            raise InvalidAttachIndex(f"missing attach position for tree edge {(u, v)}") from exc
        glued.append((gid(u, pu), gid(v, pv)))
    roots = component_roots(total, glued)
    newid = {r: i for i, r in enumerate(sorted(set(roots)))}
    edges = set()
    for v in range(t.vertex_count):
        k = cycles[v]
        for i in range(k):
            a = newid[roots[gid(v, i)]]
            b = newid[roots[gid(v, (i + 1) % k)]]
            edges.add((min(a, b), max(a, b)))
    result = LabeledGraph(len(newid), edges)
    expected_v = sum(cycles.values()) - (t.vertex_count - 1)
    expected_e = sum(cycles.values())
    if result.vertex_count != expected_v or result.edge_count != expected_e:
        raise InvalidAttachIndex(
            "attach positions overlap: glued cycles share more than the tree structure"
        )
    return result

