"""Core graph types: simple undirected graphs and signed bipartite graphs.

Both types are immutable values; every operation in the package is a pure
function of its inputs.  Vertices are dense 0-based integers.  Adjacency is
exposed as one Python int bitset per vertex, which makes candidate
intersection in the embedding backtracker a single ``&``.
"""

from __future__ import annotations

import binascii
import json
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import EdgeNotInGraph, ParseError, VertexNotInGraph

GRAPH6_MAX_SHORT = 62
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def _check_ints(values) -> None:
    """TypeError unless every value is an int: JSON's 1.0 and true are not."""
    for x in values:
        if type(x) is not int:
            raise TypeError(f"{x!r} is not an integer")


def _normalize_edge(e) -> tuple[int, int]:
    a, b = e
    return (a, b) if a < b else (b, a)


def _checked_edges(vertex_count: int, edges) -> set[tuple[int, int]]:
    """Normalise the edges one at a time, raising on the first bad one in
    input order: its loop, else its range."""
    norm = set()
    for e in edges:
        a, b = _normalize_edge(e)
        if a == b:
            raise ValueError(f"loop at vertex {a}")
        if not (0 <= a and b < vertex_count):
            raise ValueError(f"edge {(a, b)} out of range for n={vertex_count}")
        norm.add((a, b))
    return norm


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        edges = list(edges)
        n = vertex_count
        try:
            norm = [(a, b) if a < b else (b, a) for a, b in edges if a != b and 0 <= a < n and 0 <= b < n]
        except (TypeError, ValueError):
            norm = []
        if len(norm) < len(edges):
            # some edge is bad: go through them one at a time to raise on the first
            norm = _checked_edges(vertex_count, edges)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighborhood bitsets, one int per vertex."""
        adj = [0] * self.vertex_count
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return tuple(adj)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adjacency)

    @cached_property
    def _searches(self) -> dict:
        """canon's search results on this graph, keyed by the colouring."""
        return {}

    def has_edge(self, a: int, b: int) -> bool:
        return _normalize_edge((a, b)) in self.edges

    def check_edge(self, e) -> tuple[int, int]:
        e = _normalize_edge(e)
        if e not in self.edges:
            raise EdgeNotInGraph(f"edge {e} not in graph")
        return e

    def check_vertex(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise VertexNotInGraph(f"vertex {v} not in graph on {self.vertex_count} vertices")
        return v

    def relabel(self, perm) -> "LabeledGraph":
        """Apply vertex permutation: new index of v is perm[v]."""
        return LabeledGraph(self.vertex_count, [(perm[a], perm[b]) for a, b in self.edges])

    def is_forest(self) -> bool:
        components = len(set(component_roots(self.vertex_count, self.edges)))
        return components == self.vertex_count - self.edge_count

    def is_tree(self) -> bool:
        # a forest with v - 1 edges has one component
        return self.edge_count == self.vertex_count - 1 and self.is_forest()

    def to_json(self) -> str:
        return json.dumps(
            {"v": self.vertex_count, "edges": [list(e) for e in self.sorted_edges]},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> "LabeledGraph":
        try:
            obj = json.loads(text)
            edges = [tuple(e) for e in obj["edges"]]
            _check_ints([obj["v"], *(v for e in edges for v in e)])
            return LabeledGraph(obj["v"], edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON graph: {exc}") from exc

    def __repr__(self):
        return f"LabeledGraph(n={self.vertex_count}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class SignedBipartiteGraph:
    """Bipartite graph with fixed + and - sides.

    Edges join a +-indexed vertex to a --indexed vertex; the two index
    spaces are independent (both 0-based).  The flat layout of `as_unsigned`
    puts + vertex p at p and - vertex q at m + q.  The ``sb:m:n:bits`` text
    is written only by `sb_from_bits` and read only by `decode_sb`.
    """

    plus_count: int
    minus_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, plus_count: int, minus_count: int, edges=()):
        if plus_count < 0 or minus_count < 0:
            raise ValueError("part sizes must be nonnegative")
        norm = set()
        for p, q in edges:
            if not (0 <= p < plus_count and 0 <= q < minus_count):
                raise ValueError(f"edge {(p, q)} outside parts ({plus_count},{minus_count})")
            norm.add((p, q))
        object.__setattr__(self, "plus_count", plus_count)
        object.__setattr__(self, "minus_count", minus_count)
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def vertex_count(self) -> int:
        return self.plus_count + self.minus_count

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def check_edge(self, e) -> tuple[int, int]:
        e = tuple(e)
        if e not in self.edges:
            raise EdgeNotInGraph(f"edge {e} not in signed graph")
        return e

    def as_unsigned(self) -> LabeledGraph:
        """Flatten to a LabeledGraph: + vertices first, then - vertices."""
        return self._flat

    @cached_property
    def _flat(self) -> LabeledGraph:
        return LabeledGraph(self.vertex_count, [self.flat_edge(e) for e in self.edges])

    @cached_property
    def colors(self) -> tuple[int, ...]:
        """Side of each flat vertex: 0 for +, 1 for -."""
        return (0,) * self.plus_count + (1,) * self.minus_count

    def flat_edge(self, e) -> tuple[int, int]:
        """(+ index, - index) -> the same edge of as_unsigned()."""
        p, q = e
        return (p, self.plus_count + q)

    def side_edge(self, e) -> tuple[int, int]:
        """Edge of as_unsigned() -> (+ index, - index)."""
        return _side_edge(self.plus_count, e)

    @staticmethod
    def from_flat(plus_count: int, flat: LabeledGraph) -> "SignedBipartiteGraph":
        """Inverse of as_unsigned(): the first plus_count vertices form the + side."""
        return SignedBipartiteGraph(
            plus_count,
            flat.vertex_count - plus_count,
            [_side_edge(plus_count, e) for e in flat.edges],
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "plus": self.plus_count,
                "minus": self.minus_count,
                "edges": [list(e) for e in self.sorted_edges],
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> "SignedBipartiteGraph":
        try:
            obj = json.loads(text)
            edges = [tuple(e) for e in obj["edges"]]
            _check_ints([obj["plus"], obj["minus"], *(v for e in edges for v in e)])
            return SignedBipartiteGraph(obj["plus"], obj["minus"], edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON signed graph: {exc}") from exc

    def __repr__(self):
        return (
            f"SignedBipartiteGraph(m={self.plus_count}, n={self.minus_count}, "
            f"edges={sorted(self.edges)})"
        )


def component_roots(n: int, pairs) -> list[int]:
    """Union-find on 0..n-1: one root per vertex, equal iff the pairs connect them."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(n)]


def _side_edge(plus_count: int, e) -> tuple[int, int]:
    a, b = _normalize_edge(e)
    if not a < plus_count <= b:
        raise ValueError(f"edge {(a, b)} does not cross the sides (+ side has {plus_count})")
    return (a, b - plus_count)


# ---------------------------------------------------------------------------
# Small named graphs
# ---------------------------------------------------------------------------


def cycle(k: int) -> LabeledGraph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return LabeledGraph(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> LabeledGraph:
    """Path on k vertices (k-1 edges)."""
    if k < 1:
        raise ValueError("path needs at least 1 vertex")
    return LabeledGraph(k, [(i, i + 1) for i in range(k - 1)])


def star(k: int) -> LabeledGraph:
    """Star K_{1,k}: center 0 with k leaves."""
    if k < 1:
        raise ValueError("star needs at least 1 leaf")
    return LabeledGraph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete(n: int) -> LabeledGraph:
    return LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> LabeledGraph:
    return LabeledGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def signed_cycle(k: int) -> SignedBipartiteGraph:
    """Even cycle with alternating +/- signs (+ holds the even positions)."""
    if k < 4 or k % 2:
        raise ValueError("signed cycle needs even length >= 4")
    half = k // 2
    edges = [(i, i) for i in range(half)] + [(i, (i - 1) % half) for i in range(half)]
    return SignedBipartiteGraph(half, half, edges)


def signed_complete_bipartite(m: int, n: int) -> SignedBipartiteGraph:
    return SignedBipartiteGraph(m, n, [(p, q) for p in range(m) for q in range(n)])


def signed_star(leaves: int, center_plus: bool = True) -> SignedBipartiteGraph:
    """Star K_{1,leaves} with the center on the + side (or - side)."""
    if center_plus:
        return SignedBipartiteGraph(1, leaves, [(0, q) for q in range(leaves)])
    return SignedBipartiteGraph(leaves, 1, [(p, 0) for p in range(leaves)])


# ---------------------------------------------------------------------------
# Encodings: graph6 (unsigned) and sb (signed)
# ---------------------------------------------------------------------------


def encode_graph6(g: LabeledGraph) -> str:
    """Standard short-form graph6 encoding (n <= 62)."""
    n, adj = g.vertex_count, g.adjacency
    bits = 0
    for j in range(1, n):
        for i in range(j):
            bits = bits << 1 | adj[j] >> i & 1
    return graph6_from_bits(n, bits)


def graph6_from_bits(n: int, bits: int) -> str:
    """Short-form graph6 of the n-vertex graph whose adjacency bits, pair
    (i, j) for i < j ordered by j then i, are `bits` (below 2**(n(n-1)/2)),
    first pair most significant.

    Both graph6 and base64 write 6 bits a character, most significant
    first, so the body is the base64 of the bits padded to whole 3-byte
    groups, cut to its first ceil(n(n-1)/12) characters, with base64's
    alphabet mapped onto chr(63)..chr(126).
    """
    if n > GRAPH6_MAX_SHORT:
        raise ParseError(f"short-form graph6 supports n <= {GRAPH6_MAX_SHORT}, got {n}")
    pairs = n * (n - 1) // 2
    chunks = -(-pairs // 6)
    groups = -(-chunks // 4)
    body = binascii.b2a_base64((bits << (24 * groups - pairs)).to_bytes(3 * groups, "big"), newline=False)
    return chr(63 + n) + body[:chunks].translate(_BASE64_TO_GRAPH6).decode()


def decode_graph6(text: str) -> LabeledGraph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[10:]
    if not text:
        raise ParseError("empty graph6 string")
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"invalid graph6 character {ch!r}")
    n = ord(text[0]) - 63
    if n > GRAPH6_MAX_SHORT:
        raise ParseError("long-form graph6 not supported")
    body = text[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    if any(bits[k:]):
        raise ParseError("nonzero padding bits in graph6 string")
    return LabeledGraph(n, edges)


def encode_sb(g: SignedBipartiteGraph) -> str:
    """``sb:m:n:bits`` with bit p*n+q set iff (p, q) is an edge."""
    m, n = g.plus_count, g.minus_count
    return sb_from_bits(m, n, ((p, q) in g.edges for p in range(m) for q in range(n)))


def sb_from_bits(m: int, n: int, bits) -> str:
    """The ``sb:m:n:bits`` text of the m x n signed graph whose edge bits,
    (p, q) at position p*n+q, are the 0s and 1s (or bools) `bits` yields."""
    return f"sb:{m}:{n}:" + "".join("01"[b] for b in bits)


def decode_sb(text: str) -> SignedBipartiteGraph:
    try:
        tag, m, n, bits = text.strip().split(":")
        m, n = int(m), int(n)
    except ValueError as exc:
        raise ParseError(f"bad sb string {text!r}") from exc
    if tag != "sb" or m < 0 or n < 0 or len(bits) != m * n or set(bits) - {"0", "1"}:
        raise ParseError(f"bad sb string {text!r}")
    return SignedBipartiteGraph(
        m, n, [(p, q) for p in range(m) for q in range(n) if bits[p * n + q] == "1"]
    )


# ---------------------------------------------------------------------------
# Inline graph names (CLI and tests): c4, p3, k2,3, s3, or raw graph6
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^(c|p|s)(\d+)$|^k(\d+),(\d+)$")


def parse_graph(text: str) -> LabeledGraph:
    """Parse c{k}/p{k}/s{k}/k{a},{b} names, JSON, or raw graph6."""
    text = text.strip()
    m = _NAME_RE.match(text.lower())
    if m:
        try:
            if m.group(3) is not None:
                return complete_bipartite(int(m.group(3)), int(m.group(4)))
            kind, k = m.group(1), int(m.group(2))
            if kind == "c":
                return cycle(k)
            if kind == "p":
                return path(k)
            return star(k)
        except ValueError as exc:
            raise ParseError(f"cannot build graph {text!r}: {exc}") from exc
    if text.startswith("{"):
        return LabeledGraph.from_json(text)
    return decode_graph6(text)


def parse_signed_graph(text: str) -> SignedBipartiteGraph:
    """Parse signed graphs: c{2k} (alternating cycle), k{a},{b}, s{k}+/s{k}-, or JSON."""
    text = text.strip()
    low = text.lower()
    try:
        m = re.match(r"^s(\d+)([+-])$", low)
        if m:
            return signed_star(int(m.group(1)), center_plus=m.group(2) == "+")
        m = re.match(r"^k(\d+),(\d+)$", low)
        if m:
            return signed_complete_bipartite(int(m.group(1)), int(m.group(2)))
        m = re.match(r"^c(\d+)$", low)
        if m:
            return signed_cycle(int(m.group(1)))
    except ValueError as exc:
        raise ParseError(f"cannot build signed graph {text!r}: {exc}") from exc
    if text.startswith("{"):
        return SignedBipartiteGraph.from_json(text)
    raise ParseError(f"cannot parse signed graph {text!r}")
