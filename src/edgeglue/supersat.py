"""Greedy balanced-family builders and their verification tools.

A balanced family is a set of embeddings of a pattern H into a host G with
two multiplicity caps: no host edge is the image of the distinguished
pattern edge too often (per-edge cap), and no rooted copy psi of the
subforest F extends through any fixed extra vertex u too often (per-pair
cap).  A BalancedFamily holds only its members; the builder counts the
degrees in a `_Ledger` of its own.  The builder recruits embeddings greedily
in a deterministic order: grouped by the host edge e the distinguished edge
lands on, both orientations of e, lexicographic inside each.  Because both
degree maps only ever grow, a single pass is maximal: any embedding rejected
once stays unrecruitable.

The same monotonicity lets the candidate stream skip work.  Once e is at
the per-edge cap, no embedding through e can be recruited, so the rest of
e's group is never enumerated.  When the roots lie on the distinguished
edge, as in every edge-rooted and every signed build, an orientation of e
fixes psi, and a vertex u is saturated once (psi, u) is at the per-pair cap;
the embedding kernel then never places a saturated u, and a recruit that
saturates more restarts the orientation past its last map.  Inside such a
stream a map is inadmissible exactly when its edge is at the cap or it uses
a saturated u, so the stream yields exactly the maps a stream over every
embedding would admit, in the same order.  The builder and
remaining_recruitable share it, and every map still goes through the full
cap test.  `verify_family` counts the degrees again in its own code, so a
fault in the ledger shows up as a disagreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import dropwhile
from typing import Optional, Union

from .embed import Embedding, _backtrack, count_copies
from .errors import EmptyCandidateSet, InvalidRootedPattern, ParseError, PreconditionViolated
from .gluing import RootedPattern, _glue_oriented, _signed_glue
from .graphs import LabeledGraph, SignedBipartiteGraph, _check_ints, decode_graph6, encode_graph6
from .constructions import SeededSampler


@dataclass(frozen=True)
class FamilyConstraints:
    """Caps for the greedy builder.  None means unconstrained."""

    per_edge_cap: Optional[int] = None
    per_pair_cap: Optional[int] = None
    target_size: Optional[int] = None

    def __post_init__(self):
        for cap in (self.per_edge_cap, self.per_pair_cap, self.target_size):
            if cap is not None and cap < 0:
                raise ValueError("caps must be nonnegative")


@dataclass
class BalancedFamily:
    """The built family: its members, as embeddings of pattern into host.

    For signed builds, host/pattern are the flattened unsigned graphs and
    signed_host/signed_pattern keep the originals.  `to_json` and `from_json`
    define the family file format.
    """

    host: LabeledGraph
    pattern: RootedPattern
    members: list[Embedding]
    signed_host: Optional[SignedBipartiteGraph] = None
    signed_pattern: Optional[SignedBipartiteGraph] = None

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json(self) -> str:
        payload = {
            "host": encode_graph6(self.host),
            "pattern": encode_graph6(self.pattern.pattern),
            "roots": list(self.pattern.root_vertices),
            "root_edges": sorted(list(e) for e in self.pattern.root_edges),
            "distinguished_edge": list(self.pattern.distinguished_edge),
            "members": [list(m.map) for m in self.members],
        }
        if self.signed_host is not None:
            payload["signed_host"] = json.loads(self.signed_host.to_json())
            payload["signed_pattern"] = json.loads(self.signed_pattern.to_json())
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: Union[str, bytes]) -> "BalancedFamily":
        """The family `to_json` wrote (bytes must be UTF-8); members are read
        as given, for `verify_family` to check."""
        try:
            payload = json.loads(text.decode() if isinstance(text, bytes) else text)
        except ValueError as exc:
            raise ParseError(f"family file is not JSON: {exc}") from exc
        try:
            host = decode_graph6(payload["host"])
            pattern = decode_graph6(payload["pattern"])
            roots = tuple(payload["roots"])
            root_edges = [tuple(e) for e in payload["root_edges"]]
            marked = tuple(payload["distinguished_edge"])
            _check_ints([*roots, *marked, *(v for e in root_edges for v in e)])
            p = RootedPattern(pattern, roots, frozenset(root_edges), marked)
            members = []
            for m in payload["members"]:
                if not (isinstance(m, list) and all(type(v) is int for v in m)):
                    raise TypeError(f"member {m!r} is not a list of ints")
                members.append(Embedding(pattern, host, tuple(m)))
            signed = [None, None]
            if "signed_host" in payload:
                signed = [
                    SignedBipartiteGraph.from_json(json.dumps(payload[k]))
                    for k in ("signed_host", "signed_pattern")
                ]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"family file lacks a field or has the wrong shape: {exc!r}") from exc
        if signed[0] is not None and [g.as_unsigned() for g in signed] != [host, pattern]:
            raise ParseError("signed_host or signed_pattern does not flatten to host or pattern")
        return BalancedFamily(host, p, members, *signed)


class _Ledger:
    """The builder's degree counts under the caps c.

    A member's keys are the host edge its distinguished edge lands on and
    (psi, u) for each extra vertex u, psi being its image of the roots.
    `keys` computes them once per candidate map for `admits` and `add`.
    `saturated` maps psi to the bitmask of the host vertices u whose pair
    (psi, u) is at the per-pair cap; `avoid` reads it, and gives every
    vertex (-1) under a cap of 0, which every pair meets.
    """

    def __init__(self, fam: BalancedFamily, c: FamilyConstraints):
        p, self.n = fam.pattern, fam.host.vertex_count
        self.f, self.roots, self.c = p.distinguished_edge, p.root_vertices, c
        self.edges: dict = {}
        self.pairs: dict = {}
        self.saturated: dict = {}

    def keys(self, m: tuple) -> tuple:
        psi = tuple([m[r] for r in self.roots])
        a, b = m[self.f[0]], m[self.f[1]]
        return (a, b) if a < b else (b, a), [(psi, u) for u in m if u not in psi]

    def avoid(self, psi: tuple) -> int:
        return -1 if self.c.per_pair_cap == 0 else self.saturated.get(psi, 0)

    def admits(self, keys) -> bool:
        e, pairs = keys
        edge_cap, pair_cap = self.c.per_edge_cap, self.c.per_pair_cap
        if edge_cap is not None and self.edges.get(e, 0) >= edge_cap:
            return False
        if pair_cap is not None:
            for k in pairs:
                if self.pairs.get(k, 0) >= pair_cap:
                    return False
        return True

    def add(self, keys) -> None:
        e, pairs = keys
        self.edges[e] = self.edges.get(e, 0) + 1
        degrees, cap, saturated = self.pairs, self.c.per_pair_cap, self.saturated
        for k in pairs:
            d = degrees[k] = degrees.get(k, 0) + 1
            psi, u = k
            # a member read by from_json may name a vertex outside the host
            if cap is not None and d >= cap and 0 <= u < self.n:
                saturated[psi] = saturated.get(psi, 0) | 1 << u


def _candidate_stream(fam: BalancedFamily, ledger: _Ledger, edge_order):
    """Maps grouped by the host edge e the distinguished edge lands on, both
    orientations of e, lexicographic inside each orientation.

    A group is skipped, or left at once, when e is at the per-edge cap: the
    degree is read before each orientation and after every yield, so a
    consumer that recruits between yields is seen at once.  When the roots
    lie on the distinguished edge, an orientation pins psi, and its maps
    avoid the vertices u saturated for psi; when a recruit saturates more,
    the orientation restarts with the larger mask past the last map it
    yielded, and it is skipped or left once an end of the edge outside psi
    is saturated, since every map of it uses that end.  The cuts are exact
    because degrees only grow and the ledger admits no map through an edge
    at the cap or a saturated pair.
    """
    p = fam.pattern
    a, b = p.distinguished_edge
    pinned = set(p.root_vertices) <= {a, b}
    pc = hc = None
    if fam.signed_host is not None:
        pc, hc = fam.signed_pattern.colors, fam.signed_host.colors
    cap, degrees = ledger.c.per_edge_cap, ledger.edges
    for e in edge_order:
        x, y = e
        for fixed in ({a: x, b: y}, {a: y, b: x}):
            if cap is not None and degrees.get(e, 0) >= cap:
                break
            if pc is not None and (pc[a] != hc[fixed[a]] or pc[b] != hc[fixed[b]]):
                continue
            psi = tuple([fixed[r] for r in p.root_vertices]) if pinned else None
            ends = sum(1 << fixed[v] for v in (a, b) if v not in p.root_vertices) if pinned else 0
            avoid = ledger.avoid(psi) if pinned else 0
            if avoid & ends:
                continue
            maps = _backtrack(p.pattern, fam.host, fixed, pc, hc, avoid=avoid)
            while (m := next(maps, None)) is not None:
                yield m
                if cap is not None and degrees.get(e, 0) >= cap:
                    break
                if pinned and ledger.avoid(psi) != avoid:
                    avoid = ledger.avoid(psi)
                    if avoid & ends:
                        break
                    maps = _backtrack(p.pattern, fam.host, fixed, pc, hc, avoid=avoid)
                    maps = dropwhile(m.__ge__, maps)


def _build(fam: BalancedFamily, c: FamilyConstraints, edge_order) -> BalancedFamily:
    ledger = _Ledger(fam, c)
    h, g = fam.pattern.pattern, fam.host
    for m in _candidate_stream(fam, ledger, edge_order):
        if c.target_size is not None and fam.size >= c.target_size:
            break
        keys = ledger.keys(m)
        if ledger.admits(keys):
            ledger.add(keys)
            fam.members.append(Embedding(h, g, m))
    return fam


def _edge_order(host: LabeledGraph, sampler: Optional[SeededSampler]):
    edges = list(host.sorted_edges)
    if sampler is not None:
        rng = sampler.rng()
        edges = [edges[i] for i in rng.permutation(len(edges))]
    return edges


def build_balanced_family(
    g: LabeledGraph,
    p: RootedPattern,
    c: FamilyConstraints,
    sampler: Optional[SeededSampler] = None,
) -> BalancedFamily:
    """Greedy recruitment loop over the embeddings of the pattern.

    Embeddings are visited grouped by the host edge the distinguished edge
    maps to (optionally a seeded shuffle of that edge order) and
    lexicographically inside each group.  A group whose edge is at the
    per-edge cap is left unvisited; the members are those of a visit of
    every embedding.
    """
    if p.distinguished_edge is None:
        raise InvalidRootedPattern("builder needs a distinguished edge")
    return _build(BalancedFamily(g, p, []), c, _edge_order(g, sampler))


def build_signed_balanced_family(
    g: SignedBipartiteGraph,
    h: SignedBipartiteGraph,
    f: tuple[int, int],
    c: FamilyConstraints,
    sampler: Optional[SeededSampler] = None,
) -> BalancedFamily:
    """Signed builder: sign-respecting embeddings, F = the fixed edge f."""
    f = h.check_edge(f)
    flat_h = h.as_unsigned()
    flat_g = g.as_unsigned()
    flat_f = h.flat_edge(f)
    p = RootedPattern(flat_h, flat_f, frozenset([flat_f]), flat_f)
    return _build(BalancedFamily(flat_g, p, [], g, h), c, _edge_order(flat_g, sampler))


@dataclass(frozen=True)
class FamilyReport:
    size: int
    edge_violations: tuple
    pair_violations: tuple
    invalid_members: tuple  # (member index, reason) for maps that are not embeddings
    repeated_members: tuple  # indices of members equal to an earlier member

    @property
    def violation_count(self) -> int:
        return (
            len(self.edge_violations)
            + len(self.pair_violations)
            + len(self.invalid_members)
            + len(self.repeated_members)
        )


def _member_fault(fam: BalancedFamily, emb: Embedding) -> Optional[str]:
    """Why emb is not an embedding of fam's pattern into its host, or None."""
    m, h, g = emb.map, fam.pattern.pattern, fam.host
    if len(m) != h.vertex_count:
        return "wrong length"
    if not all(isinstance(u, int) and 0 <= u < g.vertex_count for u in m):
        return "vertex out of range"
    if len(set(m)) != len(m):
        return "not injective"
    if not all(g.has_edge(m[a], m[b]) for a, b in h.edges):
        return "not edge-preserving"
    if fam.signed_host is not None:
        pc, hc = fam.signed_pattern.colors, fam.signed_host.colors
        if any(pc[v] != hc[u] for v, u in enumerate(m)):
            return "crosses sides"
    return None


def verify_family(fam: BalancedFamily, c: FamilyConstraints) -> FamilyReport:
    """Recompute all degrees from the member list and list every cap violation,
    every member that is not an embedding and every repeated member.
    Degrees count the valid members, repeats included."""
    f, roots = fam.pattern.distinguished_edge, fam.pattern.root_vertices
    edge_deg: dict = {}
    pair_deg: dict = {}
    invalid = []
    repeated = []
    seen = set()
    for i, emb in enumerate(fam.members):
        fault = _member_fault(fam, emb)
        if fault is not None:
            invalid.append((i, fault))
            continue
        if emb.map in seen:
            repeated.append(i)
        seen.add(emb.map)
        e = emb.image_edge(f)
        edge_deg[e] = edge_deg.get(e, 0) + 1
        psi = tuple(emb.map[r] for r in roots)
        for u in set(emb.map) - set(psi):
            pair_deg[(psi, u)] = pair_deg.get((psi, u), 0) + 1
    edge_bad = tuple(
        sorted(
            (e, d)
            for e, d in edge_deg.items()
            if c.per_edge_cap is not None and d > c.per_edge_cap
        )
    )
    pair_bad = tuple(
        sorted(
            (k, d)
            for k, d in pair_deg.items()
            if c.per_pair_cap is not None and d > c.per_pair_cap
        )
    )
    return FamilyReport(
        size=fam.size,
        edge_violations=edge_bad,
        pair_violations=pair_bad,
        invalid_members=tuple(invalid),
        repeated_members=tuple(repeated),
    )


def remaining_recruitable(fam: BalancedFamily, c: FamilyConstraints) -> list[Embedding]:
    """Maximality check: the embeddings outside the family that the caps
    would still admit, in stream order over the host's sorted edges.

    Empty for a greedy build with no target size.  The degrees are counted
    from fam.members into a fresh ledger; fam is not changed.  The stream
    skips host-edge groups at the per-edge cap and maps through saturated
    vertices unseen, which is exact: the ledger admits none of them.
    """
    ledger = _Ledger(fam, c)
    for emb in fam.members:
        ledger.add(ledger.keys(emb.map))
    in_family = {m.map for m in fam.members}
    h, g = fam.pattern.pattern, fam.host
    return [
        Embedding(h, g, m)
        for m in _candidate_stream(fam, ledger, fam.host.sorted_edges)
        if m not in in_family and ledger.admits(ledger.keys(m))
    ]


def heavy_light_split(degrees: dict, threshold) -> tuple[dict, dict, int]:
    """Partition by extension degree; returns (heavy, light, light_mass)."""
    if Fraction(threshold) < 0:
        raise ValueError("threshold must be nonnegative")
    threshold = Fraction(threshold)
    heavy = {k: d for k, d in degrees.items() if d >= threshold}
    light = {k: d for k, d in degrees.items() if d < threshold}
    return heavy, light, sum(light.values())


def extension_degrees(fam: BalancedFamily) -> dict[tuple, int]:
    """deg(psi) = number of family members restricting to psi on F."""
    out: dict[tuple, int] = {}
    for emb in fam.members:
        psi = tuple(emb.map[r] for r in fam.pattern.root_vertices)
        out[psi] = out.get(psi, 0) + 1
    return out


@dataclass(frozen=True)
class GluedCopy:
    """A glued-pattern embedding assembled from one member per family."""

    members: tuple[Embedding, ...]
    glued_pattern: Union[LabeledGraph, SignedBipartiteGraph]
    map: tuple[int, ...]  # over the flattened glued pattern


def assemble_glued_copies(
    g, families: list[BalancedFamily], shared_edge
) -> Optional[GluedCopy]:
    """Greedily pick one member per family through shared_edge, pairwise
    vertex-disjoint away from it; None if the greedy choice gets blocked.

    g is not read: the host is each family's own.  The parameter stays
    because callers such as bench/workloads.py and demo 05 pass it."""
    shared = tuple(sorted(shared_edge))
    shared_set = set(shared)
    signed = families[0].signed_host is not None if families else False
    pools = []
    for fam in families:
        f = fam.pattern.distinguished_edge
        pool = [m for m in fam.members if m.image_edge(f) == shared]
        if not pool:
            raise EmptyCandidateSet(
                f"a family has no member through the shared edge {shared}"
            )
        pools.append(pool)
    chosen: list[Embedding] = []
    occupied: set[int] = set(shared_set)
    for pool in pools:
        pick = None
        for emb in pool:
            img = set(emb.map)
            if img & occupied <= shared_set:
                pick = emb
                break
        if pick is None:
            return None
        chosen.append(pick)
        occupied |= set(pick.map)
    return _combine(families, chosen, shared, signed)


def _combine(families, chosen, shared, signed) -> GluedCopy:
    """Glue the families' patterns the way the chosen members meet at the
    shared edge, and compose each member's map with its part's vertex map."""
    if signed:
        parts = [(f.signed_pattern, f.signed_pattern.side_edge(f.pattern.distinguished_edge))
                 for f in families]
        glued, maps = _signed_glue(parts)
    else:
        parts = [(f.pattern.pattern, f.pattern.distinguished_edge) for f in families]
        # flip a part whose marked edge has its first endpoint on shared[1]
        flips = [emb.map[e[0]] != shared[0] for (_, e), emb in zip(parts, chosen)]
        glued, maps = _glue_oriented(parts, flips)
    gmap = [0] * glued.vertex_count
    for vmap, emb in zip(maps, chosen):
        for v, u in enumerate(vmap):
            gmap[u] = emb.map[v]
    return GluedCopy(tuple(chosen), glued, tuple(gmap))


@dataclass(frozen=True)
class RoughCountReport:
    copies: int
    required: Fraction
    passed: bool


def rough_count_check(
    g: SignedBipartiteGraph, h: SignedBipartiteGraph, z: int, k
) -> RoughCountReport:
    """Check the copy-count floor (k/2)^e(H) * z for hosts with >= k*z edges."""
    k = Fraction(k)
    if k < 4:
        raise PreconditionViolated("need K >= 4")
    if g.edge_count < k * z:
        raise PreconditionViolated("host must have at least K*z edges")
    copies = count_copies(h, g)
    required = (k / 2) ** h.edge_count * z
    return RoughCountReport(copies=copies, required=required, passed=copies >= required)
