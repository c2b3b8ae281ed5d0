"""Greedy balanced-family builders and their verification tools.

A balanced family is a set of embeddings of a pattern H into a host G with
two multiplicity caps: no host edge is the image of the distinguished
pattern edge too often (per-edge cap), and no rooted copy psi of the
subforest F extends through any fixed extra vertex u too often (per-pair
cap).  The builder recruits embeddings greedily in a deterministic order:
grouped by the host edge e the distinguished edge lands on, both
orientations of e, lexicographic inside each.  Because both degree maps only
ever grow, a single pass is maximal: any embedding rejected once stays
unrecruitable.

The same monotonicity lets the candidate stream skip work.  Once e is at
the per-edge cap, no embedding through e can be recruited, so the rest of
e's group is never enumerated.  The builder and remaining_recruitable share
that stream, and every embedding it yields still goes through the full cap
test, so the members and the maximality report are exactly those of a
stream over every embedding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .embed import Embedding, _backtrack, count_copies
from .errors import EmptyCandidateSet, InvalidRootedPattern, PreconditionViolated
from .gluing import RootedPattern, _glue_oriented, _signed_glue
from .graphs import LabeledGraph, SignedBipartiteGraph, encode_graph6
from .constructions import SeededSampler


@dataclass(frozen=True)
class FamilyConstraints:
    """Caps for the greedy builder.  None means unconstrained.

    `from_cleaning_params` derives both caps from the paper's cleaning
    parameters A, epsilon and gamma.
    """

    per_edge_cap: Optional[int] = None
    per_pair_cap: Optional[int] = None
    target_size: Optional[int] = None

    def __post_init__(self):
        for cap in (self.per_edge_cap, self.per_pair_cap, self.target_size):
            if cap is not None and cap < 0:
                raise ValueError("caps must be nonnegative")

    @staticmethod
    def from_cleaning_params(a, epsilon, gamma) -> "FamilyConstraints":
        """Signed-setting caps: per-pair floor(gamma*A), per-edge floor((1+eps)*A)."""
        a, epsilon, gamma = Fraction(a), Fraction(epsilon), Fraction(gamma)
        return FamilyConstraints(
            per_edge_cap=int((1 + epsilon) * a),
            per_pair_cap=int(gamma * a),
        )


def derived_caps(stats, p, n, gamma, family_size=None, host_edges=None, epsilon=1):
    """The asymptotic cap formulas evaluated at finite n, for reporting only:
    per-pair gamma * p^(e(H)-e(F)) * n^(h-l); per-edge (1+eps)*|H|/e(G)."""
    p = float(p)
    per_pair = float(gamma) * p ** (stats.eH - stats.eF) * n ** (stats.h - stats.ell)
    per_edge = None
    if family_size is not None and host_edges:
        per_edge = (1 + float(epsilon)) * family_size / host_edges
    return per_pair, per_edge


@dataclass
class BalancedFamily:
    """The built family plus recomputable degree statistics.

    For signed builds, host/pattern are the flattened unsigned graphs and
    signed_host/signed_pattern keep the originals.
    """

    host: LabeledGraph
    pattern: RootedPattern
    members: list[Embedding]
    edge_degrees: dict[tuple[int, int], int]
    pair_degrees: dict[tuple, int]
    signed_host: Optional[SignedBipartiteGraph] = None
    signed_pattern: Optional[SignedBipartiteGraph] = None

    @property
    def size(self) -> int:
        return len(self.members)

    def psi_of(self, emb: Embedding) -> tuple[int, ...]:
        return tuple(emb.map[r] for r in self.pattern.root_vertices)

    def extra_vertices(self, emb: Embedding) -> list[int]:
        rooted = {emb.map[r] for r in self.pattern.root_vertices}
        return [u for u in emb.map if u not in rooted]

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


def _recruitable(fam: BalancedFamily, c: FamilyConstraints, emb: Embedding) -> bool:
    f = fam.pattern.distinguished_edge
    e = emb.image_edge(f)
    if c.per_edge_cap is not None and fam.edge_degrees.get(e, 0) >= c.per_edge_cap:
        return False
    if c.per_pair_cap is not None:
        psi = fam.psi_of(emb)
        for u in fam.extra_vertices(emb):
            if fam.pair_degrees.get((psi, u), 0) >= c.per_pair_cap:
                return False
    return True


def _recruit(fam: BalancedFamily, emb: Embedding) -> None:
    f = fam.pattern.distinguished_edge
    e = emb.image_edge(f)
    fam.edge_degrees[e] = fam.edge_degrees.get(e, 0) + 1
    psi = fam.psi_of(emb)
    for u in fam.extra_vertices(emb):
        fam.pair_degrees[(psi, u)] = fam.pair_degrees.get((psi, u), 0) + 1
    fam.members.append(emb)


def _candidate_stream(fam: BalancedFamily, c: FamilyConstraints, edge_order):
    """Embeddings grouped by the host edge e the distinguished edge lands on,
    both orientations of e, lexicographic inside each orientation.

    A group is skipped, or left at once, when e is at the per-edge cap: the
    degree is read before each orientation and after every yield, so a
    consumer that recruits between yields is seen at once.  Skipping is
    exact because degrees only grow and _recruitable rejects an embedding
    whose image edge is at the cap before it looks at anything else.
    """
    a, b = fam.pattern.distinguished_edge
    pc = hc = None
    if fam.signed_host is not None:
        pc, hc = fam.signed_pattern.colors, fam.signed_host.colors
    cap, degrees = c.per_edge_cap, fam.edge_degrees
    for e in edge_order:
        x, y = e
        for fixed in ({a: x, b: y}, {a: y, b: x}):
            if cap is not None and degrees.get(e, 0) >= cap:
                break
            if pc is not None and (pc[a] != hc[fixed[a]] or pc[b] != hc[fixed[b]]):
                continue
            for emb in _backtrack(fam.pattern.pattern, fam.host, fixed, pc, hc):
                yield emb
                if cap is not None and degrees.get(e, 0) >= cap:
                    break


def _build(fam: BalancedFamily, c: FamilyConstraints, edge_order) -> BalancedFamily:
    for emb in _candidate_stream(fam, c, edge_order):
        if c.target_size is not None and fam.size >= c.target_size:
            break
        if _recruitable(fam, c, emb):
            _recruit(fam, emb)
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
    fam = BalancedFamily(host=g, pattern=p, members=[], edge_degrees={}, pair_degrees={})
    return _build(fam, c, _edge_order(g, sampler))


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
    fam = BalancedFamily(
        host=flat_g,
        pattern=p,
        members=[],
        edge_degrees={},
        pair_degrees={},
        signed_host=g,
        signed_pattern=h,
    )
    return _build(fam, c, _edge_order(flat_g, sampler))


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
    f = fam.pattern.distinguished_edge
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
        psi = fam.psi_of(emb)
        for u in fam.extra_vertices(emb):
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

    Empty for a greedy build with no target size.  The degrees are
    recomputed from fam.members, so a family rebuilt from its members alone
    is judged like the built one; fam is not changed.  Host-edge groups
    whose per-edge degree is at the cap are skipped unseen, which is exact:
    every embedding in such a group fails the per-edge test of _recruitable.
    """
    counted = replace(fam, members=[], edge_degrees={}, pair_degrees={})
    for emb in fam.members:
        _recruit(counted, emb)
    in_family = {m.map for m in fam.members}
    return [
        emb
        for emb in _candidate_stream(counted, c, fam.host.sorted_edges)
        if emb.map not in in_family and _recruitable(counted, c, emb)
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
        psi = fam.psi_of(emb)
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
    vertex-disjoint away from it; None if the greedy choice gets blocked."""
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
