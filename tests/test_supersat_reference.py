"""The balanced-family builder and the maximality check against a reference
that shares no code with supersat or the embedding backtracker.

The reference lists every map by itertools.permutations with direct
has_edge checks, orders the maps the way the builder's stream promises (the
position of the image of the distinguished edge in the edge order, then the
orientation, then the map tuple) and applies the caps itself.  Hosts
have at most 8 vertices, so the permutation scan stays small.
"""

import itertools
import json
import random
from collections import Counter

from edgeglue.constructions import SeededSampler
from edgeglue.gluing import RootedPattern
from edgeglue.graphs import LabeledGraph, SignedBipartiteGraph
from edgeglue.supersat import (
    FamilyConstraints,
    build_balanced_family,
    build_signed_balanced_family,
    remaining_recruitable,
)

CAPS = (None, 0, 1, 2, 3)

# (vertex count, edges, roots, root edges); the distinguished edge is (0, 1)
UNSIGNED_PATTERNS = (
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1), [(0, 1)]),  # C4
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2), [(0, 1), (1, 2)]),  # C4, F = P3
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 3), [(0, 1)]),  # C4, isolated root
    (3, [(0, 1), (1, 2)], (0, 1), [(0, 1)]),  # P3
    (4, [(0, 1), (1, 2), (2, 3)], (0, 1), [(0, 1)]),  # P4
    (4, [(0, 1), (0, 2), (0, 3)], (0, 1), [(0, 1)]),  # K1,3
    (5, [(0, 1), (0, 3), (2, 1), (2, 3), (4, 1), (4, 3)], (0, 1), [(0, 1)]),  # K2,3
    (4, [(0, 1), (1, 2), (2, 0), (2, 3)], (0, 1), [(0, 1)]),  # triangle with a tail
)

# (plus count, minus count, edges); the distinguished edge is drawn per case
SIGNED_PATTERNS = (
    (2, 2, [(0, 0), (1, 1), (0, 1), (1, 0)]),  # C4
    (1, 2, [(0, 0), (0, 1)]),  # star, centre on +
    (2, 1, [(0, 0), (1, 0)]),  # star, centre on -
    (2, 2, [(0, 0), (1, 0), (1, 1)]),  # P4
    (2, 3, [(p, q) for p in range(2) for q in range(3)]),  # K2,3
)


def reference_maps(pattern, host, colors=None):
    """Every injective edge-preserving map (side-preserving when colors
    gives the pattern and host sides), as tuples."""
    out = []
    for img in itertools.permutations(range(host.vertex_count), pattern.vertex_count):
        if not all(host.has_edge(img[a], img[b]) for a, b in pattern.edges):
            continue
        if colors is not None and any(colors[0][v] != colors[1][u] for v, u in enumerate(img)):
            continue
        out.append(img)
    return out


def stream_order(maps, f, edge_order):
    position = {e: i for i, e in enumerate(edge_order)}

    def key(img):
        e = tuple(sorted((img[f[0]], img[f[1]])))
        return (position[e], img[f[0]] != e[0], img)

    return sorted(maps, key=key)


def reference_edge_order(host, seed):
    edges = sorted(host.edges)
    if seed is None:
        return edges
    return [edges[i] for i in SeededSampler(seed).rng().permutation(len(edges))]


def image_edge(img, f):
    return tuple(sorted((img[f[0]], img[f[1]])))


def admits(img, f, roots, edge_deg, pair_deg, per_edge, per_pair):
    psi = tuple(img[r] for r in roots)
    if per_edge is not None and edge_deg[image_edge(img, f)] >= per_edge:
        return False
    extras = [u for u in img if u not in psi]
    return per_pair is None or all(pair_deg[(psi, u)] < per_pair for u in extras)


def add(img, f, roots, edge_deg, pair_deg):
    psi = tuple(img[r] for r in roots)
    edge_deg[image_edge(img, f)] += 1
    for u in img:
        if u not in psi:
            pair_deg[(psi, u)] += 1


def reference_greedy(ordered, f, roots, caps):
    edge_deg, pair_deg, members = Counter(), Counter(), []
    for img in ordered:
        if caps.target_size is not None and len(members) >= caps.target_size:
            break
        if admits(img, f, roots, edge_deg, pair_deg, caps.per_edge_cap, caps.per_pair_cap):
            add(img, f, roots, edge_deg, pair_deg)
            members.append(list(img))
    return members


def reference_remaining(ordered, f, roots, members, caps):
    edge_deg, pair_deg = Counter(), Counter()
    for img in members:
        add(img, f, roots, edge_deg, pair_deg)
    in_family = set(members)
    return [
        list(img)
        for img in ordered
        if img not in in_family
        and admits(img, f, roots, edge_deg, pair_deg, caps.per_edge_cap, caps.per_pair_cap)
    ]


def random_caps(rng):
    target = rng.choice((None, None, 0, 1, 3, 6, 12))
    return FamilyConstraints(
        per_edge_cap=rng.choice(CAPS), per_pair_cap=rng.choice(CAPS), target_size=target
    )


def unsigned_case(rng):
    n = rng.randint(4, 8)
    density = rng.choice((0.4, 0.6, 0.8))
    pairs = itertools.combinations(range(n), 2)
    host = LabeledGraph(n, [e for e in pairs if rng.random() < density])
    k, edges, roots, root_edges = rng.choice(UNSIGNED_PATTERNS)
    pattern = RootedPattern(LabeledGraph(k, edges), roots, frozenset(root_edges), (0, 1))
    return host, pattern


def signed_case(rng):
    m, n = rng.randint(2, 4), rng.randint(2, 4)
    density = rng.choice((0.5, 0.7, 0.9))
    host = SignedBipartiteGraph(
        m, n, [(p, q) for p in range(m) for q in range(n) if rng.random() < density]
    )
    pm, pn, edges = rng.choice(SIGNED_PATTERNS)
    return host, SignedBipartiteGraph(pm, pn, edges), rng.choice(edges)


def members_json(fam):
    return json.dumps([list(m.map) for m in fam.members])


class TestBuilderAgainstReference:
    def test_unsigned(self):
        rng = random.Random(20250)
        for case in range(240):
            host, pattern = unsigned_case(rng)
            caps = random_caps(rng)
            seed = rng.choice((None, rng.randrange(1000)))
            f = pattern.distinguished_edge
            ordered = stream_order(
                reference_maps(pattern.pattern, host), f, reference_edge_order(host, seed)
            )
            expected = reference_greedy(ordered, f, pattern.root_vertices, caps)
            sampler = None if seed is None else SeededSampler(seed)
            fam = build_balanced_family(host, pattern, caps, sampler)
            assert members_json(fam) == json.dumps(expected), (case, host, pattern, caps, seed)

    def test_signed(self):
        rng = random.Random(20251)
        for case in range(240):
            host, h, f = signed_case(rng)
            caps = random_caps(rng)
            seed = rng.choice((None, rng.randrange(1000)))
            flat_h, flat_g = h.as_unsigned(), host.as_unsigned()
            flat_f = (f[0], h.plus_count + f[1])
            ordered = stream_order(
                reference_maps(flat_h, flat_g, (h.colors, host.colors)),
                flat_f,
                reference_edge_order(flat_g, seed),
            )
            expected = reference_greedy(ordered, flat_f, flat_f, caps)
            sampler = None if seed is None else SeededSampler(seed)
            fam = build_signed_balanced_family(host, h, f, caps, sampler)
            assert members_json(fam) == json.dumps(expected), (case, host, h, f, caps, seed)


class TestRemainingAgainstOracle:
    """Families cut short by a target size, or built under caps other than
    the ones passed to the check, so the remaining list is often non-empty."""

    def _check(self, fam, flat_pattern, f, roots, colors, caps):
        members = [m.map for m in fam.members]
        ordered = stream_order(
            reference_maps(flat_pattern, fam.host, colors), f, sorted(fam.host.edges)
        )
        expected = reference_remaining(ordered, f, roots, members, caps)
        got = [list(e.map) for e in remaining_recruitable(fam, caps)]
        assert got == expected, (fam.host, fam.pattern, caps, members)
        return len(expected)

    def test_unsigned(self):
        rng = random.Random(20252)
        non_empty = 0
        for _ in range(200):
            host, pattern = unsigned_case(rng)
            fam = build_balanced_family(host, pattern, random_caps(rng))
            non_empty += bool(
                self._check(
                    fam, pattern.pattern, pattern.distinguished_edge,
                    pattern.root_vertices, None, random_caps(rng),
                )
            )
        assert non_empty >= 50

    def test_signed(self):
        rng = random.Random(20253)
        non_empty = 0
        for _ in range(200):
            host, h, f = signed_case(rng)
            fam = build_signed_balanced_family(host, h, f, random_caps(rng))
            flat_f = (f[0], h.plus_count + f[1])
            non_empty += bool(
                self._check(
                    fam, h.as_unsigned(), flat_f, flat_f, (h.colors, host.colors),
                    random_caps(rng),
                )
            )
        assert non_empty >= 50

    def test_looser_check_cap_lists_every_other_embedding(self):
        # built under per-edge cap 1 and checked under cap 2, with no pair cap:
        # each host edge keeps one member and lists all its other embeddings
        rng = random.Random(20254)
        for _ in range(40):
            host, pattern = unsigned_case(rng)
            fam = build_balanced_family(host, pattern, FamilyConstraints(per_edge_cap=1))
            f = pattern.distinguished_edge
            count = self._check(
                fam, pattern.pattern, f, pattern.root_vertices, None,
                FamilyConstraints(per_edge_cap=2),
            )
            through = Counter(image_edge(img, f) for img in reference_maps(pattern.pattern, host))
            assert count == sum(d - 1 for d in through.values())
