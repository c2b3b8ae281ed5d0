"""The balanced-family builder, the maximality check and the cap check of
verify_family against references that share no code with supersat.

The first reference lists every map by itertools.permutations with direct
has_edge checks, orders the maps the way the builder's stream promises (the
position of the image of the distinguished edge in the edge order, then the
orientation, then the map tuple) and applies the caps itself.  Hosts
have at most 8 vertices, so the permutation scan stays small.

The second is the builder as it was before its stream pruned saturated
vertices: the per-map backtracker's stream through every host edge, cut
only at the per-edge cap, with the caps applied here.  It runs on seeded
hosts of 20 to 36 vertices, the sizes of the benchmark's families.
"""

import itertools
import json
import random
from collections import Counter

from edgeglue import embed, supersat
from edgeglue.constructions import SeededSampler
from edgeglue.embed import Embedding
from edgeglue.gluing import RootedPattern
from edgeglue.graphs import LabeledGraph, SignedBipartiteGraph
from edgeglue.supersat import (
    BalancedFamily,
    FamilyConstraints,
    build_balanced_family,
    build_signed_balanced_family,
    remaining_recruitable,
    verify_family,
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


def reference_violations(members, f, roots, caps):
    """verify_family's edge and pair violation lists, from the reference's
    own per-edge and per-pair counts over every member, repeats included."""
    edge_deg, pair_deg = Counter(), Counter()
    for img in members:
        add(img, f, roots, edge_deg, pair_deg)

    def over(deg, cap):
        return tuple(sorted((k, d) for k, d in deg.items() if cap is not None and d > cap))

    return over(edge_deg, caps.per_edge_cap), over(pair_deg, caps.per_pair_cap)


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


class TestVerifyAgainstReference:
    """Families checked under caps other than the ones they were built
    under, so many of them break a cap."""

    def _check(self, fam, f, roots, caps):
        report = verify_family(fam, caps)
        expected = reference_violations([m.map for m in fam.members], f, roots, caps)
        assert (report.edge_violations, report.pair_violations) == expected, (
            fam.host, fam.pattern, caps, [m.map for m in fam.members]
        )
        return expected != ((), ())

    def test_unsigned(self):
        rng = random.Random(20255)
        flagged = 0
        for _ in range(200):
            host, pattern = unsigned_case(rng)
            fam = build_balanced_family(host, pattern, random_caps(rng))
            flagged += self._check(
                fam, pattern.distinguished_edge, pattern.root_vertices, random_caps(rng)
            )
        assert flagged >= 30

    def test_signed(self):
        rng = random.Random(20256)
        flagged = 0
        for _ in range(200):
            host, h, f = signed_case(rng)
            fam = build_signed_balanced_family(host, h, f, random_caps(rng))
            flat_f = (f[0], h.plus_count + f[1])
            flagged += self._check(fam, flat_f, flat_f, random_caps(rng))
        assert flagged >= 30

    def test_member_repeated_past_the_cap(self):
        # a capped build, then one member repeated cap more times: its image
        # edge now breaks the per-edge cap, and the repeats are listed
        rng = random.Random(20257)
        checked = 0
        for _ in range(60):
            host, pattern = unsigned_case(rng)
            caps = FamilyConstraints(
                per_edge_cap=rng.choice((1, 2, 3)), per_pair_cap=rng.choice((None, 1, 2, 3))
            )
            fam = build_balanced_family(host, pattern, caps)
            if not fam.members:
                continue
            size = fam.size
            repeat = rng.choice(fam.members)
            fam.members.extend([repeat] * caps.per_edge_cap)
            f = pattern.distinguished_edge
            assert self._check(fam, f, pattern.root_vertices, caps)
            report = verify_family(fam, caps)
            assert image_edge(repeat.map, f) in dict(report.edge_violations)
            assert report.repeated_members == tuple(range(size, fam.size))
            checked += 1
        assert checked >= 40


def unpruned_stream(host, pattern, f, colors, edge_order, edge_deg, per_edge):
    """The candidate stream before it pruned saturated vertices: every map
    through each host edge in edge order, both orientations, lexicographic
    inside each; a group is left once its edge is at the per-edge cap."""
    a, b = f
    pc, hc = colors or (None, None)
    for e in edge_order:
        x, y = e
        for fixed in ({a: x, b: y}, {a: y, b: x}):
            if per_edge is not None and edge_deg[e] >= per_edge:
                break
            if pc is not None and (pc[a] != hc[fixed[a]] or pc[b] != hc[fixed[b]]):
                continue
            for img in embed._backtrack(pattern, host, fixed, pc, hc):
                yield img
                if per_edge is not None and edge_deg[e] >= per_edge:
                    break


def unpruned_build(host, pattern, f, roots, colors, edge_order, caps):
    edge_deg, pair_deg, members = Counter(), Counter(), []
    for img in unpruned_stream(host, pattern, f, colors, edge_order, edge_deg, caps.per_edge_cap):
        if caps.target_size is not None and len(members) >= caps.target_size:
            break
        if admits(img, f, roots, edge_deg, pair_deg, caps.per_edge_cap, caps.per_pair_cap):
            add(img, f, roots, edge_deg, pair_deg)
            members.append(img)
    return members


def unpruned_remaining(host, pattern, f, roots, colors, members, caps):
    edge_deg, pair_deg = Counter(), Counter()
    for img in members:
        add(img, f, roots, edge_deg, pair_deg)
    in_family = set(members)
    stream = unpruned_stream(host, pattern, f, colors, sorted(host.edges), edge_deg, caps.per_edge_cap)
    return [
        list(img)
        for img in stream
        if img not in in_family
        and admits(img, f, roots, edge_deg, pair_deg, caps.per_edge_cap, caps.per_pair_cap)
    ]


def gnm(rng, n, m):
    return LabeledGraph(n, rng.sample(list(itertools.combinations(range(n), 2)), m))


C6_EDGES = [(i, (i + 1) % 6) for i in range(6)]
# (vertex count, edges, roots, root edges); the distinguished edge is (0, 1).
# Roots on (0, 1) pin psi in each orientation; the others do not.
LARGE_PATTERNS = UNSIGNED_PATTERNS + (
    (6, C6_EDGES, (0, 1), [(0, 1)]),  # C6
    (6, C6_EDGES, (0,), []),  # C6, one root on the distinguished edge
    (4, [(0, 1), (1, 2), (2, 3)], (1,), []),  # P4, one root on the distinguished edge
    (4, [(0, 1), (1, 2), (2, 3)], (2,), []),  # P4, one root off it
    (5, [(0, 1), (0, 3), (2, 1), (2, 3), (4, 1), (4, 3)], (0, 1, 2), [(0, 1), (1, 2)]),  # K2,3, F = P3
)
LARGE_CAPS = (None, 0, 1, 2, 3)


class TestPrunedStreamAtScale:
    """The pruned builder and maximality check against the unpruned ones,
    on hosts of 20 to 36 vertices under every pair of caps."""

    def _check(self, fam, pattern, f, roots, colors, seed, caps):
        edge_order = reference_edge_order(fam.host, seed)
        members = unpruned_build(fam.host, pattern, f, roots, colors, edge_order, caps)
        expected = BalancedFamily(
            fam.host, fam.pattern, [Embedding(pattern, fam.host, m) for m in members],
            fam.signed_host, fam.signed_pattern,
        )
        assert fam.to_json() == expected.to_json(), (fam.pattern, caps, seed)
        # the same family checked under a looser per-edge cap keeps a list
        looser = FamilyConstraints(
            per_edge_cap=None if caps.per_edge_cap is None else caps.per_edge_cap + 1,
            per_pair_cap=caps.per_pair_cap,
        )
        for check in (caps, looser):
            got = [list(e.map) for e in remaining_recruitable(fam, check)]
            assert got == unpruned_remaining(fam.host, pattern, f, roots, colors, members, check)
        return len(members)

    def test_unsigned(self):
        rng = random.Random(20258)
        sizes = 0
        for k, edges, roots, root_edges in LARGE_PATTERNS:
            pattern = RootedPattern(LabeledGraph(k, edges), roots, frozenset(root_edges), (0, 1))
            for per_edge in LARGE_CAPS:
                n = rng.randint(20, 36)
                host = gnm(rng, n, rng.randint(n, 2 * n) if k == 6 else rng.randint(2 * n, 3 * n))
                caps = FamilyConstraints(
                    per_edge_cap=per_edge, per_pair_cap=rng.choice(LARGE_CAPS),
                    target_size=rng.choice((None, None, 5, 40)),
                )
                seed = rng.choice((None, rng.randrange(1000)))
                fam = build_balanced_family(
                    host, pattern, caps, None if seed is None else SeededSampler(seed)
                )
                sizes += self._check(fam, pattern.pattern, (0, 1), roots, None, seed, caps)
        assert sizes > 1000

    def test_signed(self):
        rng = random.Random(20259)
        h = SignedBipartiteGraph(*SIGNED_PATTERNS[0])  # C4
        for per_edge in LARGE_CAPS:
            for per_pair in LARGE_CAPS:
                m, n = rng.randint(10, 18), rng.randint(10, 18)
                pairs = [(p, q) for p in range(m) for q in range(n)]
                host = SignedBipartiteGraph(m, n, rng.sample(pairs, len(pairs) // 4))
                caps = FamilyConstraints(per_edge_cap=per_edge, per_pair_cap=per_pair)
                seed = rng.randrange(1000)
                fam = build_signed_balanced_family(host, h, (0, 0), caps, SeededSampler(seed))
                flat_f = (0, h.plus_count)
                self._check(
                    fam, h.as_unsigned(), flat_f, flat_f, (h.colors, host.colors), seed, caps
                )

    def test_members_outside_the_host_are_counted_not_avoided(self):
        # a family file may name any int; such a pair counts toward the cap
        # but cannot mark a host vertex saturated
        rng = random.Random(20261)
        k, edges, roots, root_edges = UNSIGNED_PATTERNS[0]  # C4
        pattern = RootedPattern(LabeledGraph(k, edges), roots, frozenset(root_edges), (0, 1))
        host = gnm(rng, 24, 60)
        caps = FamilyConstraints(per_edge_cap=2, per_pair_cap=1)
        fam = build_balanced_family(host, pattern, FamilyConstraints(target_size=10))
        x, y = fam.members[0].map[:2]
        fam.members += [Embedding(pattern.pattern, host, (x, y, u, 10**6)) for u in (-1, 5)]
        members = [m.map for m in fam.members]
        got = [list(e.map) for e in remaining_recruitable(fam, caps)]
        assert got == unpruned_remaining(host, pattern.pattern, (0, 1), roots, None, members, caps)
        assert got

    @staticmethod
    def record_verdicts(monkeypatch) -> list:
        verdicts = []
        admits_ = supersat._Ledger.admits

        def recording(self, keys):
            verdicts.append(admits_(self, keys))
            return verdicts[-1]

        monkeypatch.setattr(supersat._Ledger, "admits", recording)
        return verdicts

    def test_edge_rooted_stream_yields_only_members(self, monkeypatch):
        """With the roots on the distinguished edge and no target size, every
        map the pruned stream yields is recruited: admits never says no."""
        verdicts = self.record_verdicts(monkeypatch)
        rng = random.Random(20260)
        for k, edges in ((4, UNSIGNED_PATTERNS[0][1]), (6, C6_EDGES), (4, UNSIGNED_PATTERNS[4][1])):
            pattern = RootedPattern(LabeledGraph(k, edges), (0, 1), frozenset([(0, 1)]), (0, 1))
            for per_edge in LARGE_CAPS:
                for per_pair in LARGE_CAPS:
                    n = rng.randint(20, 36)
                    host = gnm(rng, n, rng.randint(n, 2 * n))
                    caps = FamilyConstraints(per_edge_cap=per_edge, per_pair_cap=per_pair)
                    verdicts.clear()
                    fam = build_balanced_family(host, pattern, caps, SeededSampler(n))
                    assert verdicts == [True] * fam.size, (k, caps)

    def test_single_root_on_the_edge_yields_only_members(self, monkeypatch):
        """With one root on the distinguished edge, the other end is fixed in
        every map of an orientation; once it is saturated for psi the
        orientation yields nothing more, so every yield is recruited and the
        family is the unpruned builder's."""
        verdicts = self.record_verdicts(monkeypatch)
        rng = random.Random(20262)
        for k, edges in ((6, C6_EDGES), (4, UNSIGNED_PATTERNS[4][1])):
            for roots in ((0,), (1,)):
                pattern = RootedPattern(LabeledGraph(k, edges), roots, frozenset(), (0, 1))
                for per_edge in LARGE_CAPS:
                    for per_pair in LARGE_CAPS:
                        n = rng.randint(20, 36)
                        host = gnm(rng, n, rng.randint(n, 2 * n))
                        caps = FamilyConstraints(per_edge_cap=per_edge, per_pair_cap=per_pair)
                        verdicts.clear()
                        fam = build_balanced_family(host, pattern, caps, SeededSampler(n))
                        assert verdicts == [True] * fam.size, (k, roots, caps)
                        self._check(fam, pattern.pattern, (0, 1), roots, None, n, caps)
