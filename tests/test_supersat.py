"""Greedy balanced-family builders, verification, splitting, assembly, and
the rough copy-count check."""

from collections import Counter

import pytest

from edgeglue.constructions import SeededSampler
from edgeglue.embed import Embedding, count_embeddings
from edgeglue.errors import (
    EmptyCandidateSet,
    InvalidRootedPattern,
    ParseError,
    PreconditionViolated,
)
from edgeglue.gluing import RootedPattern, edge_rooted
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete_bipartite,
    cycle,
    signed_complete_bipartite,
    signed_cycle,
    signed_star,
)
from edgeglue.supersat import (
    BalancedFamily,
    FamilyConstraints,
    assemble_glued_copies,
    build_balanced_family,
    build_signed_balanced_family,
    extension_degrees,
    heavy_light_split,
    remaining_recruitable,
    rough_count_check,
    verify_family,
)

C4_ROOTED = edge_rooted(cycle(4), (0, 1))
UNCAPPED = FamilyConstraints()


class TestBuilder:
    def test_empty_host_gives_empty_family(self):
        fam = build_balanced_family(LabeledGraph(6), C4_ROOTED, UNCAPPED)
        assert fam.size == 0

    def test_uncapped_k33_recruits_all_embeddings(self):
        fam = build_balanced_family(complete_bipartite(3, 3), C4_ROOTED, UNCAPPED)
        assert fam.size == 72  # 9 unlabeled copies x |Aut(C4)|
        assert fam.size == count_embeddings(cycle(4), complete_bipartite(3, 3))

    def test_per_edge_cap_respected_and_maximal(self):
        caps = FamilyConstraints(per_edge_cap=2)
        fam = build_balanced_family(complete_bipartite(3, 3), C4_ROOTED, caps)
        report = verify_family(fam, caps)
        assert report.violation_count == 0
        f = C4_ROOTED.distinguished_edge
        assert max(Counter(m.image_edge(f) for m in fam.members).values()) <= 2
        assert remaining_recruitable(fam, caps) == []

    def test_maximality_recomputes_degrees_from_members(self):
        caps = FamilyConstraints(per_edge_cap=2)
        fam = build_balanced_family(complete_bipartite(3, 3), C4_ROOTED, caps)
        # a family rebuilt from its members alone, as `edgeglue verify` does
        copy = BalancedFamily(
            host=fam.host,
            pattern=fam.pattern,
            members=list(fam.members),
        )
        assert remaining_recruitable(fam, caps) == []
        assert remaining_recruitable(copy, caps) == []
        assert copy.members == fam.members

    def test_target_size_stops_early(self):
        caps = FamilyConstraints(target_size=5)
        fam = build_balanced_family(complete_bipartite(3, 3), C4_ROOTED, caps)
        assert fam.size == 5

    def test_needs_distinguished_edge(self):
        p = RootedPattern(cycle(4), (0, 1), frozenset([(0, 1)]))
        with pytest.raises(InvalidRootedPattern):
            build_balanced_family(complete_bipartite(3, 3), p, UNCAPPED)

    def test_seeded_shuffle_is_deterministic(self):
        caps = FamilyConstraints(per_edge_cap=1)
        host = complete_bipartite(3, 3)
        a = build_balanced_family(host, C4_ROOTED, caps, SeededSampler(5))
        b = build_balanced_family(host, C4_ROOTED, caps, SeededSampler(5))
        assert [m.map for m in a.members] == [m.map for m in b.members]


class TestSignedBuilder:
    def test_empty_host(self):
        host = SignedBipartiteGraph(3, 3)
        fam = build_signed_balanced_family(host, signed_cycle(4), (0, 0), UNCAPPED)
        assert fam.size == 0

    def test_uncapped_signed_k33(self):
        host = signed_complete_bipartite(3, 3)
        fam = build_signed_balanced_family(host, signed_cycle(4), (0, 0), UNCAPPED)
        # sign-respecting embeddings only: 9 copies x 4 side-fixing automorphisms
        assert fam.size == 36
        assert fam.size == count_embeddings(signed_cycle(4), host)

    def test_per_edge_cap_one_pigeonhole(self):
        host = signed_complete_bipartite(3, 3)
        caps = FamilyConstraints(per_edge_cap=1)
        fam = build_signed_balanced_family(host, signed_cycle(4), (0, 0), caps)
        images = [m.image_edge(fam.pattern.distinguished_edge) for m in fam.members]
        assert len(set(images)) == len(images)
        assert fam.size <= host.edge_count
        assert remaining_recruitable(fam, caps) == []


class TestVerify:
    def test_hand_built_violation_is_listed(self):
        host = complete_bipartite(3, 3)
        fam = build_balanced_family(host, C4_ROOTED, FamilyConstraints(target_size=4))
        tight = FamilyConstraints(per_edge_cap=3)
        report = verify_family(fam, tight)
        # the first four embeddings all route the marked edge through (0, 3)
        assert len(report.edge_violations) == 1
        assert report.edge_violations[0][1] == 4

    def test_empty_family_with_target(self):
        fam = build_balanced_family(LabeledGraph(4), C4_ROOTED, UNCAPPED)
        report = verify_family(fam, UNCAPPED)
        assert report.violation_count == 0
        assert report.size == 0

    def test_builder_output_verifies_clean(self):
        caps = FamilyConstraints(per_edge_cap=2, per_pair_cap=1)
        fam = build_balanced_family(complete_bipartite(3, 3), C4_ROOTED, caps)
        assert verify_family(fam, caps).violation_count == 0

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ((0, 3), "wrong length"),
            ((0, 3, 1, 99), "vertex out of range"),
            ((0, 3, 1, -1), "vertex out of range"),
            ((0, 3, 0, 4), "not injective"),
            ((0, 1, 2, 3), "not edge-preserving"),
        ],
    )
    def test_member_that_is_not_an_embedding_is_listed(self, bad, reason):
        host = complete_bipartite(3, 3)
        fam = build_balanced_family(host, C4_ROOTED, UNCAPPED)
        fam.members[5] = Embedding(cycle(4), host, bad)
        report = verify_family(fam, FamilyConstraints(per_edge_cap=8))
        assert report.invalid_members == ((5, reason),)
        assert report.violation_count == 1
        # the invalid member adds no degree: (0, 3) carries 8 valid members
        assert report.edge_violations == ()

    def test_repeated_member_is_listed_and_counted(self):
        host = complete_bipartite(3, 3)
        fam = build_balanced_family(host, C4_ROOTED, UNCAPPED)
        fam.members.append(fam.members[2])
        report = verify_family(fam, FamilyConstraints(per_edge_cap=8))
        assert report.repeated_members == (72,)
        assert report.invalid_members == ()
        assert report.edge_violations == (((0, 3), 9),)
        assert report.violation_count == 2

    def test_signed_member_crossing_sides_is_listed(self):
        host = signed_complete_bipartite(3, 3)
        caps = FamilyConstraints(per_edge_cap=2, per_pair_cap=1)
        fam = build_signed_balanced_family(host, signed_cycle(4), (0, 0), caps)
        assert verify_family(fam, caps).violation_count == 0
        # + vertices 0, 1 of C4 sent to - vertices of the host: an unsigned
        # embedding of the flat C4, but not a signed one
        emb = fam.members[0]
        fam.members[0] = Embedding(emb.pattern, emb.host, (3, 4, 0, 1))
        assert verify_family(fam, UNCAPPED).invalid_members == ((0, "crosses sides"),)

    def test_family_json_round_trips_members(self):
        import json

        fam = build_balanced_family(
            complete_bipartite(3, 3), C4_ROOTED, FamilyConstraints(target_size=3)
        )
        payload = json.loads(fam.to_json())
        assert payload["members"] == [list(m.map) for m in fam.members]

    @pytest.mark.parametrize("signed", [False, True])
    def test_from_json_inverts_to_json(self, signed):
        caps = FamilyConstraints(per_edge_cap=2, per_pair_cap=1)
        if signed:
            host = signed_complete_bipartite(3, 3)
            fam = build_signed_balanced_family(host, signed_cycle(4), (0, 0), caps)
        else:
            fam = build_balanced_family(complete_bipartite(3, 3), C4_ROOTED, caps)
        # a repeat and a non-embedding make the trip too, for verify_family to list
        fam.members.append(fam.members[0])
        fam.members.append(Embedding(fam.pattern.pattern, fam.host, (0, 1, 2, 3)))
        back = BalancedFamily.from_json(fam.to_json())
        assert back.members == fam.members
        assert (back.host, back.pattern) == (fam.host, fam.pattern)
        assert (back.signed_host, back.signed_pattern) == (fam.signed_host, fam.signed_pattern)
        for c in (caps, UNCAPPED, FamilyConstraints(per_edge_cap=1, per_pair_cap=0)):
            assert verify_family(back, c) == verify_family(fam, c)
        report = verify_family(back, caps)
        assert report.repeated_members == (back.size - 2,)
        assert report.invalid_members == ((back.size - 1, "not edge-preserving"),)

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            b"\xff\xfe",
            "[1, 2]",
            '{"pattern": "Cr"}',
            '{"host": 5, "pattern": "Cr", "roots": [0, 1], "root_edges": [[0, 1]],'
            ' "distinguished_edge": [0, 1], "members": []}',
            '{"host": "EFz_", "pattern": "Cr", "roots": [0, 1], "root_edges": [[0, 1]],'
            ' "distinguished_edge": null, "members": []}',
            '{"host": "EFz_", "pattern": "Cr", "roots": [0, 1], "root_edges": [[0, 1]],'
            ' "distinguished_edge": [0, 1], "members": [[0, 3, 1, true]]}',
            '{"host": "EFz_", "pattern": "Cr", "roots": [0, 1], "root_edges": [[0, 1]],'
            ' "distinguished_edge": [0, 1], "members": [],'
            ' "signed_host": {"plus": 3, "minus": 3, "edges": [[0, 0]]}}',
        ],
    )
    def test_from_json_rejects_a_malformed_family(self, text):
        with pytest.raises(ParseError):
            BalancedFamily.from_json(text)


class TestHeavyLight:
    def test_example_split(self):
        degs = {"a": 5, "b": 1, "c": 3, "d": 3}
        heavy, light, mass = heavy_light_split(degs, 3)
        assert len(heavy) == 3 and mass == 1

    def test_threshold_zero_all_heavy(self):
        degs = {"a": 2, "b": 0}
        heavy, light, mass = heavy_light_split(degs, 0)
        assert len(heavy) == 2 and light == {} and mass == 0

    def test_above_max_all_light(self):
        degs = {"a": 2, "b": 3}
        heavy, light, mass = heavy_light_split(degs, 10)
        assert heavy == {} and mass == 5

    def test_conservation(self):
        fam = build_balanced_family(complete_bipartite(3, 3), C4_ROOTED, UNCAPPED)
        degs = extension_degrees(fam)
        heavy, light, mass = heavy_light_split(degs, 2)
        assert len(heavy) + len(light) == len(degs)
        assert sum(heavy.values()) + mass == sum(degs.values()) == fam.size


class TestAssembly:
    def test_two_c4_families_glue_in_k33(self):
        host = complete_bipartite(3, 3)
        fam = build_balanced_family(host, C4_ROOTED, UNCAPPED)
        shared = (0, 3)
        glued = assemble_glued_copies(host, [fam, fam], shared)
        assert glued is not None
        assert glued.glued_pattern.vertex_count == 6
        assert glued.glued_pattern.edge_count == 7
        # the two picks overlap in exactly the shared edge's endpoints
        a, b = glued.members
        assert set(a.map) & set(b.map) == set(shared)
        # the combined map is a genuine embedding of the glued pattern
        for e in glued.glued_pattern.edges:
            x, y = glued.map[e[0]], glued.map[e[1]]
            assert host.has_edge(x, y)

    def test_too_small_host_blocks(self):
        host = cycle(4)
        fam = build_balanced_family(host, C4_ROOTED, UNCAPPED)
        assert assemble_glued_copies(host, [fam, fam], (0, 1)) is None

    def test_single_family_returns_a_member(self):
        host = complete_bipartite(3, 3)
        fam = build_balanced_family(host, C4_ROOTED, UNCAPPED)
        glued = assemble_glued_copies(host, [fam], (0, 3))
        assert glued is not None and len(glued.members) == 1

    def test_missing_shared_edge_member_raises(self):
        host = complete_bipartite(3, 3)
        fam = build_balanced_family(
            host, C4_ROOTED, FamilyConstraints(target_size=1)
        )
        with pytest.raises(EmptyCandidateSet):
            assemble_glued_copies(host, [fam], (2, 5))

    def test_signed_assembly(self):
        host = signed_complete_bipartite(4, 4)
        flat_host = host.as_unsigned()
        fam = build_signed_balanced_family(host, signed_cycle(4), (0, 0), UNCAPPED)
        for copies, sides, edges in [(2, (3, 3), 7), (3, (4, 4), 10)]:
            glued = assemble_glued_copies(host, [fam] * copies, (0, 4))
            assert glued is not None
            assert (glued.glued_pattern.plus_count, glued.glued_pattern.minus_count) == sides
            assert glued.glued_pattern.edge_count == edges
            # the map is an injective, side-preserving embedding of the glued pattern
            assert len(set(glued.map)) == len(glued.map)
            assert [host.colors[u] for u in glued.map] == list(glued.glued_pattern.colors)
            for e in glued.glued_pattern.as_unsigned().edges:
                assert flat_host.has_edge(glued.map[e[0]], glued.map[e[1]])


class TestRoughCount:
    def _host(self):
        return SignedBipartiteGraph(
            10, 10, [(p, q) for p in range(4) for q in range(10)]
        )

    def test_star_instance_passes(self):
        report = rough_count_check(self._host(), signed_star(2), 10, 4)
        assert report.copies == 180
        assert report.required == 40
        assert report.passed

    def test_k_below_four_rejected(self):
        with pytest.raises(PreconditionViolated):
            rough_count_check(self._host(), signed_star(2), 10, 3)

    def test_sparse_host_rejected(self):
        host = SignedBipartiteGraph(10, 10, [(0, q) for q in range(10)])
        with pytest.raises(PreconditionViolated):
            rough_count_check(host, signed_star(2), 10, 4)
