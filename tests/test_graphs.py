"""Graph types, named builders, graph6, and text parsing."""

import random

import numpy as np
import pytest

from edgeglue.errors import EdgeNotInGraph, ParseError, VertexNotInGraph
from edgeglue.graphs import (
    GRAPH6_MAX_SHORT,
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    complete_bipartite,
    cycle,
    decode_graph6,
    decode_sb,
    encode_graph6,
    encode_sb,
    graph6_from_bits,
    parse_graph,
    parse_signed_graph,
    path,
    signed_complete_bipartite,
    signed_cycle,
    signed_star,
    star,
)


def random_graph(rng, max_n=10):
    n = int(rng.integers(1, max_n + 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if rng.random() < 0.5]
    return LabeledGraph(n, edges)


class TestLabeledGraph:
    def test_edges_normalized(self):
        g = LabeledGraph(3, [(2, 0), (0, 1)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        assert g.sorted_edges == ((0, 1), (0, 2))

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledGraph(3, [(1, 1)])
        with pytest.raises(ValueError):
            LabeledGraph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(1, 1)], "loop at vertex 1"),
            (3, [(0, 1), (3, 0)], "edge (0, 3) out of range for n=3"),
            (3, [(2, -1)], "edge (-1, 2) out of range for n=3"),
            # a loop outside the range is reported as a loop
            (3, [(5, 5)], "loop at vertex 5"),
            # two bad edges: the first in input order is named
            (3, [(0, 1), (2, 2), (0, 4)], "loop at vertex 2"),
            (3, [(0, 1), (4, 0), (2, 2)], "edge (0, 4) out of range for n=3"),
            (4, iter([(3, 0), (6, 1), (1, 1)]), "edge (1, 6) out of range for n=4"),
            # a loop before a malformed edge is still what is reported
            (3, [(1, 1), (0, 1, 2)], "loop at vertex 1"),
        ],
    )
    def test_first_bad_edge_in_input_order_is_reported(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            LabeledGraph(n, edges)
        assert str(info.value) == message

    def test_malformed_edges_raise_as_when_unpacked(self):
        with pytest.raises(ValueError, match="too many values to unpack"):
            LabeledGraph(3, [(0, 1), (0, 1, 2)])
        with pytest.raises(TypeError, match="'<' not supported"):
            LabeledGraph(3, [(0, "a")])

    def test_edges_from_a_generator(self):
        assert LabeledGraph(3, ((b, a) for a, b in [(0, 1), (1, 2)])).sorted_edges == ((0, 1), (1, 2))

    def test_degrees_and_adjacency(self):
        g = star(3)
        assert g.degrees == (3, 1, 1, 1)
        assert g.adjacency == (0b1110, 0b1, 0b1, 0b1)

    def test_check_edge_and_vertex(self):
        g = path(3)
        assert g.check_edge((1, 0)) == (0, 1)
        with pytest.raises(EdgeNotInGraph):
            g.check_edge((0, 2))
        with pytest.raises(VertexNotInGraph):
            g.check_vertex(3)

    def test_structure_predicates(self):
        assert path(4).is_tree()
        assert not cycle(4).is_forest()
        assert LabeledGraph(4, [(0, 1), (2, 3)]).is_forest()
        assert not LabeledGraph(4, [(0, 1), (2, 3)]).is_tree()  # a forest, not connected
        assert not LabeledGraph(4, [(0, 1), (1, 2), (0, 2)]).is_tree()  # v - 1 edges, a cycle
        assert not LabeledGraph(0).is_tree()
        assert LabeledGraph(1).is_tree()

    def test_json_round_trip(self):
        g = cycle(5)
        assert LabeledGraph.from_json(g.to_json()) == g
        with pytest.raises(ParseError):
            LabeledGraph.from_json('{"v": 2}')


class TestSignedBipartiteGraph:
    def test_parts_and_flattening(self):
        g = signed_cycle(4)
        assert (g.plus_count, g.minus_count, g.edge_count) == (2, 2, 4)
        flat = g.as_unsigned()
        assert flat.vertex_count == 4 and flat.edge_count == 4
        # an edge inside one side is not representable at all
        with pytest.raises(ValueError):
            SignedBipartiteGraph(2, 2, [(0, 2)])

    def test_signed_builders(self):
        assert signed_complete_bipartite(3, 3).edge_count == 9
        assert signed_star(2).plus_count == 1
        assert signed_star(2, center_plus=False).minus_count == 1
        with pytest.raises(ValueError):
            signed_cycle(5)

    def test_json_round_trip(self):
        g = signed_complete_bipartite(2, 3)
        assert SignedBipartiteGraph.from_json(g.to_json()) == g

    def test_flat_layout_round_trip(self):
        g = SignedBipartiteGraph(2, 3, [(0, 0), (1, 2)])
        assert g.colors == (0, 0, 1, 1, 1)
        assert g.as_unsigned().edges == {(0, 2), (1, 4)}
        assert SignedBipartiteGraph.from_flat(2, g.as_unsigned()) == g
        assert g.side_edge(g.flat_edge((1, 2))) == (1, 2)

    def test_from_flat_rejects_non_crossing_edge(self):
        with pytest.raises(ValueError):
            SignedBipartiteGraph.from_flat(2, LabeledGraph(4, [(0, 1)]))
        with pytest.raises(ValueError):
            SignedBipartiteGraph.from_flat(2, LabeledGraph(4, [(2, 3)]))

    def test_sb_round_trip_and_malformed_input(self):
        g = SignedBipartiteGraph(2, 3, [(0, 0), (1, 2)])
        assert encode_sb(g) == "sb:2:3:100001"
        assert decode_sb(encode_sb(g)) == g
        assert decode_sb("sb:0:4:") == SignedBipartiteGraph(0, 4)
        for bad in ("sb:2:3:10000", "sb:2:3:10000x", "sb:2:three:100001", "g6:2:3:100001", "sb:2"):
            with pytest.raises(ParseError):
                decode_sb(bad)


class TestGraph6:
    def test_c4_round_trip(self):
        assert decode_graph6(encode_graph6(cycle(4))) == cycle(4)

    def test_empty_graph_encodes_to_question_mark(self):
        assert encode_graph6(LabeledGraph(0)) == "?"
        assert decode_graph6("?") == LabeledGraph(0)

    def test_malformed_input(self):
        with pytest.raises(ParseError):
            decode_graph6("not-graph6!!")
        with pytest.raises(ParseError):
            decode_graph6("")
        with pytest.raises(ParseError):
            decode_graph6("D")  # truncated body

    def test_known_encodings(self):
        # reference strings from the standard format description
        assert encode_graph6(complete(4)) == "C~"
        assert encode_graph6(LabeledGraph(5)) == "D??"

    def test_round_trip_1000_random_graphs(self):
        rng = np.random.default_rng(20260823)
        for _ in range(1000):
            g = random_graph(rng)
            assert decode_graph6(encode_graph6(g)) == g


def graph6_from_bits_by_characters(n: int, bits: int) -> str:
    """graph6_from_bits as one chr per 6-bit chunk."""
    if n > GRAPH6_MAX_SHORT:
        raise ParseError(f"short-form graph6 supports n <= {GRAPH6_MAX_SHORT}, got {n}")
    pad = -(n * (n - 1) // 2) % 6
    body = bits << pad
    chunks = (n * (n - 1) // 2 + pad) // 6
    return chr(63 + n) + "".join(chr(63 + (body >> 6 * k & 63)) for k in reversed(range(chunks)))


class TestGraph6FromBits:
    @pytest.mark.parametrize("n", range(GRAPH6_MAX_SHORT + 1))
    def test_matches_one_character_at_a_time(self, n):
        rng = random.Random(n)
        pairs = n * (n - 1) // 2
        for bits in [0, (1 << pairs) - 1] + [rng.getrandbits(pairs) if pairs else 0 for _ in range(20)]:
            assert graph6_from_bits(n, bits) == graph6_from_bits_by_characters(n, bits)

    def test_rejects_long_form(self):
        for f in (graph6_from_bits, graph6_from_bits_by_characters):
            with pytest.raises(ParseError, match="short-form graph6 supports n <= 62, got 63"):
                f(63, 0)


class TestParsing:
    def test_named_graphs(self):
        assert parse_graph("c4") == cycle(4)
        assert parse_graph("p3") == path(3)
        assert parse_graph("s3") == star(3)
        assert parse_graph("k2,3") == complete_bipartite(2, 3)

    def test_json_and_graph6_forms(self):
        assert parse_graph(cycle(4).to_json()) == cycle(4)
        assert parse_graph(encode_graph6(cycle(4))) == cycle(4)

    def test_signed_names(self):
        assert parse_signed_graph("c4") == signed_cycle(4)
        assert parse_signed_graph("k3,3") == signed_complete_bipartite(3, 3)
        assert parse_signed_graph("s2+") == signed_star(2)
        assert parse_signed_graph("s2-") == signed_star(2, center_plus=False)
        with pytest.raises(ParseError):
            parse_signed_graph("nope")
