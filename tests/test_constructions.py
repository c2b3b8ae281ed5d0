"""Seeded random hosts, the deletion construction, and sign splits."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from edgeglue.constructions import (
    SeededSampler,
    delete_per_copy,
    deletion_construction,
    deletion_probability,
    mean_edge_floor,
    random_sign_split,
    sample_gnp,
)
from edgeglue.embed import count_copies, is_free
from edgeglue.errors import TooFewEdges
from edgeglue.graphs import (
    LabeledGraph,
    complete,
    complete_bipartite,
    cycle,
    encode_graph6,
)


class TestSampler:
    def test_same_seed_same_graph(self):
        a = sample_gnp(20, 0.4, SeededSampler(99))
        b = sample_gnp(20, 0.4, SeededSampler(99))
        assert encode_graph6(a) == encode_graph6(b)

    def test_different_seeds_differ(self):
        a = sample_gnp(20, 0.4, SeededSampler(99))
        b = sample_gnp(20, 0.4, SeededSampler(100))
        assert a != b

    def test_children_are_deterministic_and_distinct(self):
        s = SeededSampler(5)
        assert s.child(3).seed == SeededSampler(5).child(3).seed
        assert s.child(0).seed != s.child(1).seed


def test_import_leaves_numpy_unloaded():
    """numpy is imported where randomness or the oracle sieve first needs it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import edgeglue; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestGnp:
    def test_extreme_probabilities(self):
        assert sample_gnp(6, 0, SeededSampler(1)) == LabeledGraph(6)
        assert sample_gnp(6, 1, SeededSampler(1)) == complete(6)

    def test_edge_count_calibration(self):
        g = sample_gnp(100, 0.5, SeededSampler(42))
        mean = math.comb(100, 2) / 2
        sigma = math.sqrt(math.comb(100, 2) * 0.25)
        assert abs(g.edge_count - mean) <= 5 * sigma

    def test_mean_over_200_draws(self):
        master = SeededSampler(2024)
        total = sum(
            sample_gnp(100, 0.5, master.child(i)).edge_count for i in range(200)
        )
        mean = total / 200
        expected = math.comb(100, 2) / 2
        assert abs(mean - expected) <= 0.01 * expected

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            sample_gnp(5, 1.5, SeededSampler(1))


class TestDeletion:
    def test_probability_values(self):
        # exact: the CLI prints p, so it stays the float power below the float range
        assert deletion_probability(16, cycle(4)) == 0.25 * 16 ** (-2 / 3)
        assert deletion_probability(64, cycle(4)) == pytest.approx(1 / 64)
        # past it, n is never converted to a float
        assert deletion_probability(10**400, cycle(4)) == pytest.approx(0.25 * 10 ** (-800 / 3))
        with pytest.raises(TooFewEdges):
            deletion_probability(10, LabeledGraph(2, [(0, 1)]))

    def test_free_input_unchanged(self):
        g = cycle(5)
        assert delete_per_copy(g, cycle(4)) == g

    def test_k22_loses_one_edge(self):
        out = delete_per_copy(complete_bipartite(2, 2), cycle(4))
        assert out.edge_count == 3
        assert is_free(out, cycle(4))

    def test_k23_keeps_at_least_three_edges(self):
        g = complete_bipartite(2, 3)
        assert count_copies(cycle(4), g) == 3
        out = delete_per_copy(g, cycle(4))
        assert is_free(out, cycle(4))
        assert out.edge_count >= g.edge_count - 3

    def test_construction_output_is_always_free(self):
        for i in range(20):
            out = deletion_construction(16, cycle(4), SeededSampler(1000 + i))
            assert is_free(out, cycle(4))

    def test_mean_edge_floor(self):
        assert mean_edge_floor(32, 0.1) == pytest.approx(0.05 * math.comb(32, 2))


class TestSignSplit:
    def test_edgeless(self):
        sg = random_sign_split(LabeledGraph(5), SeededSampler(3))
        assert sg.edge_count == 0
        assert (sg.plus_count, sg.minus_count) == (3, 2)

    def test_single_edge_always_crosses(self):
        for i in range(10):
            sg = random_sign_split(LabeledGraph(2, [(0, 1)]), SeededSampler(i))
            assert sg.edge_count == 1

    def test_k4_equipartition_crosses_exactly_four(self):
        for i in range(50):
            sg = random_sign_split(complete(4), SeededSampler(i))
            assert sg.edge_count == 4

    def test_seeded_determinism(self):
        a = random_sign_split(cycle(8), SeededSampler(77))
        b = random_sign_split(cycle(8), SeededSampler(77))
        assert a == b

