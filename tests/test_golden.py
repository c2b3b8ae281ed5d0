"""Golden outputs: canonical forms, automorphism counts and stabiliser-chain
conditions pinned byte for byte, and `sample_gnp` against a scalar-draw
reference.

The fixture `tests/data/golden.json` holds each input graph (graph6 or
``sb:`` string), its certificate and its |Aut|, plus the chain conditions of
a few symmetric patterns.  Regenerate it only when a change of those outputs
is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edgeglue import embed
from edgeglue.canon import automorphism_count, canonical_form
from edgeglue.constructions import SeededSampler, sample_gnp
from edgeglue.gluing import GluingSpec, glue_family
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete,
    complete_bipartite,
    cycle,
    decode_graph6,
    decode_sb,
    encode_graph6,
    encode_sb,
    signed_cycle,
    star,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "golden.json"


def _shuffled(g: LabeledGraph, rng: random.Random) -> LabeledGraph:
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return g.relabel(perm)


def _gnp(rng: random.Random, n: int, p: float) -> LabeledGraph:
    return LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def _circulant(n: int, steps) -> LabeledGraph:
    return LabeledGraph(n, {(i, (i + s) % n) for i in range(n) for s in steps if s % n})


def _complement(g: LabeledGraph) -> LabeledGraph:
    n = g.vertex_count
    return LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)])


def _copies(g: LabeledGraph, k: int) -> LabeledGraph:
    n = g.vertex_count
    return LabeledGraph(n * k, [(a + c * n, b + c * n) for c in range(k) for a, b in g.edges])


def _hypercube(d: int) -> LabeledGraph:
    return LabeledGraph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1])


def _rook(k: int) -> LabeledGraph:
    n = k * k
    return LabeledGraph(
        n, [(a, b) for a in range(n) for b in range(a + 1, n) if a // k == b // k or a % k == b % k]
    )


def _glue(parts) -> list[LabeledGraph]:
    return glue_family(GluingSpec(tuple((g, mark) for g, mark in parts)))


def unsigned_cases() -> dict[str, LabeledGraph]:
    """Named unsigned inputs.  Vertex-transitive graphs, stars and disjoint
    copies start the search by individualising a vertex of cell 0."""
    cases = {}
    for n in range(2, 33):
        for k, p in enumerate((0.1, 0.3, 0.5, 0.9)):
            cases[f"gnp n={n} p={p}"] = _gnp(random.Random(1000 * n + k), n, p)
    for n in range(5, 33, 3):
        rng = random.Random(n)
        steps = rng.sample(range(1, n // 2 + 1), min(3, n // 2))
        c = _circulant(n, steps)
        cases[f"circulant n={n} steps={steps}"] = _shuffled(c, rng)
        cases[f"co-circulant n={n} steps={steps}"] = _shuffled(_complement(c), rng)
    for k, (n, copies) in enumerate(((4, 2), (5, 3), (6, 4), (8, 4), (7, 2), (10, 3), (16, 2))):
        rng = random.Random(500 + k)
        cases[f"{copies} copies of gnp n={n}"] = _shuffled(_copies(_gnp(rng, n, 0.5), copies), rng)
    rng = random.Random(7)
    for n in (3, 8, 17, 32):
        cases[f"C{n}"] = _shuffled(cycle(n), rng)
        cases[f"K{n}"] = complete(n)
    cases["star 12"] = star(12)
    cases["K7,9"] = _shuffled(complete_bipartite(7, 9), rng)
    cases["petersen"] = _shuffled(
        LabeledGraph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]),
        rng,
    )
    cases["Q5"] = _shuffled(_hypercube(5), rng)
    cases["rook5x5"] = _shuffled(_rook(5), rng)
    c4, c6, c8 = cycle(4), cycle(6), cycle(8)
    for i, g in enumerate(_glue([(c6, (0, 1))] * 5)):
        cases[f"glue 5xC6 #{i}"] = g
    k23 = complete_bipartite(2, 3)
    for i, g in enumerate(_glue([(c4, (0, 1)), (c6, (0, 1)), (c8, (0, 1)), (k23, (0, 2))])):
        cases[f"glue C4+C6+C8+K2,3 #{i}"] = g
    return cases


def signed_cases() -> dict[str, SignedBipartiteGraph]:
    cases = {}
    for m in range(7):
        for n in range(7):
            for k, p in enumerate((0.3, 0.6)):
                rng = random.Random(100 * m + 10 * n + k)
                edges = [(a, b) for a in range(m) for b in range(n) if rng.random() < p]
                cases[f"signed {m}x{n} p={p}"] = SignedBipartiteGraph(m, n, edges)
    cases["signed C4"] = signed_cycle(4)
    cases["signed C12"] = signed_cycle(12)
    cases["signed 6x6 minus matching"] = SignedBipartiteGraph(
        6, 6, [(a, b) for a in range(6) for b in range(6) if a != b]
    )
    return cases


def chain_patterns() -> dict:
    """Patterns whose stabiliser-chain conditions are pinned: (graph, colours)."""
    c4 = signed_cycle(4)
    return {
        "C12": (cycle(12), None),
        "K12": (complete(12), None),
        "K6,6": (complete_bipartite(6, 6), None),
        "C6": (cycle(6), None),
        "signed C4": (c4.as_unsigned(), c4.colors),
    }


def record() -> dict:
    out = {"unsigned": [], "signed": [], "chains": []}
    for name, g in unsigned_cases().items():
        out["unsigned"].append(
            [name, encode_graph6(g), canonical_form(g).bytes.decode(), automorphism_count(g)]
        )
    for name, g in signed_cases().items():
        out["signed"].append(
            [name, encode_sb(g), canonical_form(g).bytes.decode(), automorphism_count(g)]
        )
    for name, (h, colors) in chain_patterns().items():
        conditions, order = embed._symmetry_conditions(h, colors)
        out["chains"].append([name, [list(c) for c in conditions], order])
    return out


def dump(golden: dict) -> str:
    """One row per line, so a changed output shows as one changed line."""
    sections = [
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for key, rows in golden.items()
    ]
    return "{\n" + ",\n".join(sections) + "\n}\n"


# a missing fixture fails test_fixture_inputs_are_the_generated_ones
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"unsigned": [], "signed": [], "chains": []}


def rows(section: str):
    return [pytest.param(*row, id=row[0]) for row in GOLDEN[section]]


@pytest.mark.parametrize("name, g6, form, aut", rows("unsigned"))
def test_unsigned_canonical_form_and_aut(name, g6, form, aut):
    g = decode_graph6(g6)
    assert canonical_form(g).bytes.decode() == form
    assert automorphism_count(g) == aut


@pytest.mark.parametrize("name, sb, form, aut", rows("signed"))
def test_signed_canonical_form_and_aut(name, sb, form, aut):
    g = decode_sb(sb)
    assert canonical_form(g).bytes.decode() == form
    assert automorphism_count(g) == aut


def test_fixture_inputs_are_the_generated_ones():
    assert [row[:2] for row in GOLDEN["unsigned"]] == [
        [name, encode_graph6(g)] for name, g in unsigned_cases().items()
    ]
    assert [row[:2] for row in GOLDEN["signed"]] == [
        [name, encode_sb(g)] for name, g in signed_cases().items()
    ]


@pytest.mark.parametrize("name, conditions, order", rows("chains"))
def test_stabiliser_chain_conditions(name, conditions, order):
    h, colors = chain_patterns()[name]
    assert embed._symmetry_conditions(h, colors) == ([tuple(c) for c in conditions], order)


def sample_gnp_scalar(n: int, p, sampler: SeededSampler) -> LabeledGraph:
    """Reference: one scalar draw per pair, pairs in row order."""
    rng = sampler.rng()
    p = float(p)
    return LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


@pytest.mark.parametrize("p", [0, 0.05, 0.3, 1, Fraction(1, 3)], ids=str)
def test_sample_gnp_matches_scalar_draws(p):
    seeds = np.random.default_rng(20260).integers(0, 2**63, size=50).tolist()
    for n in range(31):
        for seed in seeds:
            sampler = SeededSampler(seed)
            assert sample_gnp(n, p, sampler) == sample_gnp_scalar(n, p, sampler), (n, seed)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(dump(record()))
    print(f"wrote {FIXTURE}", file=sys.stderr)
