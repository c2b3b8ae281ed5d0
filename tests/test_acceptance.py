"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line so the run log
shows a pass/fail verdict per criterion alongside pytest's own.
"""

import json
import time
from fractions import Fraction

import numpy as np

from edgeglue.bounds import (
    PatternStats,
    binom_ratio_bounds,
    es_exponent_forest,
    tree_gluing_exponent,
)
from edgeglue.cli import main as cli_main
from edgeglue.constructions import (
    SeededSampler,
    delete_per_copy,
    deletion_probability,
    random_sign_split,
    sample_gnp,
)
from edgeglue.embed import (
    count_embeddings,
    count_embeddings_naive,
    is_free,
)
from edgeglue.extremal import exact_turan, exact_zarankiewicz
from edgeglue.gluing import edge_rooted, glue_along_edge, signed_glue, GluingSpec
from edgeglue.graphs import (
    LabeledGraph,
    SignedBipartiteGraph,
    complete_bipartite,
    cycle,
    encode_graph6,
    path,
    signed_cycle,
    signed_star,
    star,
)
from edgeglue.supersat import (
    FamilyConstraints,
    build_balanced_family,
    remaining_recruitable,
    rough_count_check,
    verify_family,
)

PATTERNS = {
    "c4": cycle(4),
    "c6": cycle(6),
    "p3": path(3),
    "p4": path(4),
    "k13": star(3),
    "k22": complete_bipartite(2, 2),
}


def random_graph(rng, n, p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return LabeledGraph(n, [e for e in pairs if rng.random() < p])


def test_criterion_01_turan_engine_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for name, h in PATTERNS.items():
        for n in range(4, 8):
            a = exact_turan(n, [h], method="oracle").value
            b = exact_turan(n, [h], method="branch-and-bound").value
            assert a == b, f"engines disagree on ex({n}, {name}): {a} vs {b}"
            checked += 1
    assert exact_turan(4, [cycle(4)]).value == 4
    assert exact_turan(5, [cycle(4)]).value == 6
    assert exact_turan(6, [cycle(4)]).value == 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"criterion 1 PASS: {checked} grid points, spot values 4/6/7, {elapsed:.1f}s")


def test_criterion_02_zarankiewicz_engine_equivalence():
    t0 = time.perf_counter()
    h = signed_cycle(4)
    checked = 0
    for m in range(1, 6):
        for n in range(1, 6):
            a = exact_zarankiewicz(m, n, h, method="oracle").value
            b = exact_zarankiewicz(m, n, h, method="branch-and-bound").value
            assert a == b, f"engines disagree on z({m},{n}): {a} vs {b}"
            checked += 1
    assert exact_zarankiewicz(2, 2, h).value == 3
    assert exact_zarankiewicz(3, 3, h).value == 6
    assert exact_zarankiewicz(4, 4, h).value == 9
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"criterion 2 PASS: {checked} grid points, spot values 3/6/9, {elapsed:.1f}s")


def test_criterion_03_gluing_sandwich():
    hstar = glue_along_edge(cycle(4), (0, 1), cycle(4), (0, 1))[0]
    assert (hstar.vertex_count, hstar.edge_count) == (6, 7)
    for n in range(4, 9):
        lo = exact_turan(n, [cycle(4)]).value
        hi = exact_turan(n, [hstar]).value
        assert lo <= hi, f"ex({n},C4)={lo} > ex({n},H*)={hi}"
    c4 = signed_cycle(4)
    e = (0, 0)
    sstar = signed_glue(GluingSpec(((c4, e), (c4, e))))
    ratios = []
    for n in range(2, 6):
        base = exact_zarankiewicz(n, n, c4).value
        glued = exact_zarankiewicz(n, n, sstar).value
        assert base <= glued, f"z({n},{n},C4)={base} > z of glued={glued}"
        ratios.append(Fraction(glued, base))
    r = max(ratios)
    print(f"criterion 3 PASS: unsigned sandwich n<=8, signed sandwich n<=5, R={r}")


def test_criterion_04_binomial_sandwich_grid():
    checked = 0
    for n in range(1, 31):
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)):
            qn = q * n
            if qn.denominator != 1:
                continue
            for s in range(1, int(qn / 2 + 1) + 1):
                if s > qn or s > n:
                    continue
                lower, exact, upper = binom_ratio_bounds(n, q, s)
                assert lower <= exact <= upper, f"sandwich fails at {(n, q, s)}"
                checked += 1
    assert checked > 100
    print(f"criterion 4 PASS: {checked} exact rational grid points")


def test_criterion_05_deletion_construction_trials():
    t0 = time.perf_counter()
    n, f = 32, cycle(4)
    p = deletion_probability(n, f)
    master = SeededSampler(52_2026)
    counts = []
    for i in range(1000):
        g = delete_per_copy(sample_gnp(n, p, master.child(i)), f)
        assert is_free(g, f), f"trial {i} output contains a C4"
        counts.append(g.edge_count)
    arr = np.array(counts, dtype=float)
    floor = 0.5 * p * (n * (n - 1) / 2)
    assert arr.mean() >= floor - 3 * arr.std(ddof=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(
        f"criterion 5 PASS: 1000 C4-free outputs, mean edges {arr.mean():.2f} >= "
        f"{floor:.2f} - 3 sd, {elapsed:.1f}s"
    )


def test_criterion_06_balanced_family_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    pool = [cycle(4), path(3), path(4), star(3), cycle(6)]
    for trial in range(50):
        h = pool[int(rng.integers(len(pool)))]
        rooted = edge_rooted(h, h.sorted_edges[int(rng.integers(h.edge_count))])
        host = random_graph(rng, int(rng.integers(6, 10)), 0.3 + 0.3 * rng.random())
        caps = FamilyConstraints(
            per_edge_cap=[None, 1, 2, 3][int(rng.integers(4))],
            per_pair_cap=[None, 1, 2][int(rng.integers(3))],
        )
        fam = build_balanced_family(host, rooted, caps)
        assert verify_family(fam, caps).violation_count == 0, f"trial {trial}"
        assert remaining_recruitable(fam, caps) == [], f"trial {trial} not maximal"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    print(f"criterion 6 PASS: 50 fuzzed builds, zero violations, maximal, {elapsed:.1f}s")


def test_criterion_07_rough_count():
    h = signed_star(2)
    host = SignedBipartiteGraph(10, 10, [(p, q) for p in range(4) for q in range(10)])
    report = rough_count_check(host, h, 10, 4)
    assert report.copies == 180 and report.required == 40 and report.passed
    rng = np.random.default_rng(707)
    cells = [(p, q) for p in range(10) for q in range(10)]
    for _ in range(20):
        k = int(rng.integers(40, 61))
        picked = rng.choice(len(cells), size=k, replace=False)
        g = SignedBipartiteGraph(10, 10, [cells[i] for i in picked])
        assert rough_count_check(g, h, 10, 4).passed
    print("criterion 7 PASS: star instance 180 >= 40 plus 20 random hosts")


def test_criterion_08_exponent_calculators():
    c4 = PatternStats.from_rooted(edge_rooted(cycle(4), (0, 1)))
    c6 = PatternStats.from_rooted(edge_rooted(cycle(6), (0, 1)))
    assert es_exponent_forest(Fraction(1, 2), c4) == Fraction(1, 2)
    assert es_exponent_forest(Fraction(1, 3), c6) == Fraction(1, 3)
    assert tree_gluing_exponent(star(3)) == Fraction(2, 3)
    print("criterion 8 PASS: exponents 1/2, 1/3 and tree value 2/3 exact")


def test_criterion_09_embedding_oracle():
    rng = np.random.default_rng(909)
    for trial in range(200):
        h = random_graph(rng, int(rng.integers(2, 6)))
        g = random_graph(rng, int(rng.integers(2, 9)))
        assert count_embeddings(h, g) == count_embeddings_naive(h, g), f"trial {trial}"
    print("criterion 9 PASS: 200 random pairs match the naive oracle")


def test_criterion_10_determinism(capsys):
    # library pipelines
    runs = []
    for _ in range(2):
        parts = []
        g = sample_gnp(24, 0.3, SeededSampler(10_10))
        parts.append(encode_graph6(delete_per_copy(g, cycle(4))))
        parts.append(random_sign_split(g, SeededSampler(10_11)).to_json())
        fam = build_balanced_family(
            complete_bipartite(3, 3),
            edge_rooted(cycle(4), (0, 1)),
            FamilyConstraints(per_edge_cap=2),
            SeededSampler(10_12),
        )
        parts.append(fam.to_json())
        runs.append("\n".join(parts).encode())
    assert runs[0] == runs[1]
    # CLI pipelines
    cli_runs = []
    for _ in range(2):
        code = cli_main(
            ["construct", "--kind", "deletion", "--n", "16", "--forbid", "c4", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["seed"] == 5
        cli_runs.append(out.encode())
    assert cli_runs[0] == cli_runs[1]
    print("criterion 10 PASS: seeded pipelines byte-identical across runs")
