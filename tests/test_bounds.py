"""Exact rational calculators: exponents, thresholds, and the binomial
ratio sandwich."""

from fractions import Fraction

import pytest

from edgeglue.bounds import (
    PatternStats,
    binom_ratio_bounds,
    cleaning_threshold,
    cycle_tree_exponent,
    deletion_exponent,
    es_exponent_branches,
    es_exponent_forest,
    feasibility_check,
    tree_gluing_exponent,
)
from edgeglue.errors import InfeasibleInput, PreconditionViolated, TooFewEdges
from edgeglue.gluing import edge_rooted
from edgeglue.graphs import complete_bipartite, cycle, path, star

C4_EDGE = PatternStats(h=4, eH=4, ell=2, eF=1)
C6_EDGE = PatternStats(h=6, eH=6, ell=2, eF=1)


class TestPatternStats:
    def test_from_rooted(self):
        assert PatternStats.from_rooted(edge_rooted(cycle(4), (0, 1))) == C4_EDGE

    def test_invariants(self):
        with pytest.raises(ValueError):
            PatternStats(h=4, eH=4, ell=4, eF=1)
        with pytest.raises(ValueError):
            PatternStats(h=4, eH=4, ell=2, eF=4)


class TestForestExponent:
    def test_c4_at_half(self):
        assert es_exponent_forest(Fraction(1, 2), C4_EDGE) == Fraction(1, 2)

    def test_c6_at_third(self):
        assert es_exponent_forest(Fraction(1, 3), C6_EDGE) == Fraction(1, 3)

    def test_second_branch_equals_alpha_for_edge_roots(self):
        # with a single-edge root set the second branch collapses to alpha
        for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
            for s in (C4_EDGE, C6_EDGE):
                _, second = es_exponent_branches(alpha, s)
                assert second == alpha

    def test_infeasible_combination_rejected(self):
        # F = C4 itself with alpha = 0 fails the feasibility inequality
        s = PatternStats(h=6, eH=7, ell=4, eF=4)
        with pytest.raises(InfeasibleInput):
            es_exponent_forest(Fraction(0), s)


class TestFeasibility:
    def test_edge_always_feasible(self):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            assert feasibility_check(C4_EDGE, alpha)

    def test_c4_threshold(self):
        # F = C4 (4 vertices, 4 edges) inside H on 6 vertices and 7 edges: alpha >= 1/3
        c4_root = PatternStats(h=6, eH=7, ell=4, eF=4)
        assert feasibility_check(c4_root, Fraction(1, 2))
        assert feasibility_check(c4_root, Fraction(1, 3))
        assert not feasibility_check(c4_root, Fraction(1, 3) - Fraction(1, 1000))
        assert not feasibility_check(c4_root, Fraction(0))


class TestCleaningThreshold:
    def test_c4_second_branch_dominates(self):
        th = cleaning_threshold(100, C4_EDGE, 1, Fraction(1, 2))
        assert th.branch1.n_exponent == Fraction(-2, 3)
        assert th.branch2.n_exponent == Fraction(-1, 2)
        assert th.dominating_branch == 2
        assert th.value == pytest.approx(100 ** -0.5)

    def test_c6_second_branch_dominates(self):
        th = cleaning_threshold(100, C6_EDGE, 1, Fraction(1, 3))
        assert th.branch1.n_exponent == Fraction(-4, 5)
        assert th.branch2.n_exponent == Fraction(-2, 3)
        assert th.dominating_branch == 2

    def test_smaller_gamma_raises_threshold(self):
        lo = cleaning_threshold(50, C4_EDGE, Fraction(1, 4), Fraction(1, 2)).value
        hi = cleaning_threshold(50, C4_EDGE, 1, Fraction(1, 2)).value
        assert lo > hi

    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            cleaning_threshold(0, C4_EDGE, 1, Fraction(1, 2))
        with pytest.raises(PreconditionViolated):
            cleaning_threshold(10, C4_EDGE, 2, Fraction(1, 2))

    @pytest.mark.parametrize("c", [-1, 0, Fraction(-1, 2)])
    def test_constant_must_be_positive(self, c):
        # a C of 0 or below gave a threshold of 0 or a negative one
        with pytest.raises(PreconditionViolated):
            cleaning_threshold(10, C4_EDGE, Fraction(1, 2), Fraction(1, 2), c)

    @pytest.mark.parametrize(
        "n, gamma, alpha, c",
        [
            (5, Fraction(1, 2), 10**400, 1),  # float(alpha - 1) overflows
            (5, Fraction(1, 2), -(10**400), 1),
            (5, Fraction(1, 10**400), Fraction(1, 2), 1),  # gamma rounds to 0.0
            (5, Fraction(1, 2), Fraction(1, 2), 10**400),  # float(C) overflows
            (5, Fraction(1, 2), 2000, 1),  # exp of branch 2's log overflows
            (5, Fraction(1, 2), 500, 10**300),  # C times the branch is inf
            # branch 2's log is inf + (-inf): it gave branch 1's value, labelled branch 2
            (10, Fraction(1, 10**300), 10**308, 1),
        ],
        ids=["alpha", "-alpha", "gamma", "C", "exp", "C-times-branch", "nan"],
    )
    def test_float_range(self, n, gamma, alpha, c):
        with pytest.raises(PreconditionViolated, match="float range"):
            cleaning_threshold(n, C4_EDGE, gamma, alpha, c)

    def test_a_branch_below_the_float_range_is_zero(self):
        th = cleaning_threshold(5, C4_EDGE, Fraction(1, 2), -2000)
        assert th.branch2.evaluate(5, Fraction(1, 2)) == 0.0
        assert (th.value, th.dominating_branch) == (th.branch1.evaluate(5, Fraction(1, 2)), 1)


class TestDeletionExponent:
    def test_known_values(self):
        assert deletion_exponent(cycle(4)) == Fraction(4, 3)
        assert deletion_exponent(cycle(6)) == Fraction(6, 5)
        assert deletion_exponent(complete_bipartite(3, 3)) == Fraction(3, 2)

    def test_needs_two_edges(self):
        with pytest.raises(TooFewEdges):
            deletion_exponent(path(2))


class TestGluedShapeExponents:
    def test_tree_leaf_gluing(self):
        assert tree_gluing_exponent(star(3)) == Fraction(2, 3)
        assert tree_gluing_exponent(path(4)) == Fraction(1, 2)
        with pytest.raises(PreconditionViolated):
            tree_gluing_exponent(cycle(4))

    def test_cycle_tree(self):
        assert cycle_tree_exponent([4, 6]) == Fraction(1, 2)
        assert cycle_tree_exponent([6, 8, 6]) == Fraction(1, 3)
        with pytest.raises(PreconditionViolated):
            cycle_tree_exponent([5, 4])
        with pytest.raises(PreconditionViolated):
            cycle_tree_exponent([])


class TestBinomSandwich:
    def test_known_triples(self):
        assert binom_ratio_bounds(10, Fraction(1, 2), 2) == (
            Fraction(1, 8),
            Fraction(2, 9),
            Fraction(1, 4),
        )
        lo, ex, hi = binom_ratio_bounds(10, Fraction(1, 2), 1)
        assert lo == ex == hi == Fraction(1, 2)
        assert binom_ratio_bounds(8, Fraction(1, 2), 3) == (
            Fraction(1, 32),
            Fraction(1, 14),
            Fraction(1, 8),
        )

    def test_precondition_clauses(self):
        with pytest.raises(PreconditionViolated):
            binom_ratio_bounds(10, Fraction(1, 3), 2)  # qn not integral
        with pytest.raises(PreconditionViolated):
            binom_ratio_bounds(4, Fraction(1, 2), 3)  # qn < 2(s-1)
        with pytest.raises(PreconditionViolated):
            binom_ratio_bounds(4, Fraction(3, 2), 1)  # q > 1
        with pytest.raises(PreconditionViolated):
            binom_ratio_bounds(4, Fraction(1, 2), 0)  # s = 0: the lower bound 2 is above the ratio 1
        with pytest.raises(PreconditionViolated):
            binom_ratio_bounds(4, Fraction(0), 0)  # s = 0, q = 0: the lower bound divides by 0
