"""Closed-form exponent, threshold, and inequality calculators.

Everything here is exact rational arithmetic (fractions.Fraction); the
cleaning threshold additionally reports its two branches as symbolic
(n-exponent, gamma-exponent) pairs so callers can compare exponents rather
than floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InfeasibleInput, PreconditionViolated, TooFewEdges
from .gluing import RootedPattern
from .graphs import LabeledGraph


@dataclass(frozen=True)
class PatternStats:
    """Vertex/edge counts of a pattern H and its rooted subforest F."""

    h: int
    eH: int
    ell: int
    eF: int

    def __post_init__(self):
        if not 0 < self.ell < self.h:
            raise ValueError("need 0 < v(F) < v(H)")
        if not 0 <= self.eF < self.eH:
            raise ValueError("need 0 <= e(F) < e(H)")

    @staticmethod
    def from_rooted(p: RootedPattern) -> "PatternStats":
        return PatternStats(
            h=p.pattern.vertex_count,
            eH=p.pattern.edge_count,
            ell=p.ell,
            eF=p.root_edge_count,
        )


def feasibility_check(s: PatternStats, alpha) -> bool:
    """(v(F) - 1) + (1 - e(F)) (1 - alpha) >= 1, exact."""
    return (s.ell - 1) + (1 - s.eF) * (1 - Fraction(alpha)) >= 1


def es_exponent_forest(alpha, s: PatternStats) -> Fraction:
    """Exponent after gluing copies along a forest:

    max{ 1 - (h-l)/(e(H)-e(F)), 1 - (1-alpha)/(l-1 + (1-e(F))(1-alpha)) }.
    """
    alpha = Fraction(alpha)
    if not feasibility_check(s, alpha):
        raise InfeasibleInput(
            "(v(F)-1) + (1-e(F))(1-alpha) < 1: the deletion lower bound rules this out"
        )
    return max(es_exponent_branches(alpha, s))


def es_exponent_branches(alpha, s: PatternStats) -> tuple[Fraction, Fraction]:
    """Both branches of the exponent max, for reporting."""
    alpha = Fraction(alpha)
    first = 1 - Fraction(s.h - s.ell, s.eH - s.eF)
    denom = (s.ell - 1) + (1 - s.eF) * (1 - alpha)
    second = 1 - (1 - alpha) / denom
    return first, second


def tree_gluing_exponent(t: LabeledGraph) -> Fraction:
    """Exponent 1 - 1/r for gluing copies of a tree along its r leaves."""
    if not t.is_tree() or t.vertex_count < 3:
        raise PreconditionViolated("need a tree on at least 3 vertices")
    r = sum(1 for v in range(t.vertex_count) if t.degree(v) == 1)
    return 1 - Fraction(1, r)


def cycle_tree_exponent(cycle_lengths) -> Fraction:
    """Exponent 1/l_C for a tree of even cycles, l_C = min length / 2."""
    lengths = list(cycle_lengths)
    if not lengths:
        raise PreconditionViolated("need at least one cycle")
    if any(c < 4 or c % 2 for c in lengths):
        raise PreconditionViolated("cycle lengths must be even and >= 4")
    return Fraction(2, min(lengths))


@dataclass(frozen=True)
class ThresholdBranch:
    n_exponent: Fraction
    gamma_exponent: Fraction

    def evaluate(self, n: int, gamma: Fraction) -> float:
        # log-space evaluation; exponentiate once at the end
        log = self.n_exponent * math.log(n) + self.gamma_exponent * math.log(gamma)
        return math.exp(log)


@dataclass(frozen=True)
class CleaningThreshold:
    """g(n, H, F, gamma) = C * max(branch1, branch2), with symbolic branches."""

    c: Fraction
    branch1: ThresholdBranch
    branch2: ThresholdBranch
    value: float
    dominating_branch: int  # 1 or 2


def cleaning_threshold(n: int, s: PatternStats, gamma, alpha, c=1) -> CleaningThreshold:
    """Density threshold of the greedy family builder, for a constant C > 0:

    C * max( n^{-(h-l)/(e(H)-e(F))} gamma^{-1/(e(H)-e(F))},
             (n gamma)^{(alpha-1)/((l-1)+(1-alpha)(1-e(F)))} ).
    """
    gamma = Fraction(gamma)
    alpha = Fraction(alpha)
    c = Fraction(c)
    if n < 1:
        raise PreconditionViolated("n must be at least 1")
    if not 0 < gamma <= 1:
        raise PreconditionViolated("gamma must lie in (0, 1]")
    if c <= 0:
        raise PreconditionViolated("C must be positive")
    if not feasibility_check(s, alpha):
        raise InfeasibleInput("feasibility inequality fails for these (F, alpha)")
    b1 = ThresholdBranch(
        n_exponent=-Fraction(s.h - s.ell, s.eH - s.eF),
        gamma_exponent=-Fraction(1, s.eH - s.eF),
    )
    expo = (alpha - 1) / ((s.ell - 1) + (1 - alpha) * (1 - s.eF))
    b2 = ThresholdBranch(n_exponent=expo, gamma_exponent=expo)
    try:
        # float() of a Fraction past the range, and math.exp, raise OverflowError; math.log
        # of a gamma that rounds to 0.0 raises ValueError; a float product past it is inf or nan
        v1, v2 = b1.evaluate(n, gamma), b2.evaluate(n, gamma)
        value = float(c) * max(v1, v2)
        if not all(map(math.isfinite, (v1, v2, value))):
            raise OverflowError
    except (OverflowError, ValueError) as exc:
        raise PreconditionViolated("an input or the threshold leaves the float range") from exc
    return CleaningThreshold(
        c=c,
        branch1=b1,
        branch2=b2,
        value=value,
        dominating_branch=1 if v1 >= v2 else 2,
    )


def deletion_exponent(f: LabeledGraph) -> Fraction:
    """Lower-bound exponent 2 - (v(F)-2)/(e(F)-1) of the random-deletion
    construction."""
    if f.edge_count < 2:
        raise TooFewEdges("deletion exponent needs at least 2 edges")
    return 2 - Fraction(f.vertex_count - 2, f.edge_count - 1)


def binom_ratio_bounds(n: int, q, s: int) -> tuple[Fraction, Fraction, Fraction]:
    """(lower, exact, upper) for C(n-s, qn-s) / C(n, qn):

    q (q/2)^{s-1} <= ratio <= q^s, requiring qn integral, s >= 1 and
    qn >= 2(s-1).
    """
    q = Fraction(q)
    if q > 1:
        raise PreconditionViolated("q must satisfy q <= 1")
    qn = q * n
    if qn.denominator != 1:
        raise PreconditionViolated("q*n must be an integer")
    qn = int(qn)
    if qn < 2 * (s - 1):
        raise PreconditionViolated("need q*n >= 2(s-1)")
    if s < 1 or qn < s or n < s:
        raise PreconditionViolated("need 1 <= s <= q*n")
    exact = Fraction(comb(n - s, qn - s), comb(n, qn))
    lower = q * (q / 2) ** (s - 1)
    upper = q**s
    return lower, exact, upper
