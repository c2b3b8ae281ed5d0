"""Random hosts and probabilistic lower-bound constructions.

All randomness flows through SeededSampler, a thin wrapper over numpy's
PCG64 generator: identical seed and parameters give identical graphs on
every platform, and independent trials derive child samplers
deterministically from the master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import comb, exp, log
from typing import TYPE_CHECKING

from .embed import enumerate_embeddings
from .errors import PreconditionViolated, TooFewEdges
from .graphs import LabeledGraph, SignedBipartiteGraph

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SeededSampler:
    seed: int

    def rng(self) -> np.random.Generator:
        # numpy is imported on first use: `import edgeglue` stays without it
        import numpy as np

        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, index: int) -> "SeededSampler":
        """Deterministic per-trial sampler derived from the master seed."""
        import numpy as np

        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        return SeededSampler(int(ss.generate_state(1, dtype=np.uint64)[0]))


def sample_gnp(n: int, p, sampler: SeededSampler) -> LabeledGraph:
    """Binomial random graph: each pair present independently with prob p.

    One draw per pair (i, j), i < j, in row order, the order of
    combinations(range(n), 2); a vector of draws is the same stream of
    doubles as one scalar draw per pair.
    """
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    present = sampler.rng().random(comb(n, 2)) < p
    return LabeledGraph(n, compress(combinations(range(n), 2), present.tolist()))


def deletion_probability(n: int, f: LabeledGraph) -> float:
    """p = (1/4) n^{-(v(F)-2)/(e(F)-1)} used by the deletion construction."""
    if f.edge_count < 2:
        raise TooFewEdges("deletion construction needs a pattern with >= 2 edges")
    if n < 1:
        raise PreconditionViolated("deletion construction needs n >= 1")
    x = -float(Fraction(f.vertex_count - 2, f.edge_count - 1))
    try:
        return 0.25 * n ** x
    except OverflowError:  # n past the float range; exp(log) would move p by an ulp at n = 16
        return 0.25 * exp(x * log(n))


def delete_per_copy(g: LabeledGraph, f: LabeledGraph) -> LabeledGraph:
    """Remove one edge per surviving copy of f until g is f-free.

    Deterministic rule: take the first copy in enumeration order and delete
    its lexicographically least image edge.  Each deletion kills at least
    one copy, so deletions never exceed the initial copy count.
    """
    current = g
    while True:
        emb = next(enumerate_embeddings(f, current), None)
        if emb is None:
            return current
        victim = min(emb.image_edge(e) for e in f.edges)
        current = LabeledGraph(
            current.vertex_count, current.edges - {victim}
        )


def deletion_construction(n: int, f: LabeledGraph, sampler: SeededSampler) -> LabeledGraph:
    """Random-deletion lower-bound construction: G(n, p) with
    p = (1/4) n^{-(v(F)-2)/(e(F)-1)}, then one edge deleted per copy of f."""
    p = deletion_probability(n, f)
    return delete_per_copy(sample_gnp(n, p, sampler), f)


def random_sign_split(g: LabeledGraph, sampler: SeededSampler) -> SignedBipartiteGraph:
    """Uniform equipartition into + and - sides; keep crossing edges only."""
    v = g.vertex_count
    k = (v + 1) // 2
    rng = sampler.rng()
    plus = set(rng.permutation(v)[:k].tolist())
    crossing = [(a, b) for a, b in g.edges if (a in plus) != (b in plus)]
    order = sorted(plus) + [u for u in range(v) if u not in plus]
    flat = LabeledGraph(v, crossing).relabel({u: i for i, u in enumerate(order)})
    return SignedBipartiteGraph.from_flat(k, flat)


def mean_edge_floor(n: int, p: float) -> float:
    """(p/2) * C(n, 2): the guaranteed-in-expectation edge mass the deletion
    construction keeps."""
    return 0.5 * p * comb(n, 2)
