"""The copy-mask front end against a reference builder that shares no code
with `embed`.

Both engines of `extremal` read the same copy masks, so their agreement
cannot catch a fault in how the masks are made.  The reference here takes
every vertex subset of the complete host, tries every permutation of the
pattern onto it, checks each pattern edge (and, for signed patterns, each
side) directly, and keeps the minimal masks.  It lays out the edge slots
itself: the k-th pair of K_n in lexicographic order, and p*n + q for the
edge (p, q) of K_{m,n}.
"""

import hashlib
import json
from itertools import combinations, permutations

from edgeglue.extremal import _instance
from edgeglue.graphs import LabeledGraph, SignedBipartiteGraph

C4 = ((0, 1), (1, 2), (2, 3), (0, 3))
UNSIGNED = {
    "c4": (4, C4),
    "h*": (6, C4 + ((1, 4), (4, 5), (0, 5))),
    "k2,3": (5, tuple((p, 2 + q) for p in range(2) for q in range(3))),
    "c6": (6, tuple((i, (i + 1) % 6) for i in range(6))),
    "c4+k1": (5, C4),
}
# the connected graphs on four vertices; the sweep forbids each and each pair
CONNECTED4 = {
    "p4": (4, ((0, 1), (1, 2), (2, 3))),
    "k1,3": (4, ((0, 1), (0, 2), (0, 3))),
    "paw": (4, ((0, 1), (1, 2), (0, 2), (2, 3))),
    "c4": (4, C4),
    "diamond": (4, C4 + ((0, 2),)),
    "k4": (4, tuple(combinations(range(4), 2))),
}
SIGNED = {
    "c4": (2, 2, ((0, 0), (1, 1), (0, 1), (1, 0))),
    "c6": (3, 3, ((0, 0), (1, 1), (2, 2), (0, 2), (1, 0), (2, 1))),
    "k2,3": (2, 3, tuple((p, q) for p in range(2) for q in range(3))),
    "s2+": (1, 2, ((0, 0), (0, 1))),
    "s2-": (2, 1, ((0, 0), (1, 0))),
    "s3+": (1, 3, ((0, 0), (0, 1), (0, 2))),
    "s3-": (3, 1, ((0, 0), (1, 0), (2, 0))),
    "h*": (3, 3, ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 2))),
}
# families whose patterns differ in vertex count, some with isolated
# vertices, so the largest pattern sets the small host the others are
# enumerated in
MIXED = {
    "c4+h*": [UNSIGNED["c4"], UNSIGNED["h*"]],
    "k3+c4k1": [(3, ((0, 1), (1, 2), (0, 2))), UNSIGNED["c4+k1"]],
    "p3k2+k3": [(5, ((0, 1), (1, 2))), (3, ((0, 1), (1, 2), (0, 2)))],
}
# the four branch-and-bound instances of the benchmark's proof workload, and
# one-edge patterns, whose masks the front end moves from a single column
ORDERED = [
    ("K8 c4", (8,), [UNSIGNED["c4"]]),
    ("K7 h*", (7,), [UNSIGNED["h*"]]),
    ("K5,5 c4", (5, 5), [SIGNED["c4"]]),
    ("K5,5 h*", (5, 5), [SIGNED["h*"]]),
    *((f"K{n} k2", (n,), [(2, ((0, 1),))]) for n in range(2, 7)),
    *((f"K{m},{n} k1,1", (m, n), [(1, 1, ((0, 0),))]) for m in range(1, 5) for n in range(1, 5)),
]
# sha256 of the JSON list of [case name, masks] over `cases()`, as the
# front end that enumerated every embedding produced them
PINNED_DIGEST = "444e73bc6ff197969cb109da9e784fb6bb047612307642ef745f684a535c4254"


def unsigned_forbidden():
    out = {name: [spec] for name, spec in UNSIGNED.items()}
    out.update({f"g4 {name}": [spec] for name, spec in CONNECTED4.items()})
    for (a, sa), (b, sb) in combinations(CONNECTED4.items(), 2):
        out[f"g4 {a}+{b}"] = [sa, sb]
    return out


def cases():
    """(case name, host size, forbidden pattern specs) for every covered case."""
    for name, specs in unsigned_forbidden().items():
        for n in range(2, 8):
            yield f"K{n} {name}", (n,), specs
    for name, spec in SIGNED.items():
        for m in range(1, 5):
            for n in range(1, 5):
                yield f"K{m},{n} {name}", (m, n), [spec]


def minimal(masks: set[int]) -> set[int]:
    return {c for c in masks if not any(d != c and d & c == d for d in masks)}


def reference_masks(size, specs) -> set[int]:
    """Minimal copy masks by vertex subsets and pattern permutations."""
    if len(size) == 1:
        (n,) = size
        host_edges = set(combinations(range(n), 2))
        slot = {e: k for k, e in enumerate(sorted(host_edges))}
        host_color = [0] * n
        flat = [(k, edges, [0] * k) for k, edges in specs]
    else:
        m, n = size
        host_edges = {(p, m + q) for p in range(m) for q in range(n)}
        slot = {(p, m + q): p * n + q for p in range(m) for q in range(n)}
        host_color = [0] * m + [1] * n
        flat = [
            (a + b, [(p, a + q) for p, q in edges], [0] * a + [1] * b)
            for a, b, edges in specs
        ]
    masks = set()
    for k, edges, color in flat:
        for subset in combinations(range(len(host_color)), k):
            for image in permutations(subset):
                if any(host_color[u] != color[v] for v, u in enumerate(image)):
                    continue
                pairs = [tuple(sorted((image[a], image[b]))) for a, b in edges]
                if all(e in host_edges for e in pairs):
                    masks.add(sum(1 << slot[e] for e in set(pairs)))
    return minimal(masks)


def front_end_masks(size, specs) -> list[int]:
    graph = LabeledGraph if len(size) == 1 else SignedBipartiteGraph
    return _instance(size, [graph(*spec) for spec in specs])[1]


class TestCopyMasksAgainstReference:
    def test_masks_equal_as_sets(self):
        for name, size, specs in cases():
            assert set(front_end_masks(size, specs)) == reference_masks(size, specs), name

    def test_mixed_vertex_counts(self):
        for name, specs in MIXED.items():
            for n in range(2, 9):
                expected = sorted(reference_masks((n,), specs), key=lambda c: (c.bit_count(), c))
                assert front_end_masks((n,), specs) == expected, (name, n)

    def test_ordered_lists_at_benchmark_sizes(self):
        for name, size, specs in ORDERED:
            expected = sorted(reference_masks(size, specs), key=lambda c: (c.bit_count(), c))
            assert front_end_masks(size, specs) == expected, name

    def test_mask_lists_are_pinned(self):
        lists = [[name, front_end_masks(size, specs)] for name, size, specs in cases()]
        assert hashlib.sha256(json.dumps(lists).encode()).hexdigest() == PINNED_DIGEST
