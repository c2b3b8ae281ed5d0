"""Exact extremal numbers at small scale, with two independent engines.

ex(n, H) is the largest edge count of an n-vertex graph containing no copy
of H.  z(m, n, H) is the bipartite analogue for a signed pattern H, where
embeddings must respect the two sides.  Both are computed exactly here by
an exhaustive engine and a branch-and-bound engine that cross-check.
"""

from edgeglue.extremal import exact_turan, exact_zarankiewicz
from edgeglue.gluing import glue_along_edge
from edgeglue.graphs import cycle, signed_cycle

print("ex(n, C4) for small n, both engines:")
for n in range(4, 9):
    rec = exact_turan(n, [cycle(4)])
    oracle = exact_turan(n, [cycle(4)], method="oracle") if n <= 7 else None
    tag = "" if oracle is None else f"  (oracle agrees: {oracle.value == rec.value})"
    print(f"  n={n}: {rec.value}  witness={rec.witness}{tag}")

print("\nz(n, n, signed C4):")
for n in range(2, 6):
    rec = exact_zarankiewicz(n, n, signed_cycle(4))
    print(f"  n={n}: {rec.value}  witness={rec.witness}")

# Gluing can only enlarge the extremal number: every graph with no C4 also
# has no copy of the larger glued pattern, so the free side grows.
hstar = glue_along_edge(cycle(4), (0, 1), cycle(4), (0, 1))[0]
print("\nex(n, C4) <= ex(n, two C4 sharing an edge):")
for n in range(4, 8):
    lo = exact_turan(n, [cycle(4)]).value
    hi = exact_turan(n, [hstar]).value
    print(f"  n={n}: {lo} <= {hi}")
