"""Walk through the gluing constructions.

Gluing two rooted graphs along a distinguished edge can produce more than
one result, because the edge can be identified in either orientation.  The
library enumerates both, deduplicates up to isomorphism, and returns the
family sorted by canonical certificate.
"""

from edgeglue.canon import canonical_form, decode_canonical
from edgeglue.gluing import (
    GluingSpec,
    attach_tree,
    edge_rooted,
    glue_along_edge,
    glue_copies_along_forest,
    signed_glue,
    tree_of_cycles,
)
from edgeglue.graphs import LabeledGraph, cycle, encode_graph6, path, signed_cycle

# Two paths P3 glued along an edge: one orientation gives the star K_{1,3},
# the other gives the path P4.
fam = glue_along_edge(path(3), (0, 1), path(3), (0, 1))
print("P3 + P3 along an edge:", [encode_graph6(g) for g in fam])
for g in fam:
    print("  ", canonical_form(g), "->", g.vertex_count, "vertices,", g.edge_count, "edges")

# Two 4-cycles glued along an edge collapse to a single graph (6 vertices,
# 7 edges) because C4 has an automorphism swapping the edge endpoints.
hstar = glue_along_edge(cycle(4), (0, 1), cycle(4), (0, 1))
print("\nC4 + C4 along an edge:", len(hstar), "graph;",
      hstar[0].vertex_count, "vertices,", hstar[0].edge_count, "edges")

# s copies of a rooted pattern glued along their shared root forest.
rooted = edge_rooted(cycle(4), (0, 1))
for s in (1, 2, 3):
    g = glue_copies_along_forest(rooted, s)
    print(f"{s} copies of edge-rooted C4:", g.vertex_count, "vertices,",
          g.edge_count, "edges")

# Pendant trees: attach a path to a cycle.  The attachment point on C4 is
# irrelevant up to isomorphism.
pan = attach_tree(cycle(4), 0, LabeledGraph(2, [(0, 1)]), 0)
print("\nC4 with a pendant edge:", pan.vertex_count, "vertices,", pan.edge_count, "edges")

# A tree of cycles: even cycles attached along the edges of a host tree.
t = LabeledGraph(2, [(0, 1)])
g = tree_of_cycles(t, {0: 4, 1: 6}, {((0, 1), 0): 0, ((0, 1), 1): 0})
print("tree of cycles (C4-C6):", g.vertex_count, "vertices,", g.edge_count, "edges")

# Signed gluing keeps the two sides of the bipartition distinguishable.
c4 = signed_cycle(4)
spec = GluingSpec(((c4, (0, 0)), (c4, (0, 0)), (c4, (0, 0))))
sg = signed_glue(spec)
print("\nthree signed C4 glued:", sg.plus_count, "+", sg.minus_count,
      "vertices,", sg.edge_count, "edges")
print("certificate decodes back:", decode_canonical(canonical_form(sg)).edge_count, "edges")
