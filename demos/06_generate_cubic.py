"""
Generating all 3-connected cubic graphs
=======================================

The cubic mode grows K4 by bridging pairs of edges: subdivide both, join
the two new vertices.  Every 3-connected cubic graph on n+2 vertices
arises this way from one on n, so levels are complete by induction.  A
level is kept as its certificates only, the graph6 lines of canonical
labellings, and decoded to grow the next.  It is the min3 bookshelf walk
run over the even vertex counts alone, where this two-edge bridging is the
only one to feed a shelf.

A child is skipped when another of its edges is a valid reduction, one
to delete and smooth away, less than its new edge by a cheap invariant.
Every other child is certified, and the level's set joins the isomorphs
that ties leave.  A class's least valid reduction is the new edge of a
bridging that is never skipped, so no class is lost.
"""

import time

from min3gen import bridgings, certificate, complete_bipartite_3, decode_graph6, generate_cubic, prism, source
from min3gen.construction import has_smaller_d2_reduction

start = time.perf_counter()
result = generate_cubic(12, progress=print)
elapsed = time.perf_counter() - start

print(f"\ndone in {elapsed:.2f}s")
for (n, m), bucket in result.groups.items():
    print(f"  n={n:2d} m={m:2d}: {len(bucket)} graphs")

# The two cubic 3-connected graphs on 6 vertices are the prism and K33.
level6 = set(result.groups[(6, 9)])
print("\nn=6 level is {prism, K33}:",
      level6 == {certificate(prism()), certificate(complete_bipartite_3(3))})

# Every emitted graph is cubic by construction; spot-check one level in
# the canonical labelling its certificate encodes.
for cert in result.groups[(10, 15)][:3]:
    g = decode_graph6(cert)
    print("n=10 sample:", g.edges()[:6], "... degrees all 3:",
          all(g.degree(v) == 3 for v in g.vertices))

# The children of every n=10 source, one per orbit of its edge pairs: most
# are skipped, and the certificates of the rest are the n=12 level.
children = [g for cert in result.groups[(10, 15)]
            for g, _ in bridgings(source(decode_graph6(cert)), (0, 2))]
unskipped = [g for g in children if not has_smaller_d2_reduction(g)]
kept = {certificate(g) for g in unskipped}
print(f"\nn=12 from every n=10 source: {len(children)} bridgings,",
      f"{len(unskipped)} kept, {len(kept)} classes, the level:",
      sorted(kept) == result.groups[(12, 18)])
