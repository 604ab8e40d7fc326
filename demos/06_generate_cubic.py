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

The walk is isomorph-free by McKay's canonical construction path: a child
is kept only when its new edge is its canonical reduction, the valid edge
to delete and smooth away that is least by a cheap invariant, ties broken
by the canonical labelling.  So each class is kept exactly once, and only
kept children (and ties) are certified.
"""

import time

from min3gen import bridgings, certificate, complete_bipartite_3, decode_graph6, generate_cubic, prism, source
from min3gen.construction import canonical_certificate

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

# One source's children, one per orbit of its edge pairs: few are kept,
# each a different class, and together the level's classes are each kept
# by exactly one bridging of one source.
parent = decode_graph6(result.groups[(10, 15)][0])
children = [g for g, _ in bridgings(source(parent), (0, 2))]
kept = [c for c in map(canonical_certificate, children) if c is not None]
print(f"\none n=10 source: {len(children)} bridgings, {len(kept)} kept,",
      "all distinct:", len(kept) == len(set(kept)))
every = [c for cert in result.groups[(10, 15)]
         for g, _ in bridgings(source(decode_graph6(cert)), (0, 2))
         if (c := canonical_certificate(g)) is not None]
print("n=12 from every n=10 source:", len(every), "kept, one per class:",
      sorted(every) == result.groups[(12, 18)])
