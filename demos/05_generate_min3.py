"""
Generating all minimally 3-connected graphs
===========================================

One call walks the bookshelf from the prism seed and returns every
minimally 3-connected graph up to the requested vertex count, grouped by
(n, m), isomorph-free, in a deterministic order.
"""

import time

from min3gen import (
    bridgings,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    generate_min3,
    prism,
    source,
    wheel,
)

start = time.perf_counter()
result = generate_min3(8, progress=print)
elapsed = time.perf_counter() - start

print(f"\ndone in {elapsed:.2f}s")
print("total per n:", {n: result.count(n) for n in (6, 7, 8)})

print("\ncounts by (n, m):")
for (n, m), bucket in result.groups.items():
    print(f"  n={n} m={m}: {len(bucket)}")

# Each bucket is a sorted list of certificates, one per isomorphism class.
# A certificate is the graph6 line of the class's canonical labelling.
# The edge counts stop at 3n-9 (for n >= 8), and the unique graph on that
# boundary is K_{3,n-3}.
boundary = result.groups[(8, 15)]
print("\nextremal bucket at (8,15):", len(boundary), "graph,",
      "is K_{3,5}:", boundary[0] == certificate(complete_bipartite_3(5)))

# write_outputs writes each certificate as its line, and decode_graph6
# turns one back into its canonical labelling.
print("its line:", boundary[0], "decodes to", decode_graph6(boundary[0]))

# Wheels always show up: W7 sits in the n=8, m=14 bucket.
print("wheel(7) emitted at (8,14):", certificate(wheel(7)) in result.groups[(8, 14)])

# One step of the walk.  Shelf (n, m) collects the graphs that Dawes'
# bridging reaches from shelves (n-1, m-2), (n-1, m-3) and (n-2, m-3), of
# sets of shape (1, 1), (3, 0) and (0, 2): a vertex and an edge, three
# vertices, two edges.  That is every class of (n, m) except the wheel and
# K_{3,t}, each kept once, as its certificate.  Each graph of a complete
# shelf becomes a source once: source() gives it its automorphism group
# generators, and bridgings(src, shape) bridges it at one site per orbit,
# keeping each child whose edges between vertices of degree 4 or more are
# essential.  The walk adds each child's certificate to its shelf, a set,
# so isomorphic children are kept once.  generate_min3 completes every
# shelf of a column first and then bridges the column's graphs at once,
# split between two processes where two CPUs are free; the shelves are
# sets of certificates, so the result is the same either way.
seed = source(prism())
print("\nthe prism made a source:", seed.graph)
print("  automorphism generators:", seed.gens)
shelves = {}
for shape, key in (((1, 1), (7, 11)), ((3, 0), (7, 12)), ((0, 2), (8, 12))):
    shelves[key] = {certificate(g) for g, _ in bridgings(seed, shape)}
    print(f"  shape {shape} bridges it into shelf {key}: {len(shelves[key])} classes")
print("shelf (n=7, m=11) as in result.groups[(7, 11)]:", sorted(shelves[(7, 11)]) == result.groups[(7, 11)])
# The prism has no three pairwise non-adjacent vertices, and (7, 12) holds
# only W6 and K_{3,4}, which are built directly.
print("shelf (n=7, m=12) holds", len(shelves[(7, 12)]), "graphs; its group is W6 and K_{3,4}:",
      result.groups[(7, 12)] == sorted([certificate(wheel(6)), certificate(complete_bipartite_3(4))]))
# No shelf of column 7 feeds (8, 12), so the prism alone fills it.
print("shelf (n=8, m=12) as in result.groups[(8, 12)]:", sorted(shelves[(8, 12)]) == result.groups[(8, 12)])
cert = min(shelves[(7, 11)])
print("one graph of (n=7, m=11), decoded from its certificate:", decode_graph6(cert))

# A later run resumes from this one's outputs and walks only column 9.
resumed = generate_min3(9, resume=result)
print("\nresumed to n=9:", resumed.count(9), "graphs, as a fresh run:",
      resumed.groups == generate_min3(9).groups)
