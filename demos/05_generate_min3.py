"""
Generating all minimally 3-connected graphs
===========================================

One call walks the bookshelf from the prism seed and returns every
minimally 3-connected graph up to the requested vertex count, grouped by
(n, m), isomorph-free, in a deterministic order.
"""

import time

from min3gen import (
    PRISM_CYCLES,
    Shelf,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    generate_min3,
    prism,
    run_shelf,
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

# run_shelf builds one shelf of the bookshelf.  Shelf (m, n) holds the
# graphs that Dawes' bridgings d1, d2 and d3 reach from the shelves of
# columns n-1 and n-2, every class of (n, m) except the wheel and K_{3,t}.
# Each entry carries its cycle set, which the gates of the next shelves
# read, and its automorphism group generators, and the shelf keeps its
# entries' certificates.  Here column 7 is built from the prism seed.
seed = Shelf(9, 6, [source(prism(), PRISM_CYCLES)], [certificate(prism())])
shelves = {(9, 6): seed}
for m in (11, 12):
    shelves[(m, 7)] = run_shelf(shelves, m, 7)
print("\nshelves built:", sorted(shelves))
shelf = shelves[(11, 7)]
print(f"shelf (m=11, n=7): {len(shelf.entries)} graphs, as in result.groups[(7, 11)]:",
      shelf.certs == result.groups[(7, 11)])
entry = shelf.entries[0]
print("one entry:", entry.graph)
print("  cycles carried:", len(entry.cycles))
print("  automorphism generators:", entry.gens)
print("  its certificate:", shelf.certs[0])
print("shelf (m=12, n=7) holds", len(shelves[(12, 7)].entries), "graphs: only W6 and K_{3,4} have that size")

# A later run resumes from this one's outputs and walks only column 9.
resumed = generate_min3(9, resume=result)
print("\nresumed to n=9:", resumed.count(9), "graphs, as a fresh run:",
      resumed.groups == generate_min3(9).groups)
