"""
Generating all minimally 3-connected graphs
===========================================

One call walks the bookshelf from the prism seed and returns every
minimally 3-connected graph up to the requested vertex count, grouped by
(n, m), isomorph-free, in a deterministic order.
"""

import time

from min3gen import certificate, complete_bipartite_3, decode_graph6, generate_min3, wheel

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

# A shelf_saver sees the bookshelf itself.  Shelf (m, n) holds the graphs
# that Dawes' bridgings d1, d2 and d3 reach from the shelves of columns
# n-1 and n-2, every class of (n, m) except the wheel and K_{3,t}.  Each
# entry carries its cycle set, which the gates of the next shelves read,
# and the shelf keeps its entries' certificates.  Shelves of the last
# column (n = max_n) feed no gate and carry no cycle sets, so this looks at
# n = 7 of a run to n = 8.
shelves = {}
generate_min3(8, shelf_saver=lambda sh: shelves.setdefault((sh.m, sh.n), sh))
print("\nshelves saved:", sorted(shelves))
shelf = shelves[(11, 7)]
print(f"shelf (m=11, n=7): {len(shelf.entries)} graphs")
entry = shelf.entries[0]
print("one entry:", entry.graph)
print("  cycles carried:", len(entry.cycles))
print("  its certificate:", shelf.certs[0])
