"""
Canonical certificates and isomorph rejection
=============================================

Two graphs get the same certificate exactly when they are isomorphic, so
deduplicating a batch is set membership on strings.  A certificate is the
graph6 line of the graph's canonical labelling, so it is also the line an
output file holds for that class.  The labeler is partition refinement
with individualization, plus a twin collapse that keeps highly symmetric
graphs (wheels, K_{3,t}) cheap.  The same search also reports generators
of the automorphism group.
"""

import random

from min3gen import (
    Graph,
    are_isomorphic_bruteforce,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    prism,
    wheel,
)

g = prism()
print("prism certificate:", certificate(g))

# Relabeling does not change the certificate.
rng = random.Random(7)
perm = list(g.vertices)
rng.shuffle(perm)
relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
print("relabeled edges:   ", relabeled.edges())
print("same certificate:  ", certificate(relabeled) == certificate(g))
print("brute-force agrees:", are_isomorphic_bruteforce(relabeled, g))

# Non-isomorphic graphs of the same size separate: prism vs K_{3,3} are the
# two cubic graphs on 6 vertices.
k33 = complete_bipartite_3(3)
print("\nK33 certificate:", certificate(k33))
print("distinct from prism:", certificate(k33) != certificate(g))

# Batch dedup: all 6 one-vertex-deleted subgraphs of the prism are
# isomorphic (it is vertex-transitive), so one certificate survives.
from min3gen import delete_vertex

certs = {certificate(delete_vertex(g, v)) for v in g.vertices}
print("\ndistinct certificates among prism vertex deletions:", len(certs))

# Twin-heavy graphs stay fast: the 8 rim vertices of W8 and the 8-side of
# K_{3,8} are interchangeable, which naive branching would explore 8! ways.
for name, h in (("wheel(8)", wheel(8)), ("K_{3,8}", complete_bipartite_3(8))):
    c = certificate(h)
    print(f"{name}: n={h.n} cert={c}, leading character {c[0]!r} = chr(n + 63)")

# decode_graph6 turns a certificate back into the canonical labelling,
# which certifies to itself.
canon = decode_graph6(certificate(g))
print("\ncanonical prism:", canon.edges())
print("certifies to itself:", certificate(canon) == certificate(g))

# The same search yields generators of the automorphism group: the prism
# has 12 automorphisms (the 6 symmetries of a triangle, times swapping the
# two triangles).  Closing the generators under composition counts them.
from min3gen import automorphisms

gens = automorphisms(g)
group = {tuple(g.vertices)}
frontier = list(group)
while frontier:
    frontier = [q for p in frontier for s in gens if (q := tuple(s[v] for v in p)) not in group]
    group.update(frontier)
print("\nprism automorphism generators:", gens)
print("|Aut(prism)| =", len(group))

# Certificates order each output bucket, which is what makes generator
# runs byte-for-byte reproducible.
batch = sorted(certificate(delete_vertex(k33, v)) for v in k33.vertices)
print("\nsorted batch is deterministic:", batch == sorted(batch))
