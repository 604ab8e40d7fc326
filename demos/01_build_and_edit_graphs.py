"""
Immutable graphs and the edit operations
========================================

Every generator step is built from a handful of small graph edits.  This
script builds the named starting graphs and walks each edit once.
"""

from min3gen import (
    Graph,
    add_edge,
    bridge,
    complete_bipartite_3,
    delete_edge,
    prism,
    split_vertex,
    subdivide_edge,
    wheel,
)

# A graph is (vertex count, edge list); vertices are 0..n-1, edges dedup.
g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
print("graph:", g)
print("n =", g.n, " m =", g.m, " degrees =", [g.degree(v) for v in g.vertices])
print("neighbors of 0:", g.neighbors(0))

# Graphs are values: edits return new graphs, inputs never change.
h = add_edge(g, 1, 3)
print("\nafter add_edge(1,3):", h.edges())
print("original unchanged:  ", g.edges())
print("delete_edge undoes it:", delete_edge(h, 1, 3) == g)

# Subdividing edge 02 inserts a new degree-2 vertex, always numbered n.
sub, c = subdivide_edge(g, 0, 2)
print("\nsubdivide_edge(0,2) adds vertex", c, "with neighbors", sub.neighbors(c))

# Splitting vertex 0 moves neighbors 2 and 3 to a fresh vertex 0',
# keeps 1 on the old side, and joins the halves by a new edge.
split, vp = split_vertex(g, 0, 2, 3)
print("split_vertex(0; 2, 3) gives", vp, "adjacent to", split.neighbors(vp))

# The three named seeds of the generator.
print("\nprism:", prism().edges())
print("wheel(5):", wheel(5).edges())
print("K_{3,3}:", complete_bipartite_3(3).edges())

# Dawes' bridging, the recursion's one move: each edge of the set is
# subdivided by a new vertex, numbered from n, and the set's ends are
# joined, two by an edge, three to one more new vertex.
k4 = wheel(3)
w4 = bridge(k4, (3,), ((0, 1),))
print("\nbridge vertex 3 and edge 01 in K4: new vertex", k4.n, "->", w4.edges())

pr = bridge(k4, (), ((0, 1), (2, 3)))
print("bridge edges 01 and 23 in K4: new vertices", (k4.n, k4.n + 1), "->", pr.edges())
