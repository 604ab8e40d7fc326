"""
Carrying the cycle space through graph edits
============================================

The paper's method never re-enumerates cycles from scratch.  Each edit
has a propagation rule turning the old cycle set into the new one, and
brute force is only an oracle.  min3gen's generator decides each bridging
on the child and carries no cycle set, so these rules are kept as the
method's oracle.  This script shows the rules agreeing with brute force
on the prism.
"""

from min3gen import (
    add_edge,
    apply_add_edge,
    apply_bridge,
    apply_split_vertex,
    apply_subdivide_edge,
    bridge,
    canonical_cycle,
    chords,
    enumerate_cycles_bruteforce,
    extract_pattern,
    prism,
    split_vertex,
    subdivide_edge,
)

g = prism()
cycles = enumerate_cycles_bruteforce(g)
print("prism has", len(cycles), "cycles:")
for cyc in sorted(cycles, key=lambda c: (len(c), c)):
    print("  ", cyc)

# Cycles are tuples in canonical rotation: smallest vertex first, then the
# lexicographically smaller direction.
print("\ncanonical form of 5-4-3-0:", canonical_cycle((5, 4, 3, 0)))

# Adding edge 02 chords some cycles.  Every old cycle survives, and each
# 0..2 path closes into a new cycle through 02.
hexagon = (0, 1, 2, 5, 4, 3)
print("\nchords of", hexagon, "after adding 02:", chords(hexagon, 0, 2))

after_add = apply_add_edge(cycles, 0, 2)
print("propagated cycle count:", len(after_add))
print("matches brute force:", after_add == enumerate_cycles_bruteforce(add_edge(g, 0, 2)))

# Subdividing rung 01 renames both halves of every cycle through 01.
sub, c = subdivide_edge(g, 0, 1)
after_sub = apply_subdivide_edge(cycles, 0, 1, c)
print("\nafter subdividing 01 by", c, ":", len(after_sub), "cycles,",
      "matches brute force:", after_sub == enumerate_cycles_bruteforce(sub))

# The pattern string names how a cycle meets three marked vertices.
print("\npattern of (0,1,5,4,3) at a=1 b=4 c=3:", extract_pattern((0, 1, 5, 4, 3), 1, 4, 3))
print("pattern of (0,1,2,5,4,3) at a=1 b=5 c=3:", extract_pattern((0, 1, 2, 5, 4, 3), 1, 5, 3))

# Splitting vertex 0 so that a new vertex takes its edges to 1 and 3 is an
# edge deletion (03), a subdivision (01) and an edge addition (new vertex
# to 3), so its rule drops the cycles through 03 and applies the other two.
split, x = split_vertex(g, 0, 1, 3)
after_split = apply_split_vertex(cycles, 0, 1, 3, x)
print("\nsplit 0 into 0 and", x, "propagates", len(after_split), "cycles,",
      "matches brute force:", after_split == enumerate_cycles_bruteforce(split))

# Dawes' D1 bridging of vertex 2 and edge 04: 04 is subdivided by the new
# vertex 6, then 2 and 6 are joined, so its rule is a subdivision and then
# an edge addition.
bridged = bridge(g, (2,), ((0, 4),))
after_bridge = apply_bridge(cycles, g.n, (2,), ((0, 4),))
print("\nbridging 2 and 04 propagates", len(after_bridge), "cycles,",
      "matches brute force:", after_bridge == enumerate_cycles_bruteforce(bridged))
