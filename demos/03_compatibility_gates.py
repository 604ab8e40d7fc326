"""
Chording paths and the 3-compatibility gates
============================================

A Dawes operation preserves minimal 3-connectivity exactly when its input
set is 3-compatible, a condition phrased entirely in terms of chording
paths.  That gate is the paper's method: it tests a candidate on the
small graph, given its cycle set.  The generator instead decides each
bridging on the child, whose few edges between vertices of degree 4 or
more must be essential, and carries no cycle set; the gate shown here is
the oracle that child test is held to.
"""

from min3gen import (
    add_edge,
    bridge,
    complete_bipartite_3,
    enumerate_cycles_bruteforce,
    has_chording_path,
    is_3_compatible,
    is_minimally_3_connected,
    prism,
    wheel,
)
from min3gen.io_validate import high_edges_essential

# A chording path contains a chord of some cycle and meets that cycle only
# at the chord's endpoints.  In prism + 02 the path 3-2-5 is one between 3
# and 5: it uses the chord 25 of the cycle (0,2,1,5,4) and meets that cycle
# only at 2 and 5.
# has_chording_path decides it for one pair of ends, given the cycle set.
g = add_edge(prism(), 0, 2)
cycles = enumerate_cycles_bruteforce(g)
print("prism+02: chording path between 3 and 5:", has_chording_path(cycles, g, 3, 5))

# Banned edges model "after this edge is deleted" without rebuilding: a
# cycle through one is dropped, and a banned chord is no chord.
print("same query with edge 01 banned:", has_chording_path(cycles, g, 3, 5, ((0, 1),)))

# is_3_compatible takes a set as its vertices and its edges, checks it
# against the graph, and decides every shape by one rule: no pair of
# compat_query's ends of its members has a chording path once the set's
# edges are banned.

# Gate shape 1: {x, ab} guards bridging vertex x to edge ab (operation D1).
k4 = wheel(3)
k4_cycles = enumerate_cycles_bruteforce(k4)
print("\nK4, {3, 01} 3-compatible:", is_3_compatible(k4_cycles, k4, (3,), ((0, 1),)))
bridged = bridge(k4, (3,), ((0, 1),))
print("D1 result is minimally 3-connected:", is_minimally_3_connected(bridged))

# Gate shape 2: {ab, cd} guards bridging two edges (operation D2).
pr = prism()
pr_cycles = enumerate_cycles_bruteforce(pr)
print("\nprism, {01, 45} 3-compatible:", is_3_compatible(pr_cycles, pr, (), ((0, 1), (4, 5))))
bridged2 = bridge(pr, (), ((0, 1), (4, 5)))
print("D2 result is minimally 3-connected:", is_minimally_3_connected(bridged2))

# Gate shape 3: {x, y, z} guards attaching a new degree-3 vertex (D3).
# One side of K_{3,3} is compatible, and attaching there gives K_{3,4}.
k33 = complete_bipartite_3(3)
k33_cycles = enumerate_cycles_bruteforce(k33)
print("\nK33, {0, 1, 2} 3-compatible:", is_3_compatible(k33_cycles, k33, (0, 1, 2)))
attached = bridge(k33, (0, 1, 2))
print("D3 result is minimally 3-connected:", is_minimally_3_connected(attached))

# The gate verdict always matches the oracle on the applied result, and
# so the generator's child test.  Scan every D1 candidate on W4: each
# compatible set gives a minimally 3-connected bridge, each incompatible
# set does not.
w4 = wheel(4)
w4_cycles = enumerate_cycles_bruteforce(w4)
agree = total = 0
for a, b in w4.edges():
    for x in w4.vertices:
        if x in (a, b):
            continue
        verdict = is_3_compatible(w4_cycles, w4, (x,), ((a, b),))
        result = bridge(w4, (x,), ((a, b),))
        agree += verdict == is_minimally_3_connected(result) == high_edges_essential(result)
        total += 1
print(f"\nW4 D1 candidates: gate agrees with oracle and child test on {agree}/{total}")
