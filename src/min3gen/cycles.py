"""Cycles as canonical vertex tuples, and cycle set propagation.

The paper's method never re-enumerates the cycles of a graph it builds:
each graph operation (edge addition, edge subdivision, vertex split) is
paired with a rewrite that maps the parent's cycle set to the child's, and
Dawes' bridging's rule, apply_bridge, composes the first two; a split is
built from the other two as well.  The generator decides each bridging
on the child and carries no cycle set, so these rules, and the compat
gate that reads their sets, are the method's oracle, tested against the
brute-force enumerator here.

A cycle is stored as a tuple of vertices in canonical rotation: minimum
vertex first, then the lexicographically smaller of the two directions.
A cycle set is a frozenset of such tuples.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Edge, Graph, mask_path, prism

Cycle = tuple[int, ...]
CycleSet = frozenset[Cycle]

DIAMOND = "◇"
TRIANGLE = "△"
SQUARE = "□"


def canonical_cycle(vertices: Sequence[int]) -> Cycle:
    """Canonical rotation of a cyclic vertex sequence.

    Rotates the minimum vertex to the front, then keeps the direction whose
    tuple is lexicographically smaller.  Idempotent.
    """
    t = tuple(vertices)
    if len(t) < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {t!r}")
    if len(set(t)) != len(t):
        raise ValueError(f"repeated vertex in cycle {t!r}")
    k = t.index(min(t))
    fwd = t[k:] + t[:k]
    rev = fwd[:1] + fwd[:0:-1]
    return min(fwd, rev)


def _edge_index(cycle: Cycle, u: int, v: int) -> int:
    """The i with uv = cycle[i], cycle[i + 1] (cyclically): uv is one of the
    cycle's edges, not merely a chord.  -1 when there is none."""
    k = len(cycle)
    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        if (a == u and b == v) or (a == v and b == u):
            return i
    return -1


def enumerate_cycles_bruteforce(g: Graph) -> CycleSet:
    """All cycles of g by exhaustive path search.

    Grows simple paths from each start vertex s using only vertices larger
    than s, closing back to s.  Each cycle is found exactly once, already
    in canonical rotation.  Exponential; meant for oracle duty and seeds,
    not for production-sized inputs.
    """
    out: set[Cycle] = set()

    def walk(start: int, v: int, visited: int, path: list[int]) -> None:
        for w in g.neighbors(v):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    out.add(tuple(path))
            elif w > start and not visited >> w & 1:
                path.append(w)
                walk(start, w, visited | (1 << w), path)
                path.pop()

    for s in g.vertices:
        walk(s, s, 1 << s, [s])
    return frozenset(out)


# prism()'s 14 cycles, the seed set of the paper's walk.
PRISM_CYCLES: CycleSet = enumerate_cycles_bruteforce(prism())


def chords(cycle: Cycle, u: int, v: int) -> bool:
    """True when u and v both lie on the cycle and are not cyclically adjacent.

    Whether uv is an actual edge is the caller's concern; this is the purely
    positional half of the chord test.
    """
    if u == v:
        return False
    try:
        i = cycle.index(u)
        j = cycle.index(v)
    except ValueError:
        return False
    d = (i - j) % len(cycle)
    return d != 1 and d != len(cycle) - 1


def apply_add_edge(cycles: CycleSet, a: int, b: int) -> CycleSet:
    """Cycle set after adding edge ab to a 2-connected graph.

    Every old cycle survives, and the cycles through the new edge are
    exactly P + ab for the simple a..b paths P of the old graph.  Splitting
    the cycles that ab chords yields only the paths that happen to be arcs
    of old cycles; paths that visit too much of the graph to leave room for
    a return arc (a Hamiltonian path, say) have no such parent, so the
    paths are enumerated directly instead.  The graph is recovered from the
    cycle set itself: 2-connectivity puts every edge on a cycle.

    Cost is output-sensitive: the path search prunes branches that can no
    longer reach b, so work is proportional to the cycles produced.
    """
    out = set(cycles)
    adj: dict[int, int] = {}
    for cyc in cycles:
        k = len(cyc)
        for i in range(k):
            u, v = cyc[i], cyc[(i + 1) % k]
            adj[u] = adj.get(u, 0) | (1 << v)
            adj[v] = adj.get(v, 0) | (1 << u)
    if a not in adj or b not in adj:
        return frozenset(out)
    masks = [adj.get(v, 0) for v in range(max(adj) + 1)]

    def dfs(v: int, used: int, path: tuple[int, ...]) -> None:
        candidates = masks[v] & ~used
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            if w == b:
                out.add(canonical_cycle(path + (b,)))
            elif mask_path(masks, w, b, used) >= 0:
                dfs(w, used | low, path + (w,))

    dfs(a, 1 << a, (a,))
    return frozenset(out)


def apply_subdivide_edge(cycles: CycleSet, a: int, b: int, c: int) -> CycleSet:
    """Cycle set after subdividing edge ab by the new vertex c.

    Cycles through ab get c spliced between a and b; all others survive
    unchanged.  Cycle counts are preserved.
    """
    out = set()
    for cyc in cycles:
        i = _edge_index(cyc, a, b)
        out.add(cyc if i < 0 else canonical_cycle(cyc[: i + 1] + (c,) + cyc[i + 1 :]))
    return frozenset(out)


def apply_split_vertex(cycles: CycleSet, v: int, u: int, w: int, x: int) -> CycleSet:
    """Cycle set after splitting v so that the new vertex x takes u and w.

    The split graph is (g - vw) with vu subdivided by x, plus the edge xw:
    the cycles through vw are dropped, then the subdivision and the edge
    addition rules apply.  Precondition: every edge of g - vw lies on a
    cycle, which holds when g is 3-connected; apply_add_edge reads the
    graph off the cycle set.  The cycle set of g - vw itself may be given
    in place of g's, with the same result.
    """
    kept = frozenset(cyc for cyc in cycles if _edge_index(cyc, v, w) < 0)
    return apply_add_edge(apply_subdivide_edge(kept, v, u, x), x, w)


def apply_bridge(cycles: CycleSet, n: int, vertices: Sequence[int] = (), edges: Sequence[Edge] = ()) -> CycleSet:
    """Cycle set after graphs.bridge(g, vertices, edges), g on n vertices:
    edge i subdivided by n + i, then ends x, y joined by adding xy, and
    x, y, z by adding xy, subdividing it by w = n + len(edges), adding wz.
    Needs every edge of g on a cycle, and the vertices pairwise non-adjacent."""
    for i, (a, b) in enumerate(edges):
        cycles = apply_subdivide_edge(cycles, a, b, n + i)
    w = n + len(edges)
    x, y, *z = (*vertices, *range(n, w))
    cycles = apply_add_edge(cycles, x, y)
    return apply_add_edge(apply_subdivide_edge(cycles, x, y, w), w, *z) if z else cycles


def extract_pattern(cycle: Cycle, a: int, b: int, c: int) -> str:
    """Describe how a cycle meets the vertices a, b, c.

    Rotates the cycle so that a comes first (or b if a is absent, or c if
    both are absent), writes the marked vertices as letters, and compresses
    each maximal run of other vertices into one filler token, diamond first,
    then triangle, then square.  At least two of a, b, c must lie on the
    cycle.
    """
    if len({a, b, c}) != 3:
        raise ValueError("pattern vertices must be distinct")
    names = {a: "a", b: "b", c: "c"}
    present = [v for v in (a, b, c) if v in cycle]
    if len(present) < 2:
        raise ValueError(f"cycle {cycle!r} contains fewer than two of a, b, c")
    i = cycle.index(present[0])
    rot = cycle[i:] + cycle[:i]
    fillers = iter((DIAMOND, TRIANGLE, SQUARE))
    tokens: list[str] = []
    in_run = False
    for v in rot:
        if v in names:
            tokens.append(names[v])
            in_run = False
        elif not in_run:
            tokens.append(next(fillers))
            in_run = True
    return "".join(tokens)
