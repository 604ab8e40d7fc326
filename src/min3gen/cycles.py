"""Cycles as canonical vertex tuples, and cycle set propagation.

The generator never re-enumerates cycles from scratch: each graph operation
(edge addition, edge subdivision, edge flip) is paired with a rewrite that
maps the parent's cycle set to the child's.  The brute-force enumerator
here is the independent oracle those rewrites are tested against, and is
also used to seed the pipeline.

A cycle is stored as a tuple of vertices in canonical rotation: minimum
vertex first, then the lexicographically smaller of the two directions.
A cycle set is a frozenset of such tuples.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, mask_reachable

Cycle = tuple[int, ...]
CycleSet = frozenset[Cycle]

DIAMOND = "◇"
TRIANGLE = "△"
SQUARE = "□"


class PatternError(RuntimeError):
    """An edge flip met a cycle shape its case analysis rules out.

    Raised when the cycle set under rewrite cannot belong to a graph
    satisfying the flip preconditions (edges ab, bc present, ac absent).
    It signals corrupted pipeline state, not a usage error.
    """


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


def cycle_vertex_mask(cycle: Cycle) -> int:
    mask = 0
    for v in cycle:
        mask |= 1 << v
    return mask


def cycle_uses_edge(cycle: Cycle, u: int, v: int) -> bool:
    """True when uv is one of the cycle's edges (not merely a chord)."""
    k = len(cycle)
    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        if (a == u and b == v) or (a == v and b == u):
            return True
    return False


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


def chord_cycle(cycle: Cycle, v1: int, v2: int) -> tuple[Cycle, Cycle]:
    """Split a cycle along the chord v1 v2 into its two subcycles.

    Returns (outer, inner) where inner is the v1..v2 arc closed by the
    chord and outer is the v2..v1 arc closed by the chord, both canonical.
    """
    if not chords(cycle, v1, v2):
        raise ValueError(f"({v1},{v2}) does not chord cycle {cycle!r}")
    i = cycle.index(v1)
    rot = cycle[i:] + cycle[:i]
    j = rot.index(v2)
    inner = rot[: j + 1]
    outer = rot[j:] + (v1,)
    return canonical_cycle(outer), canonical_cycle(inner)


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
            elif mask_reachable(masks, w, b, used):
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
        k = len(cyc)
        for i in range(k):
            u, w = cyc[i], cyc[(i + 1) % k]
            if (u == a and w == b) or (u == b and w == a):
                out.add(canonical_cycle(cyc[: i + 1] + (c,) + cyc[i + 1 :]))
                break
        else:
            out.add(cyc)
    return frozenset(out)


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


def _orient_path(cycle: Cycle, x: int, y: int) -> Cycle:
    """Rotate a cycle that uses edge xy into the path x..y avoiding that edge."""
    i = cycle.index(x)
    rot = cycle[i:] + cycle[:i]
    if rot[1] == y:
        rot = rot[:1] + rot[:0:-1]
    if rot[-1] != y:
        raise ValueError(f"cycle {cycle!r} does not use edge ({x},{y})")
    return rot


def _drop_vertex(cycle: Cycle, v: int) -> Cycle:
    return tuple(w for w in cycle if w != v)


def _insert_between(cycle: Cycle, a: int, b: int, c: int) -> Cycle:
    k = len(cycle)
    for i in range(k):
        u, w = cycle[i], cycle[(i + 1) % k]
        if (u == a and w == b) or (u == b and w == a):
            return cycle[: i + 1] + (c,) + cycle[i + 1 :]
    raise ValueError(f"cycle {cycle!r} does not use edge ({a},{b})")


def apply_flip_edge(cycles: CycleSet, a: int, b: int, c: int) -> CycleSet:
    """Cycle set after removing edge ab and adding edge ac.

    Preconditions on the underlying graph: ab and bc are edges, ac is not.
    Every cycle of the new graph either avoids ac (it survives unchanged
    from the old set) or is P + ac for an a..c path P avoiding ab.  Each
    old cycle through ab is rewritten by where c sits on it:

    - c cyclically adjacent to b: b now hangs off the cycle, splice it out;
    - c absent: the new path a, c, b replaces the lost edge ab;
    - c elsewhere on the cycle: cutting ab leaves the path b..c..a, which
      closes into two cycles, b..c by the edge cb and c..a by the new ac.

    Old cycles through a and c but not b gain their two ac-chord subcycles.
    Finally a cycle through ab (c absent) and a cycle through bc (a absent)
    that share only the vertex b merge into one cycle through ac.  A cycle
    with a and c cyclically adjacent is impossible under the preconditions
    and raises PatternError.
    """
    if len({a, b, c}) != 3:
        raise ValueError("flip vertices must be distinct")
    out: set[Cycle] = set()
    # Paths kept for the merge step, oriented a..b and b..c.
    ab_paths: list[Cycle] = []
    bc_paths: list[Cycle] = []
    for cyc in cycles:
        has_a = a in cyc
        has_b = b in cyc
        has_c = c in cyc
        if has_a and has_c and not chords(cyc, a, c):
            raise PatternError(
                f"cycle {cyc!r} has {a} and {c} adjacent, impossible without edge ({a},{c})"
            )
        if has_a and has_b and cycle_uses_edge(cyc, a, b):
            if has_c and cycle_uses_edge(cyc, b, c):
                # b's cycle neighbours are exactly a and c; ac closes the gap.
                out.add(canonical_cycle(_drop_vertex(cyc, b)))
            elif not has_c:
                out.add(canonical_cycle(_insert_between(cyc, a, b, c)))
                ab_paths.append(_orient_path(cyc, a, b))
            else:
                path = _orient_path(cyc, b, a)
                j = path.index(c)
                out.add(canonical_cycle(path[: j + 1]))
                out.add(canonical_cycle(path[j:]))
        else:
            out.add(cyc)
            if has_a and has_c and not has_b:
                half1, half2 = chord_cycle(cyc, a, c)
                out.add(half1)
                out.add(half2)
        if has_b and has_c and not has_a and cycle_uses_edge(cyc, b, c):
            bc_paths.append(_orient_path(cyc, b, c))
    for p1 in ab_paths:
        mask1 = cycle_vertex_mask(p1)
        for p2 in bc_paths:
            if mask1 & cycle_vertex_mask(p2) == 1 << b:
                # p1 ends at b, p2 starts there; ac closes the concatenation.
                out.add(canonical_cycle(p1 + p2[1:]))
    return frozenset(out)
