"""Chording path detection and the 3-compatibility gates.

A chord of a cycle is an edge joining two vertices of the cycle that are
not cyclically adjacent.  A chording path between a and b is a path that
contains a chord uv of some cycle, meets that cycle only in u and v, and
uses none of the cycle's own edges.  A set of vertices and edges is
3-compatible when no chording path joins an end of one member to an end
of another in g less the set's edges (Dawes, JCTB 40, 1986), exactly the
condition under which the bridging operations preserve minimal
3-connectivity.

All searches run on the cycle set the pipeline already maintains, so no
cycle enumeration happens here.  A cycle set is compiled into bitmasks
over ordered vertex pairs, pair uv at bit u*n + v, with an unordered pair
setting both of its bits; row u of such a mask (its bits u*n .. u*n + n-1)
is then a vertex mask like Graph.neighbor_mask(u).  A cycle survives the
banned edges when its edge bits miss the ban, and its live chords are the
graph's edge bits within its non-adjacent pair bits.  A caller that asks
many gates of one graph compiles its set once and passes the table.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .cycles import CycleSet, cycle_vertex_mask
from .graphs import DAWES_SHAPES, Edge, Graph, _bits, _require_vertex, edge, mask_reachable


def _chording_off_cycle(
    masks: list[int], cmask: int, a: int, b: int, s: int, t: int
) -> bool:
    """Is there a path a..s, chord edge st, t..b meeting the cycle only at s, t?

    The cycle is given by its vertex mask; masks describe the graph with the
    banned edges already deleted.  a and b lie off the cycle, and the arms
    may wander anywhere off it: enumerate the a..s arm, then ask whether b
    is reachable from t without touching that arm or the rest of the cycle.
    """
    off_cycle_t = cmask & ~(1 << t)
    forbidden1 = (cmask & ~(1 << s)) | (1 << b)

    def dfs(v: int, used: int) -> bool:
        for w in _bits(masks[v] & ~used & ~forbidden1):
            if w == s:
                if mask_reachable(masks, t, b, off_cycle_t | used):
                    return True
            elif dfs(w, used | (1 << w)):
                return True
        return False

    return dfs(a, 1 << a)


class CompiledCycles(NamedTuple):
    """The order n of the graph, then three parallel columns over the cycles
    of a set that have a possible chord: the vertex mask, the pair bits of
    the cycle's own edges, and the pair bits of its cyclically non-adjacent
    vertex pairs (its possible chords), both orders of each pair set."""

    n: int
    vertex_masks: tuple[int, ...]
    edge_bits: tuple[int, ...]
    chord_bits: tuple[int, ...]


def compile_cycles(cycles: CycleSet, n: int) -> CompiledCycles:
    """The gate's table of a cycle set of a graph on n vertices;
    no_chording_paths takes either."""
    vertex_masks, edge_bits, chord_bits = [], [], []
    for cyc in cycles:
        cmask = cycle_vertex_mask(cyc)
        own = chords = 0
        for i, u in enumerate(cyc):
            near = 1 << cyc[i - 1] | 1 << cyc[(i + 1) % len(cyc)]
            own |= near << u * n
            chords |= (cmask & ~near & ~(1 << u)) << u * n
        if chords:
            vertex_masks.append(cmask)
            edge_bits.append(own)
            chord_bits.append(chords)
    return CompiledCycles(n, tuple(vertex_masks), tuple(edge_bits), tuple(chord_bits))


def no_chording_paths(
    cycles: CycleSet | CompiledCycles,
    g: Graph,
    pairs: Iterable[tuple[int, int]],
    banned: Iterable[Edge] = (),
) -> bool:
    """True when no endpoint pair has a chording path in g minus the banned edges.

    Pairs are unordered; duplicates are checked once, and equal endpoints
    are a usage error.  The cycle set, or its compile_cycles table, must
    belong to g; dropping the cycles through a banned edge leaves those of
    the edge-deleted graph, each kept with its live chord bits.  Each pair
    then searches paths only through the chords its endpoints' positions
    on the cycle allow.
    """
    n = g.n
    if not isinstance(cycles, CompiledCycles):
        cycles = compile_cycles(cycles, n)
    elif cycles.n != n:
        raise ValueError(f"cycle table compiled for n={cycles.n}, not n={n}")
    ends: dict[tuple[int, int], None] = {}
    for a, b in pairs:
        if a == b:
            raise ValueError("chording path endpoints must differ")
        _require_vertex(g, a)
        _require_vertex(g, b)
        ends[(a, b) if a < b else (b, a)] = None
    masks = [g.neighbor_mask(v) for v in g.vertices]
    ban = 0
    for u, v in banned:
        _require_vertex(g, u)
        _require_vertex(g, v)
        if not g.has_edge(u, v):
            raise ValueError(f"banned edge ({u},{v}) not present")
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        ban |= 1 << u * n + v
    live = sum(row << v * n for v, row in enumerate(masks))
    # Cycles that avoid the ban, each with the bits of its live chords.
    table = []
    for cmask, own, cycle_chords in zip(cycles.vertex_masks, cycles.edge_bits, cycles.chord_bits):
        if not own & ban:
            chords = live & cycle_chords
            if chords:
                table.append((cmask, chords))
    row = (1 << n) - 1
    for a, b in ends:
        for cmask, chords in table:
            # A chord st can only serve if a is off the cycle or a == s,
            # and b is off the cycle or b == t.
            if cmask >> a & 1:
                if cmask >> b & 1:
                    if chords >> a * n + b & 1:
                        return False
                    continue
                for t in _bits(chords >> a * n & row):
                    if mask_reachable(masks, t, b, cmask & ~(1 << t)):
                        return False
            elif cmask >> b & 1:
                for s in _bits(chords >> b * n & row):
                    if mask_reachable(masks, a, s, cmask & ~(1 << s)):
                        return False
            else:
                for i in _bits(chords):
                    if _chording_off_cycle(masks, cmask, a, b, *divmod(i, n)):
                        return False
    return True


def compat_query(vertices: Sequence[int], edges: Sequence[Edge]) -> tuple[list[tuple[int, int]], tuple[Edge, ...]]:
    """The endpoint pairs and banned edges that decide a set's 3-compatibility.

    A vertex is its own end and an edge has two.  The pairs are every two
    ends of two distinct members that differ: {x, ab} gives xa and xb,
    {ab, cd} gives ac, bc, ad and bd less a shared end's, and {x, y, z}
    gives xy, xz and yz.  The banned edges are the set's edges.
    """
    members = [(v,) for v in vertices] + list(edges)
    pairs = [(p, q) for m1, m2 in combinations(members, 2) for q in m2 for p in m1 if p != q]
    return pairs, tuple(edges)


def is_3_compatible(cycles: CycleSet, g: Graph, vertices: Sequence[int] = (), edges: Sequence[Edge] = ()) -> bool:
    """Decide the 3-compatibility of a set of g's vertices and edges.

    The set must be one of Dawes' three shapes: a vertex and an edge, two
    edges, or three vertices, with distinct members and no vertex an end of
    a member edge.  compat_query reduces it to chording path checks, as it
    does for the generator's bridgings.
    """
    if (len(vertices), len(edges)) not in DAWES_SHAPES:
        raise ValueError(f"{len(vertices)} vertices and {len(edges)} edges are none of Dawes' three shapes")
    if len(set(vertices)) < len(vertices) or len({edge(*e) for e in edges}) < len(edges):
        raise ValueError("the members of a compatibility set must be distinct")
    if any(v in e for v in vertices for e in edges):
        raise ValueError("a vertex of a compatibility set must not be an end of its edge")
    # no_chording_paths rejects a banned edge that g lacks.
    return no_chording_paths(cycles, g, *compat_query(vertices, edges))
