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
many gates of one graph compiles its set once and passes the table; one
that asks many gates of one ban builds its live_chords table once and
asks chording_free of each gate's pairs.  Only no_chording_paths checks
its arguments.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .cycles import CycleSet, cycle_vertex_mask
from .graphs import DAWES_SHAPES, Edge, Graph, _require_vertex, edge, mask_reachable


def _chording_off_cycle(
    masks: list[int], cmask: int, a: int, b: int, s: int, t: int
) -> bool:
    """Is there a path a..s, chord edge st, t..b meeting the cycle only at s, t?

    The cycle is given by its vertex mask; masks describe the graph with the
    banned edges already deleted.  a and b lie off the cycle, and the arms
    may wander anywhere off it: enumerate the a..s arm, then ask whether b
    is reachable from t without touching that arm or the rest of the cycle.
    """
    sbit = 1 << s
    off_cycle_t = cmask & ~(1 << t)
    forbidden1 = (cmask & ~sbit) | (1 << b)

    def dfs(v: int, used: int) -> bool:
        m = masks[v] & ~used & ~forbidden1
        while m:
            low = m & -m
            m ^= low
            if low == sbit:
                if mask_reachable(masks, t, b, off_cycle_t | used):
                    return True
            elif dfs(low.bit_length() - 1, used | low):
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


class LiveChords(NamedTuple):
    """A gate's table for one ban: the banned edges, the graph's adjacency
    rows less them, and the vertex mask and live chord bits of each
    compiled cycle that avoids them and keeps a live chord."""

    banned: tuple[Edge, ...]
    masks: list[int]
    cycles: list[tuple[int, int]]


def live_chords(table: CompiledCycles, g: Graph, banned: tuple[Edge, ...]) -> LiveChords:
    """g's live-chord table for a ban of edges that g has.

    Dropping the cycles through a banned edge leaves those of the
    edge-deleted graph, each kept with the chords that are still edges.
    The table and the ban must belong to g; nothing here checks them, as
    no_chording_paths does before it calls this.
    """
    n = g.n
    masks = [g.neighbor_mask(v) for v in g.vertices]
    ban = 0
    for u, v in banned:
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        ban |= 1 << u * n + v
    live = sum(row << v * n for v, row in enumerate(masks))
    cycles = []
    for cmask, own, cycle_chords in zip(table.vertex_masks, table.edge_bits, table.chord_bits):
        if not own & ban:
            chords = live & cycle_chords
            if chords:
                cycles.append((cmask, chords))
    return LiveChords(banned, masks, cycles)


def chording_free(live: LiveChords, pairs: Iterable[tuple[int, int]]) -> bool:
    """True when no pair of distinct vertices has a chording path in the
    graph of a live-chord table.

    Each pair searches paths only through the chords its endpoints'
    positions on a cycle allow.  The pairs are not checked; no_chording_paths
    does that for its callers.
    """
    masks, table = live.masks, live.cycles
    n = len(masks)
    row = (1 << n) - 1
    for a, b in pairs:
        for cmask, chords in table:
            # A chord st can only serve if a is off the cycle or a == s,
            # and b is off the cycle or b == t.
            if cmask >> a & 1:
                if cmask >> b & 1:
                    if chords >> a * n + b & 1:
                        return False
                    continue
                m = chords >> a * n & row
                while m:
                    low = m & -m
                    m ^= low
                    if mask_reachable(masks, low.bit_length() - 1, b, cmask & ~low):
                        return False
            elif cmask >> b & 1:
                m = chords >> b * n & row
                while m:
                    low = m & -m
                    m ^= low
                    if mask_reachable(masks, a, low.bit_length() - 1, cmask & ~low):
                        return False
            else:
                m = chords
                while m:
                    low = m & -m
                    m ^= low
                    if _chording_off_cycle(masks, cmask, a, b, *divmod(low.bit_length() - 1, n)):
                        return False
    return True


def no_chording_paths(
    cycles: CycleSet | CompiledCycles,
    g: Graph,
    pairs: Iterable[tuple[int, int]],
    banned: Iterable[Edge] = (),
) -> bool:
    """True when no endpoint pair has a chording path in g minus the banned edges.

    Pairs are unordered; duplicates are checked once, and equal endpoints
    are a usage error, as are a vertex outside g and a banned edge that g
    lacks.  The cycle set, or its compile_cycles table, must belong to g.
    Once checked, the gate is live_chords then chording_free.
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
    banned = tuple(banned)
    for u, v in banned:
        _require_vertex(g, u)
        _require_vertex(g, v)
        if not g.has_edge(u, v):
            raise ValueError(f"banned edge ({u},{v}) not present")
    return chording_free(live_chords(cycles, g, banned), ends)


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
