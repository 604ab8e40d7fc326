"""Chording path detection and the 3-compatibility gate.

A chord of a cycle is an edge joining two vertices of the cycle that are
not cyclically adjacent.  A chording path between a and b is a path that
contains a chord uv of some cycle, meets that cycle only in u and v, and
uses none of the cycle's own edges.  A set of vertices and edges is
3-compatible when no chording path joins an end of one member to an end
of another in g less the set's edges (Dawes, JCTB 40, 1986), exactly the
condition under which the bridging operations preserve minimal
3-connectivity.

is_3_compatible is the one checked entry.  It checks the set against g,
then runs two unchecked steps: live_chords, the graph's table for a ban
of edges, then chording_free, the search of compat_query's endpoint pairs
against it.  This gate is the paper's method; the generator decides each
bridging on the child instead (io_validate.high_edges_essential), so the
gate is kept as the oracle that the child test is held to.

All searches run on a given cycle set, so no cycle enumeration happens
here.  compile_cycles turns a cycle set into bitmasks over ordered vertex
pairs, pair uv at bit u*n + v, with an unordered pair setting both of its
bits; row u of such a mask (its bits u*n .. u*n + n-1) is then a vertex
mask like Graph.neighbor_mask(u).  A cycle survives the banned edges when its edge bits miss the ban, and its
live chords are the graph's edge bits within its non-adjacent pair bits.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .cycles import CycleSet
from .graphs import DAWES_SHAPES, Edge, Graph, _require_set, mask_path


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
                if mask_path(masks, t, b, off_cycle_t | used) >= 0:
                    return True
            elif dfs(low.bit_length() - 1, used | low):
                return True
        return False

    return dfs(a, 1 << a)


# The gate's table of a cycle set: for each cycle with a possible chord, its
# vertex mask and the pair bits of its own edges and of its cyclically
# non-adjacent vertex pairs (its possible chords), both orders of each pair.
CompiledCycles = tuple[tuple[int, int, int], ...]


def compile_cycles(cycles: CycleSet, n: int) -> CompiledCycles:
    """The gate's table of a cycle set of a graph on n vertices."""
    table = []
    for cyc in cycles:
        cmask = sum(1 << u for u in cyc)
        own = chords = 0
        for i, u in enumerate(cyc):
            near = 1 << cyc[i - 1] | 1 << cyc[(i + 1) % len(cyc)]
            own |= near << u * n
            chords |= (cmask & ~near & ~(1 << u)) << u * n
        if chords:
            table.append((cmask, own, chords))
    return tuple(table)


class LiveChords(NamedTuple):
    """A gate's table for one ban of edges: the graph's adjacency rows
    less them, and the vertex mask and live chord bits of each compiled
    cycle that avoids them and keeps a live chord."""

    masks: list[int]
    cycles: list[tuple[int, int]]


def live_chords(table: CompiledCycles, g: Graph, banned: tuple[Edge, ...]) -> LiveChords:
    """g's live-chord table for a ban of edges that g has.

    Dropping the cycles through a banned edge leaves those of the
    edge-deleted graph, each kept with the chords that are still edges.
    The table and the ban must belong to g; nothing here checks them, as
    is_3_compatible does before it calls this.
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
    for cmask, own, cycle_chords in table:
        if not own & ban:
            chords = live & cycle_chords
            if chords:
                cycles.append((cmask, chords))
    return LiveChords(masks, cycles)


def chording_free(live: LiveChords, pairs: Iterable[tuple[int, int]]) -> bool:
    """True when no pair of distinct vertices has a chording path in the
    graph of a live-chord table.

    Each pair searches paths only through the chords its endpoints'
    positions on a cycle allow.  The pairs are not checked; is_3_compatible
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
                    if mask_path(masks, low.bit_length() - 1, b, cmask & ~low) >= 0:
                        return False
            elif cmask >> b & 1:
                m = chords >> b * n & row
                while m:
                    low = m & -m
                    m ^= low
                    if mask_path(masks, a, low.bit_length() - 1, cmask & ~low) >= 0:
                        return False
            else:
                m = chords
                while m:
                    low = m & -m
                    m ^= low
                    if _chording_off_cycle(masks, cmask, a, b, *divmod(low.bit_length() - 1, n)):
                        return False
    return True


def compat_query(vertices: Sequence[int], edges: Sequence[Edge]) -> list[tuple[int, int]]:
    """The endpoint pairs that decide a set's 3-compatibility, once its
    edges are banned.

    A vertex is its own end and an edge has two.  The pairs are every two
    ends of two distinct members that differ: {x, ab} gives xa and xb,
    {ab, cd} gives ac, bc, ad and bd less a shared end's, and {x, y, z}
    gives xy, xz and yz.
    """
    members = [(v,) for v in vertices] + list(edges)
    return [(p, q) for m1, m2 in combinations(members, 2) for q in m2 for p in m1 if p != q]


def is_3_compatible(cycles: CycleSet, g: Graph, vertices: Sequence[int] = (), edges: Sequence[Edge] = ()) -> bool:
    """Decide the 3-compatibility of a set of g's vertices and edges, given
    g's cycle set.

    The set must be one of Dawes' three shapes: a vertex and an edge, two
    edges, or three vertices, with distinct members of g and no vertex an
    end of a member edge.  Once checked, live_chords bans the set's edges
    and chording_free searches the pairs of compat_query.
    """
    if (len(vertices), len(edges)) not in DAWES_SHAPES:
        raise ValueError(f"{len(vertices)} vertices and {len(edges)} edges are none of Dawes' three shapes")
    _require_set(g, vertices, edges)
    return chording_free(live_chords(compile_cycles(cycles, g.n), g, tuple(edges)), compat_query(vertices, edges))
