"""Chording path detection and the 3-compatibility gate.

A chord of a cycle is an edge joining two vertices of the cycle that are
not cyclically adjacent.  A chording path between a and b is a path that
contains a chord st of some cycle, meets that cycle only in s and t, and
uses none of the cycle's own edges.  A set of vertices and edges is
3-compatible when no chording path joins an end of one member to an end
of another in g less the set's edges (Dawes, JCTB 40, 1986), exactly the
condition under which the bridging operations preserve minimal
3-connectivity.

has_chording_path decides one pair on a given cycle set, so no cycle
enumeration happens here; is_3_compatible checks a set, then asks it of
compat_query's endpoint pairs.  This gate is the paper's method; the
generator decides each bridging on the child instead
(io_validate.high_edges_essential), and this gate is the oracle it is held to.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .cycles import CycleSet
from .graphs import DAWES_SHAPES, Edge, Graph, _require_set, mask_path


def _paths(masks: list[int], v: int, s: int, used: int, avoid: int) -> Iterator[int]:
    """Each v..s path off the avoided vertices, as its vertex mask joined to used."""
    if v == s:
        yield used
        return
    m = masks[v] & ~used & ~avoid
    while m:
        low = m & -m
        m ^= low
        yield from _paths(masks, low.bit_length() - 1, s, used | low, avoid)


def has_chording_path(cycles: CycleSet, g: Graph, a: int, b: int, banned: Sequence[Edge] = ()) -> bool:
    """Is there a chording path between a and b in g less the banned edges,
    given g's cycle set?

    A cycle through a banned edge is no cycle of g less them, and a chord
    must still be an edge.  The path is a..s, the chord st, then t..b, and
    meets the cycle only in s and t; so an end on the cycle is the chord's
    end, and a and b swap when only b is on it.  The a..s arm is found by
    DFS off the cycle, the t..b arm by mask_path avoiding that arm and the
    rest of the cycle.  Nothing checks a, b or the ban against g;
    is_3_compatible does that for its callers.
    """
    masks = [g.neighbor_mask(v) for v in g.vertices]
    for u, v in banned:
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
    for cyc in cycles:
        if not all(masks[u] >> v & 1 for u, v in zip(cyc, cyc[1:] + cyc[:1])):
            continue
        cmask = sum(1 << v for v in cyc)
        x, y = (b, a) if cmask >> b & 1 and not cmask >> a & 1 else (a, b)
        for i, s in enumerate(cyc):
            if cmask >> x & 1 and s != x:
                continue
            ts = masks[s] & cmask & ~(1 << cyc[i - 1] | 1 << cyc[(i + 1) % len(cyc)])
            if cmask >> y & 1:
                ts &= 1 << y
            if not ts:
                continue
            for arm in _paths(masks, x, s, 1 << x, cmask & ~(1 << s) | 1 << y):
                if any(ts >> t & 1 and mask_path(masks, t, y, cmask & ~(1 << t) | arm) >= 0 for t in cyc):
                    return True
    return False


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
    end of a member edge.  Once checked, no pair of compat_query may have a
    chording path in g less the set's edges.
    """
    if (len(vertices), len(edges)) not in DAWES_SHAPES:
        raise ValueError(f"{len(vertices)} vertices and {len(edges)} edges are none of Dawes' three shapes")
    _require_set(g, vertices, edges)
    return not any(has_chording_path(cycles, g, a, b, edges) for a, b in compat_query(vertices, edges))
