"""Chording path detection and the 3-compatibility gates.

A chord of a cycle is an edge joining two vertices of the cycle that are
not cyclically adjacent.  A chording path between a and b is a path that
contains a chord uv of some cycle, meets that cycle only in u and v, and
uses none of the cycle's own edges.  The gates below ask whether such paths
exist after deleting a few named edges; their absence is exactly the
condition under which the bridging operations preserve minimal
3-connectivity.

All searches run on the cycle set the pipeline already maintains, so no
cycle enumeration happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .cycles import CycleSet, cycle_edges, cycle_vertex_mask
from .graphs import Edge, Graph, _bits, edge, mask_reachable


@dataclass(frozen=True)
class VertexEdge:
    """A vertex x and an edge ab with x not an endpoint of ab."""

    vertex: int
    edge: Edge


@dataclass(frozen=True)
class EdgePair:
    """Two distinct edges, possibly sharing an endpoint."""

    edge1: Edge
    edge2: Edge


@dataclass(frozen=True)
class VertexTriple:
    """Three distinct vertices."""

    x: int
    y: int
    z: int


CompatSet = Union[VertexEdge, EdgePair, VertexTriple]


def _chording_via(
    masks: list[int], cmask: int, a: int, b: int, s: int, t: int
) -> bool:
    """Is there a path a..s, chord edge st, t..b meeting the cycle only at s, t?

    The cycle is given by its vertex mask; masks describe the graph with the
    banned edges already deleted.  Arms may wander anywhere off the cycle.
    """
    if cmask >> a & 1 and a != s:
        return False
    if cmask >> b & 1 and b != t:
        return False
    off_cycle_t = cmask & ~(1 << t)
    if a == s:
        if b == t:
            return True
        return mask_reachable(masks, t, b, off_cycle_t)
    if b == t:
        return mask_reachable(masks, a, s, cmask & ~(1 << s))
    # Both endpoints lie off the cycle: enumerate the a..s arm, then ask
    # whether b is reachable from t without touching it.
    forbidden1 = (cmask & ~(1 << s)) | (1 << b)

    def dfs(v: int, used: int) -> bool:
        for w in _bits(masks[v] & ~used & ~forbidden1):
            if w == s:
                if mask_reachable(masks, t, b, off_cycle_t | used | (1 << s)):
                    return True
            elif dfs(w, used | (1 << w)):
                return True
        return False

    return dfs(a, 1 << a)


def has_chording_path(
    cycles: CycleSet,
    g: Graph,
    a: int,
    b: int,
    banned: Iterable[Edge] = (),
) -> bool:
    """Does g minus the banned edges contain a chording ab-path?

    The cycle set must belong to g; cycles using a banned edge are ignored,
    which leaves exactly the cycles of the edge-deleted graph.
    """
    if a == b:
        raise ValueError("chording path endpoints must differ")
    for v in (a, b):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    ban = {edge(u, v) for u, v in banned}
    masks = [g.neighbor_mask(v) for v in g.vertices]
    for u, v in ban:
        if not g.has_edge(u, v):
            raise ValueError(f"banned edge ({u},{v}) not present")
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
    for cyc in cycles:
        if ban and not ban.isdisjoint(cycle_edges(cyc)):
            continue
        cmask = cycle_vertex_mask(cyc)
        k = len(cyc)
        for i in range(k):
            u = cyc[i]
            mu = masks[u]
            for j in range(i + 1, k):
                v = cyc[j]
                if not mu >> v & 1:
                    continue
                d = j - i
                if d == 1 or d == k - 1:
                    continue
                # uv chords cyc in the edge-deleted graph.
                if _chording_via(masks, cmask, a, b, u, v):
                    return True
                if _chording_via(masks, cmask, a, b, v, u):
                    return True
    return False


def no_chording_paths(
    cycles: CycleSet,
    g: Graph,
    pairs: Iterable[tuple[int, int]],
    banned: Iterable[Edge] = (),
) -> bool:
    """True when none of the endpoint pairs admits a chording path.

    Pairs are unordered for this purpose; duplicates are checked once.
    A pair with equal endpoints is a usage error.
    """
    ban = tuple(banned)
    seen = set()
    for x, y in pairs:
        if x == y:
            raise ValueError("chording path endpoints must differ")
        key = (x, y) if x < y else (y, x)
        if key in seen:
            continue
        seen.add(key)
        if has_chording_path(cycles, g, x, y, ban):
            return False
    return True


def is_3_compatible(cycles: CycleSet, g: Graph, s: CompatSet) -> bool:
    """Decide 3-compatibility of a vertex/edge, edge/edge, or vertex triple.

    Each variant reduces to chording path checks between fixed endpoint
    pairs after deleting the edges of the set:

    - {x, ab}: no chording xa- or xb-path in g - ab;
    - {ab, cd}: no chording ac-, bc-, ad-, or bd-path in g - {ab, cd}
      (pairs collapsing to a single vertex are vacuous);
    - {x, y, z}: no chording xy-, xz-, or yz-path in g itself.
    """
    if isinstance(s, VertexEdge):
        a, b = s.edge
        if a == b or not g.has_edge(a, b):
            raise ValueError(f"({a},{b}) is not an edge")
        x = s.vertex
        if x == a or x == b:
            raise ValueError("vertex must not be an endpoint of the edge")
        return no_chording_paths(cycles, g, ((x, a), (x, b)), (s.edge,))
    if isinstance(s, EdgePair):
        a, b = s.edge1
        c, d = s.edge2
        for u, v in (s.edge1, s.edge2):
            if u == v or not g.has_edge(u, v):
                raise ValueError(f"({u},{v}) is not an edge")
        if edge(a, b) == edge(c, d):
            raise ValueError("edges must be distinct")
        pairs = [(p, q) for p, q in ((a, c), (b, c), (a, d), (b, d)) if p != q]
        return no_chording_paths(cycles, g, pairs, (s.edge1, s.edge2))
    if isinstance(s, VertexTriple):
        x, y, z = s.x, s.y, s.z
        if len({x, y, z}) != 3:
            raise ValueError("vertices must be distinct")
        return no_chording_paths(cycles, g, ((x, y), (x, z), (y, z)))
    raise TypeError(f"unsupported compatibility set {s!r}")
