"""Chording path detection and the 3-compatibility gates.

A chord of a cycle is an edge joining two vertices of the cycle that are
not cyclically adjacent.  A chording path between a and b is a path that
contains a chord uv of some cycle, meets that cycle only in u and v, and
uses none of the cycle's own edges.  The gates below ask whether such paths
exist after deleting a few named edges; their absence is exactly the
condition under which the bridging operations preserve minimal
3-connectivity.

All searches run on the cycle set the pipeline already maintains, so no
cycle enumeration happens here.  Each cycle set is compiled once into
bitmasks over vertex pairs (pair uv, u < v, is bit v(v-1)/2 + u): a cycle
survives the banned edges when its edge bits miss the ban, and its live
chords are the graph's edge bits within its non-adjacent pair bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Union

from .cycles import CycleSet, cycle_vertex_mask
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
    The caller guarantees that a is off the cycle or equal to s, and that b
    is off the cycle or equal to t.
    """
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


def _edge_index(u: int, v: int) -> int:
    """Bit position of the vertex pair uv in an edge bitmask."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def _index_pair(i: int) -> tuple[int, int]:
    """Inverse of _edge_index, as (u, v) with u < v."""
    v = (isqrt(8 * i + 1) + 1) // 2
    return i - v * (v - 1) // 2, v


def _star(a: int, n: int) -> int:
    """Bits of every vertex pair ax with x < n."""
    star = ((1 << a) - 1) << _edge_index(0, a)
    for x in range(a + 1, n):
        star |= 1 << _edge_index(a, x)
    return star


@lru_cache(maxsize=128)
def _compile(cycles: CycleSet) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Three parallel columns over the cycles that have a possible chord:
    the vertex mask, the bits of the cycle's own edges, and the bits of its
    cyclically non-adjacent vertex pairs (its possible chords)."""
    vertex_masks, edge_bits, chord_bits = [], [], []
    for cyc in cycles:
        k = len(cyc)
        own = chords = 0
        for i in range(k):
            u = cyc[i]
            for j in range(i + 1, k):
                v = cyc[j]
                bit = 1 << _edge_index(u, v)
                if j == i + 1 or (i == 0 and j == k - 1):
                    own |= bit
                else:
                    chords |= bit
        if chords:
            vertex_masks.append(cycle_vertex_mask(cyc))
            edge_bits.append(own)
            chord_bits.append(chords)
    return tuple(vertex_masks), tuple(edge_bits), tuple(chord_bits)


def _any_chording_path(
    cycles: CycleSet,
    g: Graph,
    pairs: Iterable[tuple[int, int]],
    banned: Iterable[Edge],
) -> bool:
    """Does g minus the banned edges contain a chording path for some pair?

    The graph, the banned edges and the compiled cycle set are reduced
    once to the cycles avoiding the ban, each with its live chord bits;
    each endpoint pair then runs path searches only through the chords
    that its endpoints' positions on the cycle allow.
    """
    ends: dict[tuple[int, int], None] = {}
    for a, b in pairs:
        if a == b:
            raise ValueError("chording path endpoints must differ")
        for v in (a, b):
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range for n={g.n}")
        ends[(a, b) if a < b else (b, a)] = None
    masks = [g.neighbor_mask(v) for v in g.vertices]
    ban = 0
    for u, v in banned:
        if not g.has_edge(u, v):
            raise ValueError(f"banned edge ({u},{v}) not present")
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        ban |= 1 << _edge_index(u, v)
    live = 0
    for v, row in enumerate(masks):
        for u in _bits(row & ((1 << v) - 1)):
            live |= 1 << _edge_index(u, v)
    # Cycles that avoid the ban, each with the bits of its live chords.
    table = []
    for cmask, own, cycle_chords in zip(*_compile(cycles)):
        if not own & ban:
            chords = live & cycle_chords
            if chords:
                table.append((cmask, chords))
    for a, b in ends:
        ab = 1 << _edge_index(a, b)
        star_a = _star(a, g.n)
        star_b = _star(b, g.n)
        for cmask, chords in table:
            # A chord st can only serve if a is off the cycle or a == s,
            # and b is off the cycle or b == t.
            if cmask >> a & 1:
                if cmask >> b & 1:
                    if chords & ab:
                        return True
                    continue
                for i in _bits(chords & star_a):
                    u, v = _index_pair(i)
                    if _chording_via(masks, cmask, a, b, a, v if u == a else u):
                        return True
            elif cmask >> b & 1:
                for i in _bits(chords & star_b):
                    u, v = _index_pair(i)
                    if _chording_via(masks, cmask, a, b, v if u == b else u, b):
                        return True
            else:
                for i in _bits(chords):
                    u, v = _index_pair(i)
                    if _chording_via(masks, cmask, a, b, u, v) or _chording_via(
                        masks, cmask, a, b, v, u
                    ):
                        return True
    return False


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
    return _any_chording_path(cycles, g, ((a, b),), banned)


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
    return not _any_chording_path(cycles, g, pairs, banned)


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
