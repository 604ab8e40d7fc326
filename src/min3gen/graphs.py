"""Simple undirected graphs as immutable values.

Vertices are dense integers 0..n-1.  Adjacency is stored as one bitmask per
vertex (bit u of mask v is set when uv is an edge), which keeps copies and
neighbourhood queries cheap at the scales this package targets.  Every edit
returns a fresh Graph; nothing here mutates in place, so graph values can be
shared freely between generation stages.

One composite operation, bridge, is Dawes' bridging of a set of vertices
and edges, the generator's step in both modes: a vertex and an edge (D1),
two edges (D2) or three vertices (D3).  It writes its child's rows once,
as the atomic edits it amounts to (edge subdivision, edge addition) would;
cycles.apply_bridge composes those edits' cycle set rules.  The vertex
split is built from the atomic edits, after an edge deletion.
"""

from __future__ import annotations

import binascii
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalized edge key with endpoints in increasing order."""
    return (u, v) if u < v else (v, u)


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices 0..n-1 with value semantics.

    Equality and hashing are by labeled adjacency, so two Graph values
    compare equal exactly when they have the same vertex count and the same
    edge set.
    """

    __slots__ = ("_adj",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adj = tuple(masks)

    @classmethod
    def _from_masks(cls, masks: Iterable[int]) -> "Graph":
        # Trusted constructor: callers guarantee symmetry and no loops.
        g = object.__new__(cls)
        g._adj = tuple(masks)
        return g

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self._adj) // 2

    @property
    def vertices(self) -> range:
        return range(len(self._adj))

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, in increasing order."""
        out = []
        for u, mask in enumerate(self._adj):
            later = mask >> u + 1 << u + 1
            while later:
                low = later & -later
                later ^= low
                out.append((u, low.bit_length() - 1))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._adj[v]))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbor_mask(self, v: int) -> int:
        """Adjacency row of v as a bitmask (internal representation)."""
        return self._adj[v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


def triangle_bits(masks: tuple[int, ...], order: list[int] | range) -> int:
    """Upper-triangle adjacency bits of the graph relabelled by order.

    New vertex k is old vertex order[k].  Columns j = 1..n-1 are read in
    turn, rows i < j within each, and the first bit read is the most
    significant of the n(n-1)/2.  This is graph6 bit order, and certificates
    use it too; from_triangle_bits inverts it under the identity order.
    """
    acc = 0
    for j in range(1, len(order)):
        mj = masks[order[j]]
        col = 0
        for i in range(j):
            col = (col << 1) | (mj >> order[i] & 1)
        acc = (acc << j) | col
    return acc


# The most vertices graph6's short form, and so a certificate, can hold.
GRAPH6_MAX_N = 62
# base64 packs six bits to a character as graph6 does; graph6 offsets them by 63.
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def graph6_line(n: int, bits: int) -> str:
    """chr(n + 63), then the triangle_bits six to a character, zero-padded:
    the graph6 line of a graph on n <= GRAPH6_MAX_N vertices.  Lines of
    equal n sort as their bits do."""
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form supports at most {GRAPH6_MAX_N} vertices")
    nbits = n * (n - 1) // 2
    chars = (nbits + 5) // 6
    groups = (chars + 3) // 4  # of 24 bits, base64's unit; the rest is padding
    packed = (bits << (24 * groups - nbits)).to_bytes(3 * groups, "big")
    body = binascii.b2a_base64(packed, newline=False).translate(_BASE64_TO_GRAPH6)
    return chr(n + 63) + body[:chars].decode("ascii")


def from_triangle_bits(n: int, bits: int) -> Graph:
    """The graph on n vertices whose triangle_bits are bits."""
    masks = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return Graph._from_masks(masks)


def mask_path(masks: list[int], start: int, target: int, forbidden: int) -> int:
    """The inner vertices, as a mask, of a shortest start..target path over
    bitmask adjacency rows that avoids the forbidden vertex set; -1 when
    there is none.  Start and target must not be forbidden themselves."""
    layers = [1 << start]  # the vertices at each distance from start
    seen = forbidden | layers[0]
    while not layers[-1] >> target & 1:
        nxt, f = 0, layers[-1]
        while f:
            low = f & -f
            f ^= low
            nxt |= masks[low.bit_length() - 1]
        nxt &= ~seen
        if not nxt:
            return -1
        seen |= nxt
        layers.append(nxt)
    # Back from target, one neighbour in each layer between the ends.
    inner, v = 0, target
    for layer in reversed(layers[1:-1]):
        low = layer & masks[v]
        low &= -low
        inner |= low
        v = low.bit_length() - 1
    return inner


def mask_reach(masks: list[int], start: int, within: int) -> int:
    """The vertices of within, as a mask, that bitmask adjacency rows reach
    from start through within, start included."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= masks[low.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _require_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")


def _require_edge(g: Graph, u: int, v: int) -> None:
    _require_vertex(g, u)
    _require_vertex(g, v)
    if u == v or not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) not present")


def _require_set(g: Graph, vertices: Sequence[int], edges: Sequence[Edge]) -> None:
    """Refuse a set that is not one of Dawes' sets of g: distinct vertices
    and edges of g, no vertex an end of an edge."""
    if len(set(vertices)) < len(vertices) or len({edge(*e) for e in edges}) < len(edges):
        raise ValueError("the members of a set must be distinct")
    if any(v in e for v in vertices for e in edges):
        raise ValueError("a vertex of a set must not be an end of a bridged edge")
    for v in vertices:
        _require_vertex(g, v)
    for e in edges:
        _require_edge(g, *e)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g + uv.  Rejects loops and parallel edges."""
    _require_vertex(g, u)
    _require_vertex(g, v)
    if u == v:
        raise ValueError(f"cannot add loop at vertex {u}")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    masks = list(g._adj)
    masks[u] |= 1 << v
    masks[v] |= 1 << u
    return Graph._from_masks(masks)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g - uv.  Both end vertices remain."""
    _require_edge(g, u, v)
    masks = list(g._adj)
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    return Graph._from_masks(masks)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v and its edges; vertices above v shift down to stay dense."""
    _require_vertex(g, v)
    low = (1 << v) - 1
    out = []
    for w in range(g.n):
        if w == v:
            continue
        mask = g._adj[w] & ~(1 << v)
        out.append((mask & low) | (mask >> (v + 1) << v))
    return Graph._from_masks(out)


def subdivide_edge(g: Graph, a: int, b: int) -> tuple[Graph, int]:
    """Replace edge ab by the path a, c, b through a new vertex c = n."""
    _require_edge(g, a, b)
    c = g.n
    masks = list(g._adj)
    masks[a] = (masks[a] & ~(1 << b)) | (1 << c)
    masks[b] = (masks[b] & ~(1 << a)) | (1 << c)
    masks.append((1 << a) | (1 << b))
    return Graph._from_masks(masks), c


def split_vertex(g: Graph, v: int, u: int, w: int) -> tuple[Graph, int]:
    """Split v: a new vertex v' = n takes over the edges vu and vw.

    Edges vu and vw are replaced by v'u and v'w, and the edge vv' is added,
    so v' has degree exactly 3.  Requires deg(v) >= 3 so that v keeps
    degree >= 2 (the stronger deg >= 4 condition that preserves
    3-connectivity is the caller's business).
    """
    if u == w:
        raise ValueError("split targets must be distinct")
    _require_edge(g, v, u)
    _require_edge(g, v, w)
    if g.degree(v) < 3:
        raise ValueError(f"vertex {v} has degree {g.degree(v)} < 3")
    h, vp = subdivide_edge(delete_edge(g, v, w), v, u)
    return add_edge(h, vp, w), vp


def prism() -> Graph:
    """The triangular prism with the fixed labeling used throughout.

    Triangles {0,3,4} and {1,2,5}, joined by the rungs 01, 23, 45.  The
    min3 walk starts from its canonical labelling; cycles.PRISM_CYCLES
    holds the 14 cycles of this one.
    """
    return Graph(
        6,
        [(0, 3), (3, 4), (0, 4), (1, 2), (2, 5), (1, 5), (0, 1), (2, 3), (4, 5)],
    )


def wheel(k: int) -> Graph:
    """Wheel with k rim vertices 0..k-1 and hub k (k+1 vertices, 2k edges)."""
    if k < 3:
        raise ValueError("wheel needs at least 3 rim vertices")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges.extend((i, k) for i in range(k))
    return Graph(k + 1, edges)


def complete_bipartite_3(t: int) -> Graph:
    """K_{3,t}: small class {0,1,2}, large class {3,...,t+2}."""
    if t < 3:
        raise ValueError("complete_bipartite_3 needs t >= 3")
    return Graph(3 + t, [(i, 3 + j) for i in range(3) for j in range(t)])


# Each of Dawes' sets, as its shape (vertex count, edge count), mapped to
# the (n, m) its bridging adds, in the order the generator bridges them.
DAWES_SHAPES = {(1, 1): (1, 2), (3, 0): (1, 3), (0, 2): (2, 3)}


def bridge(g: Graph, vertices: Sequence[int] = (), edges: Sequence[Edge] = ()) -> Graph:
    """Bridge a set of g's vertices and edges (Dawes' operation).

    Each edge of the set is subdivided by a new vertex, numbered n, n + 1,
    ... in the set's order.  The ends, the set's vertices and then those
    new vertices, are joined: two by an edge, three to one more new vertex.
    """
    n = g.n
    ends = (*vertices, *range(n, n + len(edges)))
    if len(ends) not in (2, 3):
        raise ValueError(f"a bridged set has 2 or 3 ends, not {len(ends)}")
    _require_set(g, vertices, edges)
    masks = list(g._adj)
    for c, (a, b) in enumerate(edges, start=n):
        masks[a] ^= 1 << b | 1 << c
        masks[b] ^= 1 << a | 1 << c
        masks.append(1 << a | 1 << b)
    if len(ends) == 2:
        x, y = ends
        if masks[x] >> y & 1:
            raise ValueError(f"edge ({x},{y}) already present")
        masks[x] |= 1 << y
        masks[y] |= 1 << x
    else:
        w = len(masks)
        masks.append(sum(1 << x for x in ends))
        for x in ends:
            masks[x] |= 1 << w
    return Graph._from_masks(masks)
