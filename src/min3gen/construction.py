"""McKay's canonical construction path for the cubic walk, and the min3
walk's D1 filter.

The cubic walk makes each 3-connected cubic graph on n + 2 vertices by
bridging two edges ab and cd of one on n: new vertices x on ab and y on
cd, joined by the edge xy (Dawes' D2).  Turned around, a reduction of a
cubic graph deletes an edge xy and smooths x and y, and it is valid when
the result is simple and 3-connected; every 3-connected cubic graph but
K4 has one, and the new edge of a bridging always is one.

canonical_certificate(g) keeps a bridging only when its new edge is g's
canonical reduction up to Aut(g): the valid edge least by a cheap edge
invariant, with the ties among those edges broken by g's canonical
labelling (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998; Brinkmann, Goedgebeur and McKay, "Generation of cubic graphs",
DMTCS 13, 2011).  The canonical reduction is chosen up to isomorphism, so
it gives back one class of parent, and sites taken one per orbit of the
parent's automorphisms give non-isomorphic (child, new edge) pairs; so
every class is kept exactly once, from one orbit representative of one
parent, and only the kept children are certified.

The invariant is compared in stages, each computed only for the edges
still tied with the new edge: the BFS layer sizes around the edge, then
around each end.  The first edge found with a smaller invariant that is a
valid reduction rejects the child.

The min3 walk keeps its shelves as sets of certificates, and
has_smaller_d1_reduction spares it the certificates of most bridgings
that another bridging also reaches.  A D1 reduction of a minimally
3-connected graph C deletes the edge cv at a degree-3 vertex c whose
other neighbours a, b are non-adjacent, then smooths c into the edge ab.
Reductions are ranked by kind, D1 below D2 and D3, then by deg v and the
sorted degrees of a and b, then by the BFS layer sizes around {c, v}.
A bridging is skipped when it has a D1 reduction less than its own that
is proven valid, without a labelling and without the reduced graph's
full validity test.  The graph of a proven reduction is a source of the
walk, which bridges it back into C at the reduction's site.  So when C's
least valid reduction is D1, the bridging that undoes it has no smaller
proven one and is kept; when it is D2 or D3, C has no valid D1 reduction
and no bridging of C is skipped.  Ties and unproven reductions leave
isomorphs, which the shelf's set joins.
"""

from __future__ import annotations

from .canonical import _layer_sizes, canonical, certificate
from .graphs import Graph, _bits, edge, mask_path, mask_reach
from .io_validate import _separated

Rows = tuple[int, ...]  # bitmask adjacency rows


def _ends(mask: int) -> tuple[int, int]:
    """The two vertices of a two-vertex mask, lower first."""
    low = mask & -mask
    return low.bit_length() - 1, (mask ^ low).bit_length() - 1


def _send(out: list[int], inn: list[int], u: int, v: int) -> None:
    """Send one unit of flow along the residual arc u->v of unit-capacity
    edges: out[u] holds the heads of u's residual arcs, inn[v] the tails."""
    if out[v] >> u & 1:  # no flow on uv yet: the arc u->v fills up
        out[u] &= ~(1 << v)
        inn[v] &= ~(1 << u)
    else:  # it cancels flow v->u, which frees the arc v->u
        out[v] |= 1 << u
        inn[u] |= 1 << v


def reduction_is_valid(masks: Rows, x: int, y: int) -> bool:
    """Deleting the edge xy of a 3-connected cubic graph, given by its
    rows, and smoothing x and y leaves a simple 3-connected graph.

    Simple: neither x's two other neighbours a, b nor y's two are adjacent.
    (The pairs cannot be equal, as they would cut x and y off from the
    rest; and on six vertices or more, the double edge an adjacent pair
    leaves is also a 2-edge cut, which the flow would find more slowly.)
    3-connected: for a simple cubic graph that is 3-edge-connected,
    and a cut of fewer than three edges in the reduced graph is a 3-edge
    cut of this one that holds xy and splits the other vertices W.  In the
    graph less xy those are the minimum x-y cuts other than those around x
    and around y, so after two units of x->y flow, each is x with a set T
    of W that no residual arc leaves.  T holds a: else it holds b, and xb
    and T's one cut edge would be a 2-edge cut of this graph.  So the
    reduction is valid exactly when residual arcs within W reach all of W
    from a.
    """
    nx, ny = masks[x] ^ 1 << y, masks[y] ^ 1 << x
    a, b = _ends(nx)
    c, d = _ends(ny)
    if masks[a] >> b & 1 or masks[c] >> d & 1:
        return False
    out = list(masks)
    out[x], out[y] = nx, ny
    inn = out.copy()
    for _ in range(2):
        # A shortest augmenting path by BFS layers, then back from y.
        layers, seen = [1 << x], 1 << x
        while not layers[-1] >> y & 1:
            f, nxt = layers[-1], 0
            while f:
                low = f & -f
                f ^= low
                nxt |= out[low.bit_length() - 1]
            nxt &= ~seen
            seen |= nxt
            layers.append(nxt)
        v = y
        for layer in reversed(layers[:-1]):
            u = layer & inn[v]
            u = (u & -u).bit_length() - 1
            _send(out, inn, u, v)
            v = u
    within = (1 << len(masks)) - 1 ^ (1 << x | 1 << y)
    return mask_reach(out, a, within) == within


def _edge_layers(masks: Rows, x: int, y: int) -> tuple[int, ...]:
    """The BFS layer sizes around the edge xy."""
    return _layer_sizes(masks, 1 << x | 1 << y)


def _end_layers(masks: Rows, x: int, y: int) -> list[tuple[int, ...]]:
    """The BFS layer sizes around each end of the edge xy, the lesser first."""
    return sorted((_layer_sizes(masks, 1 << x), _layer_sizes(masks, 1 << y)))


_STAGES = (_edge_layers, _end_layers)


def canonical_certificate(g: Graph) -> str | None:
    """g's certificate when its new edge, joining its last two vertices,
    is its canonical reduction up to Aut(g); else None.

    g is a bridging of two edges of a 3-connected cubic graph, so the new
    edge is a valid reduction.  Another valid edge with a smaller invariant
    rejects g.  Valid edges tied with the new edge in every stage are
    ranked by their ends' places in g's canonical labelling, and g is kept
    when the least lies in the new edge's orbit under g's automorphisms;
    that labelling's search also gives the certificate.
    """
    n = g.n
    masks = tuple(g.neighbor_mask(v) for v in range(n))
    new = (n - 2, n - 1)
    tied = g.edges()[:-1]  # all but the new edge, the last
    for stage in _STAGES:
        own = stage(masks, *new)
        ties = []
        for e in tied:
            value = stage(masks, *e)
            if value == own:
                ties.append(e)
            elif value < own and reduction_is_valid(masks, *e):
                return None
        tied = ties
    tied = [e for e in tied if reduction_is_valid(masks, *e)]
    if not tied:
        return certificate(g)
    cert, order, gens = canonical(g)
    place = [0] * n
    for k, v in enumerate(order):
        place[v] = k
    least = min([new, *tied], key=lambda e: sorted((place[e[0]], place[e[1]])))
    orbit, todo = {new}, [new]
    while todo:
        a, b = todo.pop()
        for p in gens:
            image = edge(p[a], p[b])
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return cert if least in orbit else None


def _d1_reduction_is_proven(masks: Rows, c: int, v: int, a: int, b: int) -> bool:
    """Deleting the edge cv of a minimally 3-connected graph C, given by its
    rows, and smoothing c, of degree 3 with other neighbours a and b,
    leaves a minimally 3-connected graph P: proven, though a False may
    mean only unproven.  v has degree 4 or more, and a and b are not
    adjacent.

    P is 3-connected when no two vertices separate v from a or v from b in
    it: P less two vertices is C less them, which is connected, less c and
    with ab, so its pieces are at most v's and that of a and b.  Each of
    P's edges but ab is essential, as the 2-separation of C less it, c
    removed, is one of P less it.  So the proof is, for each of a and b
    not adjacent to v, three internally disjoint paths from v, taken
    greedily as shortest paths, and ab essential: an end of degree 3, or a
    2-cut between a and b in P - ab.
    """
    rows = list(masks)
    rows[c] = 0
    rows[v] ^= 1 << c
    rows[a] ^= 1 << c
    rows[b] ^= 1 << c
    if masks[a].bit_count() > 3 and masks[b].bit_count() > 3 and not _separated(rows, a, b, 0, 2):
        return False
    rows[a] |= 1 << b
    rows[b] |= 1 << a
    for end in (a, b):
        if rows[v] >> end & 1:
            continue
        used = 0
        for _ in range(3):
            inner = mask_path(rows, v, end, used)
            if inner < 0:
                return False
            used |= inner
    return True


def has_smaller_d1_reduction(g: Graph, own: int | None) -> bool:
    """Whether g, a minimally 3-connected bridging, has a D1 reduction less
    than its own that is proven valid: its reduced graph P is minimally
    3-connected (_d1_reduction_is_proven), neither a wheel nor on the
    K_{3,t} shelf m' = 3n' - 9, and so a source of the walk, as every
    minimally 3-connected graph with n' >= 6 vertices but those is.

    g's own reduction is D1 at the edge between its last vertex and own,
    or, when own is None, a D2 or D3 one, which every D1 reduction is less
    than.  This assumes each valid parent is on its shelf, as in a fresh
    run or one resumed from a tree a run wrote.
    """
    n = g.n
    masks = tuple(map(g.neighbor_mask, g.vertices))
    deg = [row.bit_count() for row in masks]
    m = sum(deg) // 2
    if m == 3 * n - 10:  # every P lies on the K_{3,t} shelf
        return False
    # P has m - 2 edges; with 2(n - 2) of them, a vertex of degree n - 2
    # makes it a wheel, and only v loses a degree.
    hubs = sum(1 << w for w, d in enumerate(deg) if d == n - 2) if m == 2 * n - 2 else 0
    top, top_layers = (n,), None  # above every D1 key, as deg v < n
    if own is not None:
        a, b = _ends(masks[n - 1] ^ 1 << own)
        top = (deg[own], *sorted((deg[a], deg[b])))
    for c, row in enumerate(masks):
        if deg[c] != 3:
            continue
        for v in _bits(row):
            if deg[v] < 4:
                continue
            a, b = _ends(row ^ 1 << v)
            if masks[a] >> b & 1:
                continue
            if m == 2 * n - 2 and (hubs & ~(1 << v) or deg[v] == n - 1):
                continue
            key = (deg[v], *sorted((deg[a], deg[b])))
            if key > top:
                continue
            if key == top:
                if top_layers is None:
                    top_layers = _layer_sizes(masks, 1 << n - 1 | 1 << own)
                if _layer_sizes(masks, 1 << c | 1 << v) >= top_layers:
                    continue
            if _d1_reduction_is_proven(masks, c, v, a, b):
                return True
    return False
