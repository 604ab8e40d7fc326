"""Graph value type and the atomic edit operations."""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import permuted_copy, random_graph
from min3gen import (
    Graph,
    add_edge,
    bridge,
    certificate,
    complete_bipartite_3,
    delete_edge,
    delete_vertex,
    edge,
    prism,
    split_vertex,
    subdivide_edge,
    wheel,
)
from min3gen.graphs import mask_path


def test_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 0), (2, 1)])
    assert g.n == 4
    assert g.m == 2
    assert g.vertices == range(4)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2
    assert g.degree(3) == 0
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])
    assert Graph(0, []).n == 0


def test_edge_normalization():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)


def test_value_semantics():
    g = Graph(3, [(0, 1)])
    h = add_edge(g, 1, 2)
    assert g.m == 1 and h.m == 2
    assert h != g
    assert delete_edge(h, 1, 2) == g
    assert hash(delete_edge(h, 1, 2)) == hash(g)


def test_add_delete_preconditions():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        add_edge(g, 0, 1)
    with pytest.raises(ValueError):
        delete_edge(g, 1, 2)


def test_delete_vertex_relabels_densely():
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert delete_vertex(square, 1) == Graph(3, [(1, 2), (0, 2)])
    assert delete_vertex(square, 3) == Graph(3, [(0, 1), (1, 2)])


def test_subdivide_edge():
    g, c = subdivide_edge(prism(), 0, 1)
    assert c == 6
    assert g.n == 7 and g.m == 10
    assert not g.has_edge(0, 1)
    assert g.neighbors(6) == (0, 1)
    with pytest.raises(ValueError):
        subdivide_edge(prism(), 0, 2)


def test_split_vertex():
    g = prism()
    h, vp = split_vertex(g, 0, 3, 4)
    assert vp == 6
    assert h.n == 7 and h.m == 10
    assert h.neighbors(6) == (0, 3, 4)
    assert h.neighbors(0) == (1, 6)
    with pytest.raises(ValueError):
        split_vertex(g, 0, 1, 1)
    with pytest.raises(ValueError):
        split_vertex(g, 0, 1, 2)


def test_split_then_contract_recovers_input():
    # Contracting the new edge vv' means deleting v' (always the last
    # vertex, so labels are stable) and restoring v's edges to u and w.
    rng = random.Random(11)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randint(4, 7), 0.6)
        picks = [v for v in g.vertices if g.degree(v) >= 3]
        if not picks:
            continue
        v = rng.choice(picks)
        u, w = rng.sample(g.neighbors(v), 2)
        h, vp = split_vertex(g, v, u, w)
        back = add_edge(add_edge(delete_vertex(h, vp), v, u), v, w)
        assert back == g
        done += 1


def test_edit_bookkeeping_properties():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, rng.randint(4, 8), 0.5)
        non_edges = [
            (u, v)
            for u in g.vertices
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if non_edges:
            u, v = rng.choice(non_edges)
            assert add_edge(g, u, v).m == g.m + 1
        if g.m:
            a, b = rng.choice(g.edges())
            sub, c = subdivide_edge(g, a, b)
            assert (sub.n, sub.m) == (g.n + 1, g.m + 1)
            assert c == g.n


def test_prism_structure():
    g = prism()
    assert g.n == 6 and g.m == 9
    assert all(g.degree(v) == 3 for v in g.vertices)
    for tri in ((0, 3), (3, 4), (0, 4), (1, 2), (2, 5), (1, 5)):
        assert g.has_edge(*tri)
    for rung in ((0, 1), (2, 3), (4, 5)):
        assert g.has_edge(*rung)
    assert certificate(g) != certificate(complete_bipartite_3(3))


def test_wheel():
    k4 = wheel(3)
    assert k4.n == 4 and k4.m == 6
    assert certificate(k4) == certificate(Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
    w5 = wheel(5)
    assert w5.n == 6 and w5.m == 10
    assert w5.degree(5) == 5
    assert all(w5.degree(v) == 3 for v in range(5))
    with pytest.raises(ValueError):
        wheel(2)


def test_complete_bipartite_3():
    g = complete_bipartite_3(3)
    assert g.n == 6 and g.m == 9
    assert all(g.degree(v) == 3 for v in range(3))
    assert all(not g.has_edge(u, v) for u in range(3) for v in range(u + 1, 3))
    k34 = complete_bipartite_3(4)
    assert k34.n == 7 and k34.m == 12
    assert all(k34.degree(v) == 4 for v in range(3))
    with pytest.raises(ValueError):
        complete_bipartite_3(2)


def test_bridge_vertex_edge():
    # Edge 01 is subdivided by the new vertex 4, which is joined to 3.
    k4 = wheel(3)
    h = bridge(k4, (3,), ((0, 1),))
    assert (h.n, h.m) == (5, 8)
    assert h.neighbors(4) == (0, 1, 3)
    assert not h.has_edge(0, 1)
    with pytest.raises(ValueError, match="end of a bridged edge"):
        bridge(k4, (0,), ((0, 1),))


def test_bridge_edges():
    # The new vertices are 4, on the first edge, and 5, on the second.
    k4 = wheel(3)
    adjacent = bridge(k4, (), ((0, 1), (1, 2)))
    assert (adjacent.n, adjacent.m) == (6, 9)
    assert adjacent.neighbors(4) == (0, 1, 5)
    assert adjacent.neighbors(5) == (1, 2, 4)
    disjoint = bridge(k4, (), ((0, 1), (2, 3)))
    # The two 3-connected cubic graphs on six vertices, one from each kind
    # of edge pair.
    assert certificate(adjacent) == certificate(prism())
    assert certificate(disjoint) == certificate(complete_bipartite_3(3))
    for pair in (((0, 1), (0, 1)), ((0, 1), (1, 0))):
        with pytest.raises(ValueError, match="must be distinct"):
            bridge(k4, (), pair)


def test_add_degree3_vertex():
    # Three ends are joined to one more new vertex, n.
    g = bridge(complete_bipartite_3(3), (3, 4, 5))
    assert g.neighbors(6) == (3, 4, 5)
    assert certificate(g) == certificate(complete_bipartite_3(4))
    # A triangle is accepted: K4's rim, joined to a new vertex, is K5 less
    # the edge 34.
    k5_minus = bridge(wheel(3), (0, 1, 2))
    assert k5_minus.neighbors(4) == (0, 1, 2)
    assert k5_minus == Graph(5, [e for e in itertools.combinations(range(5), 2) if e != (3, 4)])
    # A vertex and two edges also have three ends: 5 and 6 subdivide the
    # edges, and 7 joins them to the hub 4.
    mixed = bridge(wheel(4), (4,), ((0, 1), (2, 3)))
    assert mixed.neighbors(7) == (4, 5, 6)
    with pytest.raises(ValueError, match="distinct"):
        bridge(prism(), (0, 0, 1))
    # Vertices 5 and 8 are not W4's, though the first edge's new vertex
    # will be 5, and -1 is no vertex.
    with pytest.raises(ValueError, match="out of range"):
        bridge(wheel(4), (5,), ((0, 1), (2, 3)))
    for vertices in ((8,), (-1,), (8, 0), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            bridge(wheel(4), vertices, ((1, 4),))
    # One end, or four.
    for vertices, edges in (((0,), ()), ((), ((0, 1),)), ((0, 1, 2, 3), ()), ((0, 2), ((1, 4), (3, 4)))):
        with pytest.raises(ValueError, match="2 or 3 ends"):
            bridge(wheel(4), vertices, edges)


def test_no_loops_or_parallels_survive_edits():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, 6, 0.5)
        if g.m == 0:
            continue
        a, b = rng.choice(g.edges())
        for result in (subdivide_edge(g, a, b)[0], delete_edge(g, a, b)):
            seen = set()
            for u, v in result.edges():
                assert u < v
                assert (u, v) not in seen
                seen.add((u, v))


def test_permuted_copies_share_size():
    rng = random.Random(31)
    g = random_graph(rng, 7, 0.5)
    h = permuted_copy(rng, g)
    assert (h.n, h.m) == (g.n, g.m)
    assert sorted(h.degree(v) for v in h.vertices) == sorted(g.degree(v) for v in g.vertices)


def test_mask_reachable():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    masks = [path.neighbor_mask(v) for v in path.vertices]
    assert mask_path(masks, 0, 3, 0) >= 0
    assert mask_path(masks, 0, 3, 1 << 2) < 0
    assert mask_path(masks, 0, 0, 0) >= 0
    # The inner vertices of a shortest path: 1 and 2 on the path, none
    # between neighbours, and in C6 those of the 0..3 path that the
    # forbidden set spares.
    assert mask_path(masks, 0, 3, 0) == 0b0110
    assert mask_path(masks, 0, 0, 0) == mask_path(masks, 1, 2, 0) == 0
    c6 = [Graph(6, [(i, (i + 1) % 6) for i in range(6)]).neighbor_mask(v) for v in range(6)]
    assert mask_path(c6, 0, 3, 1 << 1) == 1 << 4 | 1 << 5
    assert mask_path(c6, 0, 3, 1 << 5) == 1 << 1 | 1 << 2
    assert mask_path(c6, 0, 3, 1 << 1 | 1 << 5) == -1
    # Among shortest paths, one is returned whole: in K_{2,3}, 0..1 through
    # exactly one of 2, 3 and 4.
    k23 = Graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    inner = mask_path([k23.neighbor_mask(v) for v in k23.vertices], 0, 1, 0)
    assert inner in (1 << 2, 1 << 3, 1 << 4)
