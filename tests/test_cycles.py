"""Cycle enumeration, canonical form, and the incremental rewrite rules.

The master property throughout: after any atomic edit, the rewritten cycle
set must equal brute-force enumeration on the edited graph.  Fixed examples
pin the documented worked cases; randomized trials and Hypothesis
properties over 2-connected graphs, and for Dawes' bridging over
3-connected graphs, cover the inputs the fixtures cannot.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    complete_graph,
    cycle_graph,
    def_2_connected,
    random_graph,
    three_connected_graphs,
    two_connected_graphs,
)
from min3gen import (
    add_edge,
    apply_add_edge,
    apply_bridge,
    apply_split_vertex,
    apply_subdivide_edge,
    bridge,
    canonical_cycle,
    chords,
    complete_bipartite_3,
    delete_edge,
    edge,
    extract_pattern,
    split_vertex,
    subdivide_edge,
    wheel,
)
from min3gen.cycles import enumerate_cycles_bruteforce

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def test_canonical_cycle_rotation_and_direction():
    assert canonical_cycle((2, 1, 0)) == (0, 1, 2)
    assert canonical_cycle((5, 3, 4, 0)) == (0, 4, 3, 5)
    assert canonical_cycle((0, 4, 3, 5)) == (0, 4, 3, 5)
    # every rotation and reflection lands on the same form
    base = (1, 7, 2, 9, 4)
    forms = set()
    for i in range(5):
        rot = base[i:] + base[:i]
        forms.add(canonical_cycle(rot))
        forms.add(canonical_cycle(rot[::-1]))
    assert forms == {canonical_cycle(base)}


def test_canonical_cycle_validation():
    with pytest.raises(ValueError):
        canonical_cycle((0, 1))
    with pytest.raises(ValueError):
        canonical_cycle((0, 1, 1))


def test_bruteforce_counts():
    triangle = cycle_graph(3)
    assert len(enumerate_cycles_bruteforce(triangle)) == 1
    assert len(enumerate_cycles_bruteforce(cycle_graph(5))) == 1
    k4 = enumerate_cycles_bruteforce(wheel(3))
    assert len(k4) == 7
    # four triangles and three 4-cycles
    assert sorted(len(c) for c in k4) == [3, 3, 3, 3, 4, 4, 4]
    assert len(enumerate_cycles_bruteforce(complete_bipartite_3(3))) == 15


def test_bruteforce_prism_is_the_fixed_14(prism_graph, prism_cycles):
    walks = (
        "015430",
        "0125430",
        "0152340",
        "0321540",
        "123451",
        "012540",
        "015230",
        "012340",
        "23452",
        "1251",
        "032540",
        "01540",
        "0340",
        "01230",
    )
    expected = frozenset(
        canonical_cycle(tuple(int(ch) for ch in walk[:-1])) for walk in walks
    )
    assert len(expected) == 14
    assert prism_cycles == expected


def test_chords():
    c = (0, 1, 5, 4, 3)
    assert chords(c, 1, 4)
    assert chords(c, 4, 1)
    assert not chords(c, 0, 1)
    assert not chords(c, 0, 3)  # cyclically adjacent across the wrap
    assert not chords((0, 3, 4), 1, 4)
    assert not chords(c, 4, 4)


def test_apply_add_edge_prism_chord(prism_graph, prism_cycles):
    got = apply_add_edge(prism_cycles, 0, 2)
    assert got == enumerate_cycles_bruteforce(add_edge(prism_graph, 0, 2))


def test_apply_add_edge_square_chord():
    square_cycles = frozenset({(0, 1, 2, 3)})
    got = apply_add_edge(square_cycles, 0, 2)
    assert got == {(0, 1, 2, 3), (0, 1, 2), (0, 2, 3)}


def test_apply_add_edge_degenerate_no_op():
    cs = frozenset({(0, 1, 2)})
    assert apply_add_edge(cs, 0, 4) == cs
    assert apply_add_edge(cs, 3, 4) == cs


def test_apply_add_edge_never_removes_cycles():
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng, rng.randint(4, 7), 0.5)
        cs = enumerate_cycles_bruteforce(g)
        pairs = [
            (u, v)
            for u in g.vertices
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        assert cs <= apply_add_edge(cs, u, v)


def test_apply_add_edge_matches_bruteforce_on_2_connected():
    rng = random.Random(43)
    done = 0
    while done < 150:
        g = random_graph(rng, rng.randint(4, 8), 0.55)
        if not def_2_connected(g):
            continue
        pairs = [
            (u, v)
            for u in g.vertices
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        got = apply_add_edge(enumerate_cycles_bruteforce(g), u, v)
        assert got == enumerate_cycles_bruteforce(add_edge(g, u, v))
        done += 1


def test_apply_subdivide_edge_prism_rung(prism_graph, prism_cycles):
    got = apply_subdivide_edge(prism_cycles, 0, 1, 6)
    assert len(got) == 14
    assert sum(1 for c in got if 6 in c) == 8
    sub, c = subdivide_edge(prism_graph, 0, 1)
    assert c == 6
    assert got == enumerate_cycles_bruteforce(sub)


def test_apply_subdivide_edge_basics():
    assert apply_subdivide_edge(frozenset({(0, 1, 2)}), 0, 1, 3) == {(0, 2, 1, 3)}
    untouched = frozenset({(1, 2, 5)})
    assert apply_subdivide_edge(untouched, 0, 3, 6) == untouched


def test_apply_subdivide_edge_preserves_count():
    rng = random.Random(47)
    for _ in range(100):
        g = random_graph(rng, rng.randint(4, 7), 0.5)
        if g.m == 0:
            continue
        a, b = rng.choice(g.edges())
        cs = enumerate_cycles_bruteforce(g)
        got = apply_subdivide_edge(cs, a, b, g.n)
        assert len(got) == len(cs)
        assert got == enumerate_cycles_bruteforce(subdivide_edge(g, a, b)[0])


def test_extract_pattern_worked_examples():
    assert extract_pattern((0, 1, 5, 4, 3), 1, 4, 3) == "a◇bc△"
    assert extract_pattern((0, 1, 2, 5, 4, 3), 1, 5, 3) == "a◇b△c□"


def test_extract_pattern_two_of_three():
    assert extract_pattern((7, 8, 9), 7, 8, 3) == "ab◇"
    with pytest.raises(ValueError):
        extract_pattern((0, 1, 2), 5, 6, 0)
    with pytest.raises(ValueError):
        extract_pattern((0, 1, 2), 0, 0, 1)


def test_rewrites_are_orientation_independent():
    # Feeding rotated or reflected copies of a cycle is impossible by
    # construction: canonicalization collapses them all first.
    rng = random.Random(59)
    for _ in range(50):
        k = rng.randint(3, 8)
        verts = rng.sample(range(12), k)
        i = rng.randrange(k)
        rotated = tuple(verts[i:] + verts[:i])
        assert canonical_cycle(rotated) == canonical_cycle(tuple(verts))
        assert canonical_cycle(rotated[::-1]) == canonical_cycle(tuple(verts))


def test_complete_graph_cycles_survive_edit_chain():
    # Chain several rewrites and compare once at the end.  The split meets
    # its precondition: K5 subdivided, minus edge 20, is still 2-connected.
    g = complete_graph(5)
    cs = enumerate_cycles_bruteforce(g)
    g1, c = subdivide_edge(g, 0, 1)
    cs = apply_subdivide_edge(cs, 0, 1, c)
    g2, x = split_vertex(g1, 2, 3, 0)
    cs = apply_split_vertex(cs, 2, 3, 0, x)
    g3 = add_edge(g2, 0, 2)
    cs = apply_add_edge(cs, 0, 2)
    assert cs == enumerate_cycles_bruteforce(g3)


def _splits(g):
    """Every (v, u, w) that split_vertex accepts on g."""
    return [
        (v, u, w)
        for v in g.vertices
        if g.degree(v) >= 3
        for u in g.neighbors(v)
        for w in g.neighbors(v)
        if u != w
    ]


def test_apply_split_vertex_every_prism_split(prism_graph, prism_cycles):
    splits = _splits(prism_graph)
    assert len(splits) == 36
    for v, u, w in splits:
        g2, x = split_vertex(prism_graph, v, u, w)
        assert apply_split_vertex(prism_cycles, v, u, w, x) == enumerate_cycles_bruteforce(g2)


def test_apply_split_vertex_accepts_the_edge_deleted_set(prism_graph, prism_cycles):
    # The cycles of g - vw are those of g that avoid vw, so either set may
    # be given; the generator passes g - vw when vw is a pending edge.
    for v, u, w in _splits(prism_graph):
        without = enumerate_cycles_bruteforce(delete_edge(prism_graph, v, w))
        assert without < prism_cycles
        assert apply_split_vertex(without, v, u, w, 6) == apply_split_vertex(
            prism_cycles, v, u, w, 6
        )


def _edges_on_cycles(g) -> bool:
    cs = enumerate_cycles_bruteforce(g)
    return {edge(c[i - 1], c[i]) for c in cs for i in range(len(c))} == set(g.edges())


@PROPERTY
@given(st.data())
def test_apply_add_edge_property(data):
    g = data.draw(two_connected_graphs())
    non_edges = [(u, v) for u in g.vertices for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    assume(non_edges)
    a, b = data.draw(st.sampled_from(non_edges))
    got = apply_add_edge(enumerate_cycles_bruteforce(g), a, b)
    assert got == enumerate_cycles_bruteforce(add_edge(g, a, b))


@PROPERTY
@given(st.data())
def test_apply_subdivide_edge_property(data):
    g = data.draw(two_connected_graphs())
    a, b = data.draw(st.sampled_from(g.edges()))
    g2, c = subdivide_edge(g, a, b)
    got = apply_subdivide_edge(enumerate_cycles_bruteforce(g), a, b, c)
    assert got == enumerate_cycles_bruteforce(g2)


@PROPERTY
@given(st.data())
def test_apply_split_vertex_property(data):
    g = data.draw(two_connected_graphs())
    splits = _splits(g)
    assume(splits)
    v, u, w = data.draw(st.sampled_from(splits))
    assume(_edges_on_cycles(delete_edge(g, v, w)))
    g2, x = split_vertex(g, v, u, w)
    got = apply_split_vertex(enumerate_cycles_bruteforce(g), v, u, w, x)
    assert got == enumerate_cycles_bruteforce(g2)


def test_apply_bridge_refuses_an_adjacent_first_pair(prism_graph, prism_cycles):
    # Joining the adjacent 0 and 1 by a second edge would close a
    # 2-cycle, so the rule raises rather than return a set.
    assert prism_graph.has_edge(0, 1)
    with pytest.raises(ValueError, match="at least 3 vertices"):
        apply_bridge(prism_cycles, prism_graph.n, (0, 1, 5))


# Fewer examples: each enumerates the cycles of four graphs of up to ten
# vertices.
@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_apply_bridge_property(data):
    # One set of each Dawes shape: a vertex and an edge not at it, two
    # edges, and three pairwise non-adjacent vertices.
    g = data.draw(three_connected_graphs(max_n=8))
    cycles = enumerate_cycles_bruteforce(g)
    a, b = data.draw(st.sampled_from(g.edges()))
    x = data.draw(st.sampled_from([v for v in g.vertices if v not in (a, b)]))
    pair = tuple(data.draw(st.lists(st.sampled_from(g.edges()), min_size=2, max_size=2, unique=True)))
    triples = [
        t
        for t in itertools.combinations(g.vertices, 3)
        if not any(g.has_edge(*p) for p in itertools.combinations(t, 2))
    ]
    for vs, es in (((x,), ((a, b),)), ((), pair)):
        assert apply_bridge(cycles, g.n, vs, es) == enumerate_cycles_bruteforce(bridge(g, vs, es))
    assume(triples)
    vs = data.draw(st.sampled_from(triples))
    assert apply_bridge(cycles, g.n, vs) == enumerate_cycles_bruteforce(bridge(g, vs))
