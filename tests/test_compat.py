"""Chording path detection and the 3-compatibility gate.

Two independent oracles anchor this module.  A definition-level scan over
all simple paths re-derives has_chording_path from scratch, on fixed cases
that pin each position of the ends relative to the chord's cycle, on
random graphs and at every site the generator tries on sources up to eight
vertices.  The gate is then held to the operational standard it exists
for: applying the matching operation must yield a minimally 3-connected
graph exactly when the gate passes, checked exhaustively over every
minimally 3-connected graph with at most eight vertices.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    candidate_sets,
    chording_path_oracle,
    collect_shelves,
    complete_graph,
    random_graph,
    two_connected_graphs,
)
from min3gen import (
    Graph,
    add_edge,
    canonical_cycle,
    chords,
    compat_query,
    decode_graph6,
    generate_min3,
    has_chording_path,
    is_3_compatible,
    prism,
    wheel,
)
from min3gen.cycles import enumerate_cycles_bruteforce
from min3gen.generator import _orbit_representatives
from min3gen.graphs import DAWES_SHAPES
from min3gen.io_validate import is_minimally_3_connected


def test_has_chording_path_fixed_cases(k4):
    k5 = complete_graph(5)
    assert has_chording_path(enumerate_cycles_bruteforce(k5), k5, 0, 3)

    cs4 = enumerate_cycles_bruteforce(k4)
    assert not has_chording_path(cs4, k4, 3, 0, ((0, 1),))
    assert not has_chording_path(cs4, k4, 3, 1, ((0, 1),))

    g02 = add_edge(prism(), 0, 2)
    assert has_chording_path(enumerate_cycles_bruteforce(g02), g02, 3, 5)

    # One hexagon 0..5 with the chord 03, and a path 7, 1 and a path 3, 6,
    # 8, 0 off it, with 9 hanging on 8.  Given that cycle alone, each
    # position of the ends relative to it has a pair with a chording path
    # and one without, in either order, as the definition scan finds.
    hexagon = frozenset({canonical_cycle(range(6))})
    g = Graph(10, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (3, 6), (1, 7), (0, 8), (6, 8), (8, 9)])
    for a, b, want in (
        (0, 3, True),  # both ends on the cycle: the chord itself
        (0, 2, False),  # 02 is no edge
        (0, 6, True),  # only a on it: 0, 3, 6
        (0, 7, False),  # 3 reaches 7 only over the cycle
        (8, 3, True),  # only b on it, so the ends swap: 3, 0, 8
        (7, 3, False),  # 0 reaches 7 only over the cycle
        (8, 6, True),  # neither on it: 8, 0, 3, 6
        (6, 7, False),  # no arm reaches 7 off the cycle
        (8, 9, False),  # 3 reaches 9 only through 8, the other arm's start
    ):
        assert chording_path_oracle(g, hexagon, a, b) == want
        assert has_chording_path(hexagon, g, a, b) == has_chording_path(hexagon, g, b, a) == want, (a, b)
    # A banned chord, or a banned edge of the cycle, leaves no chord.
    assert not has_chording_path(hexagon, g, 8, 6, ((0, 3),))
    assert not has_chording_path(hexagon, g, 8, 6, ((4, 5),))


def test_has_chording_path_validation(prism_graph, prism_cycles):
    # The gate checks its arguments before it searches: a pair needs two
    # distinct ends, and each end and banned edge must be g's.
    with pytest.raises(ValueError, match="must be distinct"):
        is_3_compatible(prism_cycles, prism_graph, (2, 2, 4))
    with pytest.raises(ValueError, match="not present"):
        is_3_compatible(prism_cycles, prism_graph, (4,), ((0, 2),))
    for vertices, banned in (((6,), ((0, 1),)), ((-1,), ((0, 1),)), ((3,), ((6, 1),)), ((2,), ((-1, 4),))):
        with pytest.raises(ValueError, match="out of range"):
            is_3_compatible(prism_cycles, prism_graph, vertices, banned)


def test_has_chording_path_matches_definition_scan():
    rng = random.Random(61)
    done = 0
    while done < 250:
        g = random_graph(rng, rng.randint(4, 7), 0.55)
        if g.m < 4:
            continue
        cs = enumerate_cycles_bruteforce(g)
        if not cs:
            continue
        a, b = rng.sample(range(g.n), 2)
        banned = tuple(rng.sample(g.edges(), rng.randint(0, min(2, g.m))))
        got = has_chording_path(cs, g, a, b, banned)
        want = chording_path_oracle(g, cs, a, b, banned)
        assert got == want, (g.edges(), a, b, banned)
        # Pairs are unordered.
        assert got == has_chording_path(cs, g, b, a, banned)
        done += 1


def _oracle_gate(g, cs, pairs, banned) -> bool:
    return not any(chording_path_oracle(g, cs, a, b, banned) for a, b in pairs)


def test_pipeline_gate_calls_match_the_oracle():
    # The paper's gate at every site the pipeline tries, one per orbit, in
    # each shape, on the shelves' sources up to n = 8, given the cycle set
    # that apply_bridge derives along the walk, against the definition scan
    # on the graph's brute-force cycles with the set's edges banned.
    calls = []
    for entries in collect_shelves(8).values():
        for ent in entries:
            cs = enumerate_cycles_bruteforce(ent.graph)
            for shape in DAWES_SHAPES:
                for vertices, edges in _orbit_representatives(ent.graph, shape, ent.gens):
                    pairs = compat_query(vertices, edges)
                    got = is_3_compatible(ent.cycles, ent.graph, vertices, edges)
                    assert got == _oracle_gate(ent.graph, cs, pairs, edges), (ent.graph.edges(), pairs, edges)
                    calls.append((pairs, got))
    passed = sum(got for _, got in calls)
    assert 0 < passed < len(calls)
    assert {len(pairs) for pairs, _ in calls} >= {2, 3, 4}


@st.composite
def _gate_queries(draw):
    """A random 2-connected graph, its cycles, endpoint pairs with a
    repeat, and banned edges that include a chord when the graph has one."""
    g = draw(two_connected_graphs())
    cs = enumerate_cycles_bruteforce(g)
    vertex = st.integers(0, g.n - 1)
    pairs = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), min_size=1, max_size=4)
    )
    pairs.append(pairs[0][::-1])
    banned = draw(st.lists(st.sampled_from(g.edges()), max_size=3, unique=True))
    chord_edges = [e for e in g.edges() if any(chords(c, *e) for c in cs)]
    if chord_edges and draw(st.booleans()):
        banned.append(draw(st.sampled_from(chord_edges)))
    return g, cs, pairs, banned


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_gate_queries())
def test_is_3_compatible_matches_the_oracle(query):
    g, cs, pairs, banned = query
    # Each pair alone, then all of them in the form is_3_compatible takes.
    got = [has_chording_path(cs, g, a, b, banned) for a, b in pairs]
    assert got == [chording_path_oracle(g, cs, a, b, banned) for a, b in pairs]
    assert (not any(got)) == _oracle_gate(g, cs, pairs, banned)


def test_compat_query_fixed_cases():
    # Each shape's endpoint pairs, in order.
    assert compat_query((3,), ((0, 1),)) == [(3, 0), (3, 1)]
    assert compat_query((), ((0, 1), (4, 5))) == [(0, 4), (1, 4), (0, 5), (1, 5)]
    # An adjacent pair drops the shared end's pair with itself.
    assert compat_query((), ((0, 1), (1, 2))) == [(0, 1), (0, 2), (1, 2)]
    assert compat_query((0, 1, 2), ()) == [(0, 1), (0, 2), (1, 2)]


def test_compat_set_validation(prism_graph, prism_cycles):
    shapes = "none of Dawes' three shapes"
    for vertices, edges, reason in (
        ((0,), ((0, 1),), "must not be an end"),
        ((2,), ((0, 2),), "must not be an end"),
        ((), ((0, 1), (0, 1)), "must be distinct"),
        ((), ((0, 1), (1, 0)), "must be distinct"),
        ((), ((0, 1), (0, 2)), "not present"),
        ((1, 1, 2), (), "must be distinct"),
        ((), ((0, 1),), shapes),
        ((0, 2), (), shapes),
        ((2,), ((0, 1), (3, 4)), shapes),
        ((0, 1, 2, 3), (), shapes),
        ((), (), shapes),
    ):
        with pytest.raises(ValueError, match=reason):
            is_3_compatible(prism_cycles, prism_graph, vertices, edges)


def test_every_vertex_edge_set_of_k4_is_compatible(k4):
    # The smallest wheel accepts every D1 site; this is what makes W4
    # reachable from it.
    cs = enumerate_cycles_bruteforce(k4)
    for x in k4.vertices:
        for a, b in k4.edges():
            if x not in (a, b):
                assert is_3_compatible(cs, k4, (x,), ((a, b),))


def test_gate_soundness_exhaustive_to_eight_vertices():
    # For every minimally 3-connected graph up to n = 8 and every candidate
    # set of all three shapes: the gate passes exactly when the applied
    # operation yields a minimally 3-connected graph.
    emitted = generate_min3(8)
    graphs = [decode_graph6(c) for bucket in emitted.groups.values() for c in bucket]
    assert len(graphs) == 26
    checked = 0
    for g in graphs:
        cs = enumerate_cycles_bruteforce(g)
        for s, apply_op in candidate_sets(g):
            assert is_3_compatible(cs, g, *s) == is_minimally_3_connected(apply_op()), (
                g.edges(),
                s,
            )
            checked += 1
    assert checked > 4000


def test_d3_gate_rejects_every_triple_with_an_adjacent_pair():
    # Bridgings try only pairwise non-adjacent triples.  For an edge xy of a
    # 3-connected graph, x and y lie on a cycle of the graph minus xy, so
    # the edge xy is a chording xy-path; checked here on every minimally
    # 3-connected graph up to n = 8.
    emitted = generate_min3(8)
    checked = 0
    for g in (decode_graph6(c) for bucket in emitted.groups.values() for c in bucket):
        cs = enumerate_cycles_bruteforce(g)
        for t in itertools.combinations(g.vertices, 3):
            if any(g.has_edge(u, v) for u, v in itertools.combinations(t, 2)):
                assert not is_3_compatible(cs, g, t), (g.edges(), t)
                checked += 1
    assert checked == 1108


def test_gate_soundness_on_wheels():
    for k in (3, 4, 5):
        g = wheel(k)
        cs = enumerate_cycles_bruteforce(g)
        for s, apply_op in candidate_sets(g):
            assert is_3_compatible(cs, g, *s) == is_minimally_3_connected(apply_op())
