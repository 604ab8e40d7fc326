"""Chording path detection and the three 3-compatibility gates.

Two independent oracles anchor this module.  A definition-level scan over
all simple paths re-derives has_chording_path from scratch, on random graphs
and on every gate call the pipeline makes up to eight vertices.  The gates
are then held to the operational standard they exist for: applying the
matching operation must yield a minimally 3-connected graph exactly when
the gate passes, checked exhaustively over every minimally 3-connected graph
with at most eight vertices.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import min3gen.generator
from helpers import chording_path_oracle, complete_graph, random_graph
from min3gen import (
    EdgePair,
    Graph,
    VertexEdge,
    VertexTriple,
    add_degree3_vertex,
    add_edge,
    bridge_edges,
    bridge_vertex_edge,
    chords,
    edge,
    generate_min3,
    has_chording_path,
    is_3_compatible,
    no_chording_paths,
    prism,
    wheel,
)
from min3gen.cycles import enumerate_cycles_bruteforce
from min3gen.generator import c1, c2, c3
from min3gen.io_validate import is_minimally_3_connected


def test_has_chording_path_fixed_cases(k4):
    k5 = complete_graph(5)
    cs5 = enumerate_cycles_bruteforce(k5)
    assert has_chording_path(cs5, k5, 0, 3)

    cs4 = enumerate_cycles_bruteforce(k4)
    assert not has_chording_path(cs4, k4, 3, 0, ((0, 1),))
    assert not has_chording_path(cs4, k4, 3, 1, ((0, 1),))

    g02 = add_edge(prism(), 0, 2)
    cs02 = enumerate_cycles_bruteforce(g02)
    assert has_chording_path(cs02, g02, 3, 5)


def test_has_chording_path_validation(prism_graph, prism_cycles):
    with pytest.raises(ValueError):
        has_chording_path(prism_cycles, prism_graph, 2, 2)
    with pytest.raises(ValueError):
        has_chording_path(prism_cycles, prism_graph, 0, 2, ((0, 2),))


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
        done += 1


def _oracle_gate(g, cs, pairs, banned) -> bool:
    return not any(chording_path_oracle(g, cs, a, b, banned) for a, b in pairs)


def test_pipeline_gate_calls_match_the_oracle(monkeypatch):
    # Every gate call c1, c2 and c3 make on the B, A1 and C entries up to
    # n = 8, against the definition scan on the graph's brute-force cycles.
    result = generate_min3(8, keep_shelves=True)
    calls = []

    def recording(cycles, g, pairs, banned=()):
        pairs, banned = tuple(pairs), tuple(banned)
        got = no_chording_paths(cycles, g, pairs, banned)
        calls.append((g, pairs, banned, got))
        return got

    monkeypatch.setattr(min3gen.generator, "no_chording_paths", recording)
    for shelf in result.shelves.values():
        for tag, gate in (("B", c1), ("A1", c2), ("C", c3)):
            for ent in shelf.entries(tag):
                gate(ent)
    cycle_sets = {}
    for g, pairs, banned, got in calls:
        if g not in cycle_sets:
            cycle_sets[g] = enumerate_cycles_bruteforce(g)
        cs = cycle_sets[g]
        assert got == _oracle_gate(g, cs, pairs, banned), (g.edges(), pairs, banned)
    passed = sum(got for *_, got in calls)
    assert 0 < passed < len(calls)
    assert {len(pairs) for _, pairs, _, _ in calls} >= {2, 3, 4}


@st.composite
def _gate_queries(draw):
    """A random 2-connected graph (an open ear decomposition plus extra
    edges), its cycles, endpoint pairs with a repeat, and banned edges that
    include a chord when the graph has one."""
    n = draw(st.integers(4, 8))
    k = draw(st.integers(3, n))
    es = {edge(i, (i + 1) % k) for i in range(k)}
    while k < n:
        inner = draw(st.integers(1, n - k))
        x, y = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        path = [x, *range(k, k + inner), y]
        es.update(edge(u, v) for u, v in zip(path, path[1:]))
        k += inner
    es.update(draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=n)))
    perm = draw(st.permutations(range(n)))
    g = Graph(n, [(perm[u], perm[v]) for u, v in es])
    cs = enumerate_cycles_bruteforce(g)
    vertex = st.integers(0, n - 1)
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
def test_no_chording_paths_matches_the_oracle(query):
    g, cs, pairs, banned = query
    assert no_chording_paths(cs, g, pairs, banned) == _oracle_gate(g, cs, pairs, banned)
    a, b = pairs[0]
    assert has_chording_path(cs, g, a, b, banned) == chording_path_oracle(g, cs, a, b, banned)


def test_no_chording_paths_deduplicates_pairs(prism_graph, prism_cycles):
    one = no_chording_paths(prism_cycles, prism_graph, ((0, 2),))
    both = no_chording_paths(prism_cycles, prism_graph, ((0, 2), (2, 0)))
    assert one == both
    with pytest.raises(ValueError):
        no_chording_paths(prism_cycles, prism_graph, ((2, 2),))


def test_compat_set_validation(prism_graph, prism_cycles):
    with pytest.raises(ValueError):
        is_3_compatible(prism_cycles, prism_graph, VertexEdge(0, (0, 1)))
    with pytest.raises(ValueError):
        is_3_compatible(prism_cycles, prism_graph, VertexEdge(2, (0, 2)))
    with pytest.raises(ValueError):
        is_3_compatible(prism_cycles, prism_graph, EdgePair((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        is_3_compatible(prism_cycles, prism_graph, EdgePair((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        is_3_compatible(prism_cycles, prism_graph, VertexTriple(1, 1, 2))


def test_every_vertex_edge_set_of_k4_is_compatible(k4):
    # The smallest wheel accepts every D1 site; this is what makes W4
    # reachable from it.
    cs = enumerate_cycles_bruteforce(k4)
    for x in k4.vertices:
        for a, b in k4.edges():
            if x not in (a, b):
                assert is_3_compatible(cs, k4, VertexEdge(x, (a, b)))


def _candidate_sets(g):
    for x in g.vertices:
        for e in g.edges():
            if x not in e:
                yield VertexEdge(x, e), lambda g=g, x=x, e=e: bridge_vertex_edge(g, x, *e)[0]
    for e1, e2 in itertools.combinations(g.edges(), 2):
        yield EdgePair(e1, e2), lambda g=g, e1=e1, e2=e2: bridge_edges(g, e1, e2)[0]
    for x, y, z in itertools.combinations(g.vertices, 3):
        yield VertexTriple(x, y, z), lambda g=g, x=x, y=y, z=z: add_degree3_vertex(g, x, y, z)[0]


def test_gate_soundness_exhaustive_to_eight_vertices():
    # For every minimally 3-connected graph up to n = 8 and every candidate
    # set of all three shapes: the gate passes exactly when the applied
    # operation yields a minimally 3-connected graph.
    emitted = generate_min3(8)
    graphs = [g for bucket in emitted.groups.values() for _, g in bucket]
    assert len(graphs) == 26
    checked = 0
    for g in graphs:
        cs = enumerate_cycles_bruteforce(g)
        for s, apply_op in _candidate_sets(g):
            assert is_3_compatible(cs, g, s) == is_minimally_3_connected(apply_op()), (
                g.edges(),
                s,
            )
            checked += 1
    assert checked > 4000


def test_gate_soundness_on_wheels():
    for k in (3, 4, 5):
        g = wheel(k)
        cs = enumerate_cycles_bruteforce(g)
        for s, apply_op in _candidate_sets(g):
            assert is_3_compatible(cs, g, s) == is_minimally_3_connected(apply_op())
