"""Certificates and the brute-force isomorphism oracle.

The defining property is the iff: equal certificates exactly when the
graphs are isomorphic.  Everything else (permutation invariance, known
class counts, twin-heavy stress graphs) is scaffolding around that.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from helpers import cycle_graph, permuted_copy, petersen, random_graph
from min3gen import (
    Graph,
    are_isomorphic_bruteforce,
    automorphisms,
    bridge,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    delete_vertex,
    encode_graph6,
    generate_cubic,
    generate_min3,
    prism,
    wheel,
)
from min3gen.canonical import _layer_sizes


@st.composite
def _graphs(draw, max_n: int) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [p for k, p in enumerate(pairs) if present >> k & 1])


def test_eleven_classes_on_four_vertices():
    pairs = list(itertools.combinations(range(4), 2))
    certs = set()
    for bits in range(64):
        es = [pairs[i] for i in range(6) if bits >> i & 1]
        certs.add(certificate(Graph(4, es)))
    assert len(certs) == 11


def test_permutation_invariance():
    rng = random.Random(67)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        ref = certificate(g)
        for _ in range(20):
            assert certificate(permuted_copy(rng, g)) == ref


def test_certificate_iff_isomorphism_randomized():
    rng = random.Random(71)
    for trial in range(2000):
        n = rng.randint(1, 7)
        g1 = random_graph(rng, n, rng.random())
        if trial % 3 == 0:
            g2 = permuted_copy(rng, g1)
        else:
            g2 = random_graph(rng, n, rng.random())
        same_cert = certificate(g1) == certificate(g2)
        assert same_cert == are_isomorphic_bruteforce(g1, g2), (g1.edges(), g2.edges())


def test_prism_is_vertex_transitive():
    # All single-vertex deletions of the prism are isomorphic, which a
    # vertex-transitive graph must satisfy.
    dels = {certificate(delete_vertex(prism(), v)) for v in range(6)}
    assert len(dels) == 1
    assert certificate(prism()) == certificate(permuted_copy(random.Random(3), prism()))


def _torus_graph(steps) -> Graph:
    """Cayley graph on Z4 x Z4 whose generators are steps and their negatives."""
    gens = {((a * s) % 4, (b * s) % 4) for a, b in steps for s in (1, -1)}
    return Graph(16, {
        tuple(sorted((4 * x + y, 4 * ((x + a) % 4) + (y + b) % 4)))
        for x in range(4) for y in range(4) for a, b in gens
    })


def _generalized_petersen(n: int, k: int) -> Graph:
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, outer + spokes + inner)


def _heawood() -> Graph:
    """LCF notation [5, -5]^7: a 14-cycle, each even vertex joined 5 ahead."""
    ring = [(i, (i + 1) % 14) for i in range(14)]
    return Graph(14, ring + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def _layer_profiles(g: Graph) -> set[tuple[int, ...]]:
    masks = tuple(g.neighbor_mask(v) for v in g.vertices)
    return {_layer_sizes(masks, 1 << v) for v in g.vertices}


def test_strongly_regular_twins_are_told_apart():
    # Shrikhande and the 4x4 rook's graph are both SRG(16, 6, 2, 2): every
    # vertex of either has layer profile (6, 9), so the certificate rests on
    # the search alone.
    rook = _torus_graph([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
    shrikhande = _torus_graph([(0, 1), (1, 0), (1, 1)])
    assert _layer_profiles(rook) == _layer_profiles(shrikhande) == {(6, 9)}
    rng = random.Random(79)
    certs = []
    for g in (rook, shrikhande):
        cert = certificate(g)
        assert certificate(permuted_copy(rng, g)) == cert
        assert certificate(decode_graph6(cert)) == cert
        certs.append(cert)
    assert certs[0] != certs[1]


@pytest.mark.parametrize(
    "g",
    [petersen(), _heawood(), _generalized_petersen(8, 3)],
    ids=["petersen", "heawood", "moebius-kantor"],
)
def test_symmetric_cubic_graphs_keep_their_certificate(g):
    # Vertex-transitive cubic graphs: every vertex ties on the invariant.
    assert len(_layer_profiles(g)) == 1
    rng = random.Random(83)
    cert = certificate(g)
    for _ in range(20):
        assert certificate(permuted_copy(rng, g)) == cert
    assert certificate(decode_graph6(cert)) == cert


@st.composite
def _cubic_graphs(draw, max_n: int) -> Graph:
    """A random 3-connected cubic graph: K4, then random edge-pair bridges."""
    g = wheel(3)
    for _ in range(draw(st.integers(0, (max_n - 4) // 2))):
        es = g.edges()
        i, j = draw(st.lists(st.integers(0, len(es) - 1), min_size=2, max_size=2, unique=True))
        g = bridge(g, (), (es[i], es[j]))
    return g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cubic_certificates_are_permutation_invariant(data):
    g = data.draw(_cubic_graphs(20))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    cert = certificate(g)
    assert certificate(h) == cert
    assert certificate(decode_graph6(cert)) == cert


def _is_automorphism(g: Graph, p) -> bool:
    """p is a permutation of g's vertices that maps g's edges onto g's edges."""
    return sorted(p) == list(g.vertices) and Graph(g.n, [(p[u], p[v]) for u, v in g.edges()]) == g


def _group_order(gens, n: int) -> int:
    """The order of the group the permutations generate, by closing the
    identity under composition with each generator."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for p in frontier:
            for s in gens:
                q = tuple(s[v] for v in p)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return len(seen)


def _aut_order_networkx(g: Graph) -> int:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(g.vertices)
    nx_graph.add_edges_from(g.edges())
    return sum(1 for _ in GraphMatcher(nx_graph, nx_graph).isomorphisms_iter())


def test_automorphism_generators_generate_the_whole_group():
    # Every min3 output with n <= 8 and every cubic one with n <= 10,
    # wheels, K_{3,t} and the Petersen graph among them.
    certs = [c for bucket in generate_min3(8).groups.values() for c in bucket]
    certs += [c for bucket in generate_cubic(10).groups.values() for c in bucket]
    assert len(certs) == 26 + 21
    for cert in certs:
        g = decode_graph6(cert)
        gens = automorphisms(g)
        assert all(_is_automorphism(g, p) for p in gens), cert
        assert _group_order(gens, g.n) == _aut_order_networkx(g), cert


def test_automorphisms_of_known_groups():
    assert automorphisms(Graph(0, [])) == []
    assert _group_order(automorphisms(prism()), 6) == 12
    assert _group_order(automorphisms(petersen()), 10) == 120
    assert _group_order(automorphisms(complete_bipartite_3(5)), 8) == 6 * 120
    assert _group_order(automorphisms(wheel(8)), 9) == 16
    # A path on three vertices swaps its ends and nothing else.
    assert automorphisms(Graph(3, [(0, 1), (1, 2)])) == [(2, 1, 0)]
    assert automorphisms(Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])) == [(0, 1, 3, 2)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cubic_automorphisms_are_automorphisms(data):
    g = data.draw(_cubic_graphs(20))
    cert = certificate(g)
    gens = automorphisms(g)
    assert all(_is_automorphism(g, p) for p in gens)
    assert len(set(gens)) == len(gens)
    assert certificate(g) == cert


def test_twin_heavy_graphs():
    # Complete bipartite graphs maximize equal-neighbourhood vertices; the
    # refinement must not branch over every twin permutation.
    rng = random.Random(73)
    for t in (5, 8):
        g = complete_bipartite_3(t)
        ref = certificate(g)
        for _ in range(5):
            assert certificate(permuted_copy(rng, g)) == ref
    w = wheel(8)
    assert certificate(permuted_copy(rng, w)) == certificate(w)


def test_small_and_edge_cases():
    assert certificate(Graph(0, [])) == "?"
    assert certificate(Graph(1, [])) == "@"
    assert certificate(Graph(2, [(0, 1)])) != certificate(Graph(2, []))
    assert certificate(Graph(62, [])) == "}" + "?" * 316
    with pytest.raises(ValueError):
        certificate(Graph(63, []))


def test_bruteforce_isomorphism_basics():
    c6 = cycle_graph(6)
    shuffled = permuted_copy(random.Random(5), c6)
    assert are_isomorphic_bruteforce(c6, shuffled)
    assert not are_isomorphic_bruteforce(prism(), complete_bipartite_3(3))
    assert not are_isomorphic_bruteforce(c6, Graph(6, [(i, (i + 1) % 3) for i in range(3)]))
    assert not are_isomorphic_bruteforce(Graph(3, []), Graph(4, []))
    k4 = wheel(3)
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert not are_isomorphic_bruteforce(k4, k4_minus)


def test_certificates_are_graph6_lines_and_stable():
    g = prism()
    c1 = certificate(g)
    c2 = certificate(g)
    assert isinstance(c1, str)
    assert c1 == c2
    assert c1[0] == "E"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_canonical_graph_of_a_relabelled_graph(data):
    g = data.draw(_graphs(9))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    cert = certificate(g)
    assert certificate(h) == cert
    canon = decode_graph6(cert)
    assert decode_graph6(certificate(h)) == canon
    assert are_isomorphic_bruteforce(canon, g)
    assert certificate(canon) == cert
    # A certificate is the graph6 line of the labelling it decodes to.
    assert encode_graph6(canon) == cert


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_graphs(20))
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g
