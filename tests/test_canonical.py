"""Certificates and the brute-force isomorphism oracle.

The defining property is the iff: equal certificates exactly when the
graphs are isomorphic.  Everything else (permutation invariance, known
class counts, twin-heavy stress graphs) is scaffolding around that.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cycle_graph, permuted_copy, random_graph
from min3gen import (
    Graph,
    are_isomorphic_bruteforce,
    canonical_graph,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    delete_vertex,
    encode_graph6,
    prism,
    wheel,
)


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
    assert certificate(Graph(0, [])) == b"\x00"
    assert certificate(Graph(1, [])) == b"\x01"
    assert certificate(Graph(2, [(0, 1)])) != certificate(Graph(2, []))
    with pytest.raises(ValueError):
        certificate(Graph(300, []))


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


def test_certificates_are_bytes_and_stable():
    g = prism()
    c1 = certificate(g)
    c2 = certificate(g)
    assert isinstance(c1, bytes)
    assert c1 == c2
    assert c1[0] == 6


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_canonical_graph_of_a_relabelled_graph(data):
    g = data.draw(_graphs(9))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    cert = certificate(g)
    assert certificate(h) == cert
    canon = canonical_graph(cert)
    assert canonical_graph(certificate(h)) == canon
    assert are_isomorphic_bruteforce(canon, g)
    assert certificate(canon) == cert


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_graphs(20))
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g


def test_canonical_graph_rejects_malformed_certificates():
    for bad in (b"", b"\x04", b"\x04\x00\x00"):
        with pytest.raises(ValueError):
            canonical_graph(bad)
