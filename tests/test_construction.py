"""The filters of the cubic and min3 walks that skip a bridging with a
smaller reduction shown to be valid.

Each reduction test is checked against the reduced graph rebuilt and run
through a naive oracle, and each walk against a walk that keeps every
bridging and removes isomorphs by certificate alone.
"""

from __future__ import annotations

import os
import random

import pytest

import min3gen.construction
import min3gen.generator
from min3gen import (
    Graph,
    add_edge,
    bridgings,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    delete_edge,
    delete_vertex,
    generate_cubic,
    generate_min3,
    is_3_connected,
    is_minimally_3_connected,
    prism,
    source,
    wheel,
)
from min3gen.construction import (
    _edge_layers,
    _end_layers,
    has_smaller_d1_reduction,
    has_smaller_d2_reduction,
    reduction_is_valid,
)
from min3gen.graphs import DAWES_SHAPES


def _reduced(g: Graph, x: int, y: int) -> Graph | None:
    """g less the edge xy, x and y smoothed, rebuilt edge by edge; None
    when smoothing would make a loop or a second edge."""
    (a, b), (c, d) = [[w for w in g.neighbors(v) if w != other] for v, other in ((x, y), (y, x))]
    if {a, b} == {c, d} or g.has_edge(a, b) or g.has_edge(c, d):
        return None
    h = delete_edge(g, x, y)
    for v, (p, q) in ((x, (a, b)), (y, (c, d))):
        h = add_edge(delete_edge(delete_edge(h, v, p), v, q), p, q)
    return delete_vertex(delete_vertex(h, max(x, y)), min(x, y))


def test_reduction_validity_matches_the_oracle():
    # Every edge of every 3-connected cubic graph with n <= 12; each graph
    # but K4 has a valid reduction, so the walk reaches it.
    tested = valid = 0
    for bucket in generate_cubic(12).groups.values():
        for cert in bucket:
            g = decode_graph6(cert)
            masks = tuple(g.neighbor_mask(v) for v in g.vertices)
            verdicts = []
            for x, y in g.edges():
                reduced = _reduced(g, x, y)
                verdicts.append(reduced is not None and is_3_connected(reduced))
                assert reduction_is_valid(masks, x, y) == verdicts[-1], (cert, (x, y))
            assert any(verdicts) == (g.n > 4), cert
            tested, valid = tested + len(verdicts), valid + sum(verdicts)
    assert (tested, valid) == (1308, 1027)


def _dedupe_walk(max_n: int) -> tuple[dict[tuple[int, int], list[str]], int]:
    """The cubic groups up to max_n from K4, each level every D2 bridging
    of the last one's graphs, one per orbit, isomorphs removed by
    certificate; and the number of certificates computed."""
    level = {certificate(wheel(3))}
    groups, certified = {(4, 6): sorted(level)}, 1
    for n in range(6, max_n + 1, 2):
        children = [g for c in level for g, _ in bridgings(source(decode_graph6(c)), (0, 2))]
        level = {certificate(g) for g in children}
        groups[(n, 3 * n // 2)], certified = sorted(level), certified + len(children)
    return groups, certified


def _count_searches(monkeypatch) -> list[str]:
    """Record every certificate the cubic walk searches for, all of them
    in this process: K4's first, then one per child it keeps."""
    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: 1)
    certs = []
    real = min3gen.generator.certificate
    monkeypatch.setattr(min3gen.generator, "certificate", lambda g: certs.append(real(g)) or certs[-1])
    return certs


def test_canonical_path_equals_the_dedupe_walk(monkeypatch):
    dedupe, certified = _dedupe_walk(14)
    certs = _count_searches(monkeypatch)
    assert generate_cubic(14).groups == dedupe
    # Only the children that no smaller valid reduction skips are
    # certified: K4 and 492 children, ties among them, against the dedupe
    # walk's certificate for every child.  The shelves' sets join the
    # isomorphs that ties leave.
    assert certified == 3972
    assert len(certs) == 1 + 492
    kept = certs[1:]
    assert len(kept) == 492
    assert set(kept) == {c for (n, _), bucket in dedupe.items() if n > 4 for c in bucket}
    assert len(set(kept)) == 418


def test_the_keep_decision_does_not_depend_on_labels():
    # Every orbit-representative child of the n <= 10 classes, relabelled
    # at random but with its new edge still joining its last two vertices,
    # is kept or rejected as it is under its own labels.
    rng = random.Random(89)
    children = [g for bucket in generate_cubic(10).groups.values() for c in bucket
                for g, _ in bridgings(source(decode_graph6(c)), (0, 2))]
    assert len(children) == 411
    for g in children:
        n = g.n
        perm = [*rng.sample(range(n - 2), n - 2), *rng.sample((n - 2, n - 1), 2)]
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert has_smaller_d2_reduction(h) == has_smaller_d2_reduction(g), g.edges()


def test_the_d2_skip_is_a_smaller_valid_reduction():
    # Each orbit-representative child of the n <= 10 classes is skipped
    # exactly when an edge other than its new one has a smaller key, the
    # stages' values of every edge computed up front and compared as
    # tuples, and is valid by the rebuilt-graph oracle.
    children = [g for bucket in generate_cubic(10).groups.values() for c in bucket
                for g, _ in bridgings(source(decode_graph6(c)), (0, 2))]
    assert len(children) == 411
    skipped = 0
    for g in children:
        masks = tuple(g.neighbor_mask(v) for v in g.vertices)
        keys = {e: (_edge_layers(masks, *e), _end_layers(masks, *e)) for e in g.edges()}
        new = (g.n - 2, g.n - 1)
        smaller = any(
            keys[e] < keys[new] and (r := _reduced(g, *e)) is not None and is_3_connected(r)
            for e in keys if e != new
        )
        assert has_smaller_d2_reduction(g) == smaller, g.edges()
        skipped += smaller
    assert skipped == 320


@pytest.mark.slow
def test_canonical_path_searches_a_quarter_of_the_dedupe_certificates(monkeypatch):
    # The dedupe walk certified 47,193 children up to n = 16.
    certs = _count_searches(monkeypatch)
    assert generate_cubic(16).count(16) == 2828
    kept = certs[1:]
    assert len(set(kept)) == 3246
    assert len(kept) == 3673
    assert len(certs) <= 47193 // 4


def _min3_dedupe_walk(max_n: int) -> dict[tuple[int, int], list[str]]:
    """The min3 groups up to max_n from the prism: each shelf every
    bridging, one per orbit, of the shelves that feed it, isomorphs
    removed by certificate, and each group joined by its wheel or K_{3,t}."""
    shelves = {(6, 9): {certificate(prism())}}
    for n in range(7, max_n + 1):
        for (k, m), certs in list(shelves.items()):
            for shape, (dn, dm) in DAWES_SHAPES.items():
                if k + dn == n:
                    shelf = shelves.setdefault((n, m + dm), set())
                    for cert in certs:
                        shelf.update(certificate(g) for g, _ in bridgings(source(decode_graph6(cert)), shape))
    for n in range(6, max_n + 1):
        shelves.setdefault((n, 2 * (n - 1)), set()).add(certificate(wheel(n - 1)))
        shelves.setdefault((n, 3 * n - 9), set()).add(certificate(complete_bipartite_3(n - 3)))
    return {key: sorted(certs) for key, certs in shelves.items() if certs}


@pytest.fixture(scope="module")
def min3_dedupe10():
    return _min3_dedupe_walk(10)


@pytest.mark.parametrize(
    "cpus", [1, pytest.param(2, marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="a second process is forked"))]
)
def test_the_d1_filter_keeps_the_classes_of_the_dedupe_walk(monkeypatch, min3_dedupe10, cpus):
    # Fresh and resumed, in one process or two, the filter loses no class.
    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: cpus)
    assert generate_min3(10).groups == min3_dedupe10
    assert generate_min3(10, resume=generate_min3(8)).groups == min3_dedupe10


def test_every_d1_reduction_the_filter_proves_is_valid(monkeypatch, min3_dedupe10):
    # Each proof, at n <= 10 and in this process, is of a reduced graph on
    # the shelf it was proven for: minimally 3-connected, rebuilt edge by
    # edge and run through the naive oracle, and no wheel or K_{3,t}.
    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: 1)
    proofs = []
    real = min3gen.construction._d1_reduction_is_proven

    def recorded(masks, c, v, a, b):
        proven = real(masks, c, v, a, b)
        if proven:
            proofs.append((masks, c, v))
        return proven

    monkeypatch.setattr(min3gen.construction, "_d1_reduction_is_proven", recorded)
    generate_min3(10)
    assert len(proofs) > 1000
    reduced = {}
    for masks, c, v in proofs:
        n = len(masks)
        g = Graph(n, [(u, w) for u in range(n) for w in range(u + 1, n) if masks[u] >> w & 1])
        a, b = [w for w in g.neighbors(c) if w != v]
        p = delete_vertex(add_edge(delete_edge(delete_edge(delete_edge(g, c, v), c, a), c, b), a, b), c)
        assert (p.n, p.m) == (n - 1, g.m - 2)
        reduced.setdefault(certificate(p), p)
    for cert, p in reduced.items():
        assert p.n >= 6, cert
        assert cert not in (certificate(wheel(p.n - 1)), certificate(complete_bipartite_3(p.n - 3))), cert
        assert is_minimally_3_connected(p), cert
        assert cert in min3_dedupe10[(p.n, p.m)], cert


def test_no_wheel_has_a_smaller_d1_reduction_proven_valid():
    # Each D1 reduction of W_k removes a spoke and gives W_{k-1}, no source
    # of the walk; no walk child reaches this exclusion up to n = 10.
    for k in range(5, 10):
        assert has_smaller_d1_reduction(wheel(k), None) is False, k


@pytest.mark.slow
def test_the_d1_filter_makes_a_quarter_of_the_dedupe_certificates(monkeypatch):
    # The dedupe walk made 14,060 certificate searches up to n = 11.
    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: 1)
    calls = []
    real = min3gen.generator.certificate
    monkeypatch.setattr(min3gen.generator, "certificate", lambda g: calls.append(g.n) or real(g))
    assert generate_min3(11).count(11) == 1513
    assert len(calls) <= 14060 // 4
