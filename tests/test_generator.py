"""Bridging operations, the shelf walk, and both generation modes.

Counts for small vertex budgets are frozen here; the acceptance suite
extends them to the full published tables.  Differential checks (orbit
pruning against every site, cycle rules against brute force) and
structural checks (shelf dedup, determinism, resuming from an earlier
result) cover the plumbing the counts alone would not.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import re
import sys
import weakref

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import min3gen.generator
from helpers import candidate_sets, collect_shelves, derived, materialize
from min3gen import (
    GeneratedSet,
    Graph,
    apply_bridge,
    bridge,
    bridgings,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    encode_graph6,
    generate_cubic,
    generate_min3,
    is_3_compatible,
    is_3_connected,
    is_minimally_3_connected,
    prism,
    read_outputs,
    source,
    wheel,
    write_outputs,
)
from min3gen.canonical import automorphisms
from min3gen.cli import main
from min3gen.cycles import PRISM_CYCLES, enumerate_cycles_bruteforce
from min3gen.generator import _fan, _fan_rejects, _fans, _min3_skip, _orbit_representatives, _push, _shelf_edges
from min3gen.graphs import DAWES_SHAPES, edge, mask_path
from min3gen.io_validate import CheckpointError, high_edges_essential

# The shapes, (vertex count, edge count), of Dawes' D1, D2 and D3 sets.
OPS = ((1, 1), (0, 2), (3, 0))


def _seed_entry():
    return derived(prism(), PRISM_CYCLES)


def _one_process(monkeypatch) -> None:
    """Bridge every source in this process, so that what a test records
    there is the whole walk's work."""
    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: 1)


def test_prism_cycle_table_matches_bruteforce():
    assert PRISM_CYCLES == enumerate_cycles_bruteforce(prism())
    assert len(PRISM_CYCLES) == 14


def test_d1_bridges_the_prism_to_shelf_11_7():
    # The prism's 36 vertex/edge sites fall into few orbits of its 12
    # automorphisms; those that pass the gate reach the three graphs of
    # (n, m) = (7, 11).
    out = materialize((1, 1), _seed_entry())
    assert 0 < len(out) < 36
    assert {certificate(ent.graph) for ent in out} == set(generate_min3(7).groups[(7, 11)])
    for ent in out:
        assert (ent.graph.n, ent.graph.m) == (7, 11)
        assert ent.cycles == enumerate_cycles_bruteforce(ent.graph)
        assert is_minimally_3_connected(ent.graph)


def test_d3_reaches_complete_bipartite(k33):
    # K_{3,3}'s two sides are its only independent triples, one orbit.
    out = materialize((3, 0), source(k33))
    assert len(out) == 1
    assert certificate(out[0].graph) == certificate(complete_bipartite_3(4))
    assert out[0].cycles == enumerate_cycles_bruteforce(out[0].graph)


@pytest.fixture(scope="module")
def sources9():
    """The 75 sources of the shelves with n <= 9, which feed those up to
    n = 11."""
    sources = [ent for entries in collect_shelves(9).values() for ent in entries]
    assert len(sources) == 75
    return sources


def test_orbit_representatives_admit_the_classes_of_all_sites(sources9):
    # For every source with n <= 9, each operation admits from its orbit
    # representatives the classes that every 3-compatible site of its
    # shape gives, triples with an adjacent pair included.
    sources = sources9
    tried = admitted = 0
    for ent in sources:
        by_definition = {shape: set() for shape in OPS}
        for (vertices, edges), apply_op in candidate_sets(ent.graph):
            if is_3_compatible(ent.cycles, ent.graph, vertices, edges):
                by_definition[len(vertices), len(edges)].add(certificate(apply_op()))
                admitted += 1
        for shape in OPS:
            got = [g for g, _ in bridgings(ent, shape)]
            assert {certificate(g) for g in got} == by_definition[shape], (shape, ent.graph.edges())
            tried += len(got)
    assert tried < admitted


def _dawes_sites(g: Graph, shape):
    """Every site of the shape in g, edge combinations outer and vertex
    combinations inner: vertices neither adjacent to each other nor ends
    of the edges."""
    nv, ne = shape
    for edges in itertools.combinations(g.edges(), ne):
        ends = {v for e in edges for v in e}
        for vs in itertools.combinations(g.vertices, nv):
            if ends.isdisjoint(vs) and not any(g.has_edge(u, w) for u, w in itertools.combinations(vs, 2)):
                yield vs, edges


def test_orbit_representatives_are_the_first_site_of_each_orbit(sources9):
    # Against brute force: all sites in enumeration order, and the full
    # automorphism group from networkx rather than canonical.automorphisms.
    cases = [(ent.graph, shape) for ent in sources9 for shape in OPS]
    cubic = [decode_graph6(c) for bucket in generate_cubic(12).groups.values() for c in bucket]
    cases += [(g, (0, 2)) for g in cubic]
    reps = []
    for g, shape in cases:
        nxg = nx.Graph(g.edges())
        group = list(GraphMatcher(nxg, nxg).isomorphisms_iter())
        seen, first = set(), []
        for vs, es in _dawes_sites(g, shape):
            if (frozenset(vs), frozenset(es)) not in seen:
                first.append((vs, es))
                seen.update((frozenset(map(p.get, vs)), frozenset(edge(p[a], p[b]) for a, b in es)) for p in group)
        assert _orbit_representatives(g, shape, automorphisms(g)) == first, (shape, g.edges())
        reps.append(len(first))
    assert (sum(reps[: 3 * len(sources9)]), sum(reps[3 * len(sources9) :])) == (7477, 3971)


def test_every_gate_verdict_is_the_minimality_of_its_bridging(sources9):
    # Dawes' theorem, site by site: at every orbit representative site of
    # the sources with n <= 9, the paper's gate, is_3_compatible on the
    # source's cycle set, passes exactly when the child test passes on the
    # bridging, and bridgings keeps exactly those bridgings.  Unlike the
    # gate's chording-path oracle, this would catch a gate that is wrong in
    # the same way as that definition.
    verdicts, children, kept = [], [], []
    for ent in sources9:
        for shape in OPS:
            sites = _orbit_representatives(ent.graph, shape, ent.gens)
            verdicts += [is_3_compatible(ent.cycles, ent.graph, *site) for site in sites]
            children += [bridge(ent.graph, *site) for site in sites]
            kept += [g for g, _ in bridgings(ent, shape)]
    assert (len(children), sum(verdicts)) == (7477, 4942)
    # The child test decides minimality only of a 3-connected graph, and
    # Dawes' bridgings keep 3-connectivity.
    assert all(is_3_connected(g) for g in children)
    assert [high_edges_essential(g) for g in children] == verdicts
    assert kept == [g for g, ok in zip(children, verdicts) if ok]
    # The definition-level oracle on a fixed sample of the sites.
    sample = range(0, len(children), 53)
    assert [is_minimally_3_connected(children[i]) for i in sample] == [verdicts[i] for i in sample]


def _fan_verdicts(sources) -> tuple[int, int]:
    """How many orbit representative sites of the sources, of the shapes
    that feed a shelf up to n = 10, the fans reject, and how many bridge
    to a graph the child test fails, each rejected site's among them; a
    rejected child on which the definition-level oracle is run once in 20
    must fail it as well."""
    rejected = failing = 0
    for ent in sources:
        fans = _fans(ent.graph)
        for shape in (shape for shape, (dn, _) in DAWES_SHAPES.items() if ent.graph.n + dn <= 10):
            for site in _orbit_representatives(ent.graph, shape, ent.gens):
                child = bridge(ent.graph, *site)
                minimal = high_edges_essential(child)
                failing += not minimal
                if shape != (0, 2) and _fan_rejects(fans, site):
                    assert not minimal, (ent.graph.edges(), site)
                    rejected += 1
                    assert rejected % 20 or not is_minimally_3_connected(child), (ent.graph.edges(), site)
    return rejected, failing


def test_every_site_the_fans_reject_bridges_to_a_non_minimal_graph(sources9, monkeypatch):
    # bridgings drops the D1 and D3 sites the fans reject before bridging
    # them, so each must be a site the child test would fail: at every
    # orbit representative site of the sources with n <= 9, as the fixture
    # and as the one-process walk to n = 10 label them.
    assert _fan_verdicts(sources9) == (2260, 2517)
    _one_process(monkeypatch)
    walked = []
    real = min3gen.generator.source
    monkeypatch.setattr(min3gen.generator, "source", lambda g: walked.append(real(g)) or walked[-1])
    generate_min3(10)
    assert _fan_verdicts(walked) == (2280, 2517)


def test_a_d1_edge_at_a_high_neighbour_bridges_to_a_non_minimal_graph():
    # In W_5, rim vertex 0 has degree 3 and its neighbour 5, the hub,
    # degree 5.  The first fan path from the hub, to rim vertex 1, is the
    # spoke 5-1 itself, so the new vertex of the D1 site (0, 5-1) sits on
    # it and on the third path 0-c-5, and the fan proves nothing there.
    # The site is rejected all the same, as is every D1 site whose edge
    # ends at a neighbour w of x of degree 4 or more: x-c-w is a path of
    # the bridging less xw, so a 2-cut between x and w there is c and a
    # vertex s; but then s and w would cut x off from w's other
    # neighbours in the source, which is 3-connected.
    w5 = wheel(5)
    rows = [w5.neighbor_mask(v) for v in w5.vertices]
    assert mask_path(rows, 5, 1, 1 << 0 | 1 << 4) == 0
    site = ((0,), ((1, 5),))
    assert _fan_rejects(_fans(w5), site)
    assert not is_minimally_3_connected(bridge(w5, *site))
    # Here the shortest path from x = 0's neighbour 1 to its neighbour 3 is
    # 1-2-3, and 2 and 3 are all of 4's neighbours but x, so the second
    # path is not found, and the fan from 1 is 1 alone.
    greedy = Graph(
        7, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5), (3, 6), (5, 6)]
    )
    assert is_3_connected(greedy)
    assert _fan([greedy.neighbor_mask(v) for v in greedy.vertices], 0, 1) == 1 << 1
    for g in (w5, wheel(6), complete_bipartite_3(4), greedy):
        fans = _fans(g)
        for x in g.vertices:
            for a, b in g.edges():
                high = [w for w in (a, b) if g.has_edge(x, w) and g.degree(w) > 3]
                if x not in (a, b) and high:
                    assert _fan_rejects(fans, ((x,), ((a, b),))), (g.edges(), x, a, b)
                    assert not is_minimally_3_connected(bridge(g, (x,), ((a, b),))), (g.edges(), x, a, b)


def test_every_bridging_rule_matches_bruteforce_cycles(monkeypatch):
    # With a child test that passes everything and no fan rejecting a site,
    # the walk up to n = 8 keeps every bridging, and reaches 42 graphs, all
    # 3-connected, minimally or not.  At every site bridgings tries on
    # each, one per orbit, apply_bridge on the site must give the bridged
    # graph's cycles.
    with monkeypatch.context() as patched:
        patched.setattr(min3gen.generator, "high_edges_essential", lambda g: True)
        patched.setattr(min3gen.generator, "_fans", lambda g: [0] * g.n)
        graphs = [decode_graph6(c) for bucket in generate_min3(8).groups.values() for c in bucket]
    assert len(graphs) == 42
    sites = 0
    for g in graphs:
        cycles, gens = enumerate_cycles_bruteforce(g), automorphisms(g)
        for shape in OPS:
            for site in _orbit_representatives(g, shape, gens):
                g2 = bridge(g, *site)
                assert apply_bridge(cycles, g.n, *site) == enumerate_cycles_bruteforce(g2), (shape, g.edges(), site)
                sites += 1
    assert sites == 2600


def test_push_first_column():
    shelves = {}
    _push(shelves, 6, {9: [certificate(prism())]}, range(7, 8), _min3_skip)
    # The prism feeds (7, 11) by D1 and (7, 12) by D3; D2's (8, 12) lies
    # past reach.
    assert sorted(shelves) == [(7, 11), (7, 12)]
    assert sorted(shelves[(7, 11)]) == generate_min3(7).groups[(7, 11)]
    # The prism has no independent triple, and (7, 12) holds only the
    # wheel and K_{3,4}, which no shelf holds.
    assert shelves[(7, 12)] == set()


def test_shelves_dedup_across_classes():
    # A class reached from several sources, sites or operations is kept
    # once: each shelf holds, each once, the classes of its group that are
    # neither the wheel nor K_{3,n-3}.
    result = generate_min3(8)
    for (n, m), entries in collect_shelves(8).items():
        certs = [certificate(ent.graph) for ent in entries]
        direct = {certificate(wheel(n - 1)), certificate(complete_bipartite_3(n - 3))}
        assert certs == sorted(set(result.groups.get((n, m), [])) - direct)


def test_a_final_shelf_holds_its_classes_and_makes_no_sources(monkeypatch):
    # A shelf that feeds no shelf in reach holds the same classes, and none
    # of its graphs becomes a source.
    _one_process(monkeypatch)
    shelves = collect_shelves(8)
    columns, pending = {}, {}
    push = min3gen.generator._push

    def recording(walked, n, column, reach, keep):
        columns[n], pending[n] = column, walked
        push(walked, n, column, reach, keep)

    monkeypatch.setattr(min3gen.generator, "_push", recording)
    sourced = []
    real = min3gen.generator.source
    monkeypatch.setattr(min3gen.generator, "source", lambda g: sourced.append(g.n) or real(g))
    generate_min3(8)
    checked = 0
    for n in (6, 7, 8):
        assert sorted(columns[n]) == list(_shelf_edges(n))
        for m, certs in columns[n].items():
            assert certs == [certificate(ent.graph) for ent in shelves[(n, m)]]
            checked += len(certs) if n == 8 else 0
    assert checked == 16
    assert sorted(set(sourced)) == [6, 7]
    # Every shelf was taken off as its column came; what is left is the
    # seed's (6, 10), which holds only W_5 and is no shelf, emptied.
    assert pending[8] == {(6, 10): set()}


def test_final_column_derives_no_cycle_sets(monkeypatch):
    # No column derives a cycle set: every shelf is a set of certificates,
    # and only the columns before max_n decode theirs into sources.
    _one_process(monkeypatch)
    kinds = set()
    push = min3gen.generator._push

    def inspecting(shelves, n, column, reach, keep):
        push(shelves, n, column, reach, keep)
        kinds.update((type(shelf), type(cert)) for shelf in shelves.values() for cert in shelf)

    monkeypatch.setattr(min3gen.generator, "_push", inspecting)
    sourced = []
    real = min3gen.generator.source
    monkeypatch.setattr(min3gen.generator, "source", lambda g: sourced.append(g.n) or real(g))
    outputs8 = generate_min3(8)
    assert kinds == {(set, str)}
    assert sorted(sourced) == [6] + [7] * 3
    # A resume makes sources of the two columns the next one reads, less
    # the wheels and K_{3,t}, and none when it already reaches max_n.
    sourced.clear()
    generate_min3(9, resume=outputs8)
    assert sorted(sourced) == [7] * 3 + [8] * 16
    sourced.clear()
    generate_min3(8, resume=outputs8)
    assert sourced == []


def _count_work(monkeypatch) -> dict[str, list]:
    """Record the arguments and result of every automorphism group, decode,
    bridging, child test and certificate call the generator makes, by name,
    all of them in this process."""
    _one_process(monkeypatch)
    calls: dict[str, list] = {}

    def counting(name, fn):
        calls[name] = []

        def counted(*args):
            calls[name].append((args, fn(*args)))
            return calls[name][-1][1]

        return counted

    for name in ("automorphisms", "decode_graph6", "bridge", "high_edges_essential", "certificate"):
        monkeypatch.setattr(min3gen.generator, name, counting(name, getattr(min3gen.generator, name)))
    return calls


def test_each_source_gets_its_automorphisms_once(monkeypatch):
    calls = _count_work(monkeypatch)
    generate_min3(10)
    # The sources are the 75 entries of the shelves with n <= 9, each
    # decoded once.  Every site the fans do not reject, 2,246 of 4,526, is
    # bridged and tested on its child.  Of the 2,009 children kept, only those with no smaller D1 reduction
    # proven valid are certified, 482 of them, besides the prism and the
    # ten wheels and K_{3,t}.
    certs = [certificate(g) for (g,), _ in calls["automorphisms"]]
    assert len(certs) == len(set(certs)) == 75
    counts = {name: len(args) for name, args in calls.items()}
    kept = sum(result for _, result in calls["high_edges_essential"])
    assert (counts, kept) == (
        {"automorphisms": 75, "decode_graph6": 75, "bridge": 2246, "high_edges_essential": 2246, "certificate": 493},
        2009,
    )
    # Resuming n <= 9 to 10 makes sources of columns 8 and 9 only.
    outputs9 = generate_min3(9)
    for args in calls.values():
        args.clear()
    generate_min3(10, resume=outputs9)
    counts = {name: len(args) for name, args in calls.items()}
    kept = sum(result for _, result in calls["high_edges_essential"])
    assert (counts, kept) == (
        {"automorphisms": 71, "decode_graph6": 71, "bridge": 1923, "high_edges_essential": 1923, "certificate": 404},
        1715,
    )


def test_no_source_outlives_its_shelf(monkeypatch):
    # The walk compiles no cycle set (see test_the_walk_carries_no_cycle_set),
    # and keeps no source past its shelf: each, with its graph and
    # generators, is gone once the shelf that made it has run.
    _one_process(monkeypatch)
    made, late = [], []
    real = min3gen.generator.source

    def recording(g):
        ent = real(g)
        made.append(weakref.ref(ent))
        return ent

    def progress(line):
        gc.collect()
        late.extend(line for ref in made if ref() is not None)

    monkeypatch.setattr(min3gen.generator, "source", recording)
    generate_min3(9, progress=progress)
    assert len(made) == 20
    assert late == []


def test_the_walk_carries_no_cycle_set(monkeypatch):
    # The paper's cycle set propagation and gate are the oracle only: with
    # every one of their steps made to raise, a fresh run and a resumed one
    # still give the groups they give unpatched.
    fresh, outputs8 = generate_min3(9), generate_min3(8)
    resumed = generate_min3(9, resume=outputs8)
    assert resumed == fresh

    def forbidden(*args):
        raise AssertionError("the walk reached a cycle set step")

    names = ("enumerate_cycles_bruteforce", "has_chording_path", "is_3_compatible", "apply_bridge")
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "min3gen"]
    for name in names:
        # A name no module binds would be patched nowhere, and the test
        # would pass without checking it.
        assert any(hasattr(module, name) for module in modules), name
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert generate_min3(9) == fresh
    assert generate_min3(9, resume=outputs8) == resumed


def test_generate_min3_smallest_budget():
    result = generate_min3(6)
    assert result.mode == "min3"
    assert {k: len(v) for k, v in result.groups.items()} == {(6, 9): 2, (6, 10): 1}
    assert result.count() == 3
    assert result.count(6) == 3
    certs_69 = result.groups[(6, 9)]
    assert certificate(prism()) in certs_69
    assert certificate(complete_bipartite_3(3)) in certs_69
    assert result.groups[(6, 10)] == [certificate(wheel(5))]


def test_generate_min3_seven_vertices():
    result = generate_min3(7)
    assert {k: len(v) for k, v in result.groups.items()} == {
        (6, 9): 2,
        (6, 10): 1,
        (7, 11): 3,
        (7, 12): 2,
    }
    assert result.count(7) == 5
    certs_712 = result.groups[(7, 12)]
    assert certificate(wheel(6)) in certs_712
    assert certificate(complete_bipartite_3(4)) in certs_712


def test_generate_min3_rejects_small_budget():
    with pytest.raises(ValueError):
        generate_min3(5)


def test_generated_buckets_are_cert_sorted_and_distinct():
    result = generate_min3(8)
    for certs in result.groups.values():
        assert certs == sorted(certs)
        assert len(certs) == len(set(certs))


def _sources(monkeypatch, run) -> list:
    """The sources that generate_min3 makes in run(), in the order it makes
    them, all in this process."""
    _one_process(monkeypatch)
    made = []
    real = min3gen.generator.source
    monkeypatch.setattr(min3gen.generator, "source", lambda g: made.append(real(g)) or made[-1])
    run()
    monkeypatch.setattr(min3gen.generator, "source", real)
    return made


def test_sources_hold_their_shelf_graph_and_generators(monkeypatch):
    # The walk makes each graph of a shelf before max_n a source once,
    # shelf by shelf in certificate order: its class's canonical labelling,
    # with generators of its automorphism group.
    made = _sources(monkeypatch, lambda: generate_min3(8))
    shelves = collect_shelves(8)
    assert len(shelves) == 7
    expected = [certificate(ent.graph) for (n, _), entries in shelves.items() if n < 8 for ent in entries]
    assert [encode_graph6(ent.graph) for ent in made] == expected
    for ent in made:
        assert certificate(ent.graph) == encode_graph6(ent.graph)
        assert ent.gens == automorphisms(ent.graph)


def test_every_shelf_entry_is_minimally_3_connected():
    # Bridging makes no intermediate graphs, so every shelf entry is an
    # A-class graph: 3-connected, and minimally so.
    for entries in collect_shelves(8).values():
        for ent in entries:
            assert is_3_connected(ent.graph)
            assert is_minimally_3_connected(ent.graph)


def test_emit_intermediate_does_not_change_outputs(tmp_path):
    plain, emitted = tmp_path / "plain", tmp_path / "emitted"
    assert main(["generate", "--max-n", "7", "--out", str(plain)]) == 0
    assert main(["generate", "--max-n", "7", "--out", str(emitted), "--emit-intermediate"]) == 0
    files = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in emitted.iterdir()) == sorted([*files, "shelves"])
    for name in files:
        assert (emitted / name).read_bytes() == (plain / name).read_bytes()
        assert (emitted / "shelves" / name).read_bytes() == (plain / name).read_bytes()


def test_min3_cubic_shelves_hold_the_cubic_run(min3_run):
    # A 3-connected cubic graph is minimally 3-connected, and shelf
    # (n, 3n/2) holds exactly those graphs, so the two walks agree there.
    min3, cubic = min3_run[0].groups, generate_cubic(10).groups
    keys = [(6, 9), (8, 12), (10, 15)]
    assert [len(min3[key]) for key in keys] == [2, 4, 14]
    assert [min3[key] for key in keys] == [cubic[key] for key in keys]


def _tree_digest(result: GeneratedSet, out) -> tuple[int, str]:
    """The outputs of result as write_outputs writes them: the file count,
    and the sha256 of each file's name, a NUL byte and its bytes, in name
    order."""
    write_outputs(result, out)
    paths = sorted(out.iterdir(), key=lambda p: p.name)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return len(paths), digest.hexdigest()


def test_the_tree_to_n11_is_pinned(tmp_path):
    # n = 10 and 11 are where the fans reject most sites, 19,311 of the
    # 35,334 up to n = 11.
    assert _tree_digest(generate_min3(11), tmp_path) == (29, "2ff8ff717cca95b11de9fc6fd54133df916438839fc0bd8244cc45b9750c1a4b")


def test_the_cubic_tree_to_n16_is_pinned(tmp_path):
    # The golden digest stops at n = 14, and n = 16 is where the canonical
    # path ranks most reductions: 47,806 validity tests up to n = 16,
    # against 4,662 up to n = 14.
    assert _tree_digest(generate_cubic(16), tmp_path) == (8, "072d76b3696edb8adfdb7565208b84c84f751c1282d3c8523006a4f3d70b6e1f")


def test_generation_is_deterministic():
    def snapshot(result: GeneratedSet) -> list:
        return list(result.groups.items())

    assert snapshot(generate_min3(7)) == snapshot(generate_min3(7))
    assert snapshot(generate_cubic(8)) == snapshot(generate_cubic(8))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a second process is forked")
def test_one_and_two_processes_give_equal_sets(monkeypatch):
    # The worker bridges the odd-indexed sources of each column or level,
    # and the shelves join as sets of certificates, so a run gives the same
    # groups whichever number of processes it splits its sources between.
    outputs8 = generate_min3(8)

    def runs():
        return generate_min3(9), generate_min3(9, resume=outputs8), generate_cubic(12)

    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: 1)
    one = runs()
    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: 2)
    assert runs() == one
    # With two processes, this one makes only the even-indexed sources of
    # each column: the prism alone, 2 of column 7's 3 and 8 of column 8's 16.
    made = []
    real = min3gen.generator.source
    monkeypatch.setattr(min3gen.generator, "source", lambda g: made.append(g.n) or real(g))
    assert generate_min3(9) == one[0]
    assert sorted(made) == [6] + [7] * 2 + [8] * 8


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a second process is forked")
def test_a_failing_worker_fails_the_run_and_leaves_no_process(monkeypatch):
    parent, certificate = os.getpid(), min3gen.generator.certificate

    def failing_in_the_worker(g):
        if os.getpid() != parent:
            raise ValueError("a fault in the worker")
        return certificate(g)

    monkeypatch.setattr(min3gen.generator, "_cpus", lambda: 2)
    monkeypatch.setattr(min3gen.generator, "certificate", failing_in_the_worker)
    with pytest.raises(RuntimeError, match="exited with 1"):
        generate_min3(9)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # An interrupt in this process while the worker runs kills the worker.
    monkeypatch.setattr(min3gen.generator, "certificate", certificate)
    source = min3gen.generator.source

    def interrupted_in_column_7(g):
        if os.getpid() == parent and g.n == 7:
            raise KeyboardInterrupt
        return source(g)

    monkeypatch.setattr(min3gen.generator, "source", interrupted_in_column_7)
    with pytest.raises(KeyboardInterrupt):
        generate_min3(9)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_progress_reporting():
    lines = []
    generate_min3(7, progress=lines.append)
    assert lines == ["min3 shelf n=7 m=11: 3 graphs", "min3 shelf n=7 m=12: 2 graphs"]
    cubic_lines = []
    generate_cubic(6, progress=cubic_lines.append)
    assert cubic_lines == ["cubic n=6: 2 graphs"]


def test_resume_from_any_earlier_tree_matches_a_fresh_run(outputs9, tmp_path):
    # The output directory is the checkpoint: a run to 9 resumed from the
    # written outputs of any earlier column, or of itself, is a fresh run.
    tree9 = read_outputs(outputs9)
    for max_n in (6, 7, 8, 9):
        out = tmp_path / f"n{max_n}"
        write_outputs(generate_min3(max_n), out)
        assert generate_min3(9, resume=read_outputs(out)) == tree9
    # A resumed set past max_n gives back its columns up to max_n.
    assert generate_min3(7, resume=tree9) == generate_min3(7)


def test_resume_that_reaches_max_n_decodes_nothing(outputs9, monkeypatch):
    # No column comes after the last, so no graph of the last two is read.
    tree9 = read_outputs(outputs9)
    decoded = []
    real = min3gen.generator.decode_graph6
    monkeypatch.setattr(min3gen.generator, "decode_graph6", lambda line: decoded.append(line) or real(line))
    assert generate_min3(9, resume=tree9) == tree9
    assert decoded == []


def test_resume_rejects_a_set_missing_a_group():
    groups = dict(generate_min3(8).groups)
    del groups[(8, 13)]
    with pytest.raises(CheckpointError, match=re.escape("columns 6 to 8 at (n, m) = [(8, 13)]")):
        generate_min3(9, resume=GeneratedSet("min3", groups))
    # K_4 is minimally 3-connected, but no run holds it.
    groups = {(4, 6): [certificate(wheel(3))], **generate_min3(7).groups}
    with pytest.raises(CheckpointError, match=re.escape("at (n, m) = [(4, 6)]")):
        generate_min3(8, resume=GeneratedSet("min3", groups))
    with pytest.raises(CheckpointError, match=re.escape("resumed set holds no column from 6 on")):
        generate_min3(8, resume=GeneratedSet("min3", {}))
    groups = {(5, 8): [certificate(wheel(4))]}
    with pytest.raises(CheckpointError, match=re.escape("no column from 6 on, only groups at (n, m) = [(5, 8)]")):
        generate_min3(8, resume=GeneratedSet("min3", groups))
    # An empty group would seed no source: n = 9 would lose a graph.
    groups = {**generate_min3(8).groups, (8, 12): []}
    with pytest.raises(CheckpointError, match=re.escape("hold no graph at (n, m) = [(8, 12)]")):
        generate_min3(9, resume=GeneratedSet("min3", groups))


def test_resume_rejects_a_set_of_another_mode():
    # Resumed as min3, a cubic set's groups would come back under its mode,
    # and write_outputs would write every n = 9 group to cubic_n9.g6.
    groups = generate_min3(8).groups
    with pytest.raises(CheckpointError, match=re.escape("resumed set is of the cubic mode, not min3")):
        generate_min3(9, resume=GeneratedSet("cubic", groups))


def test_resumed_sources_are_those_of_a_fresh_run(monkeypatch):
    # A resumed run decodes the certificates of its last two columns into
    # the sources a fresh run makes of them, graphs and generators alike.
    outputs8 = generate_min3(8)
    fresh = _sources(monkeypatch, lambda: generate_min3(9))
    resumed = _sources(monkeypatch, lambda: generate_min3(9, resume=outputs8))
    assert len(fresh) == 20
    assert resumed == fresh[1:]


def test_generate_cubic_counts_and_validity():
    result = generate_cubic(8)
    assert result.mode == "cubic"
    assert {k: len(v) for k, v in result.groups.items()} == {
        (4, 6): 1,
        (6, 9): 2,
        (8, 12): 4,
    }
    for bucket in result.groups.values():
        for c in bucket:
            g = decode_graph6(c)
            assert all(g.degree(v) == 3 for v in g.vertices)
            assert is_3_connected(g)
    certs6 = set(result.groups[(6, 9)])
    assert certs6 == {certificate(prism()), certificate(complete_bipartite_3(3))}


def test_orbit_representatives_bridge_to_the_classes_of_all_edge_pairs():
    # Every cubic source with n <= 12, the sources of levels up to n = 14.
    sources = [c for (n, _), bucket in generate_cubic(12).groups.items() for c in bucket]
    assert len(sources) == 78
    pruned = 0
    for cert in sources:
        g = decode_graph6(cert)
        es = g.edges()
        pairs = [(es[i], es[j]) for i in range(len(es)) for j in range(i + 1, len(es))]
        reps = [edges for _, edges in _orbit_representatives(g, (0, 2), automorphisms(g))]
        assert set(reps) <= set(pairs) and len(set(reps)) == len(reps)
        assert {certificate(bridge(g, (), pair)) for pair in reps} == {
            certificate(bridge(g, (), pair)) for pair in pairs
        }, cert
        # The cubic walk bridges through bridgings, which keeps every one,
        # and then certifies the children that construction does not skip.
        assert [site for _, site in bridgings(source(g), (0, 2))] == [((), pair) for pair in reps], cert
        pruned += len(pairs) - len(reps)
    assert pruned > 0


def test_generate_cubic_rejects_bad_budgets():
    with pytest.raises(ValueError):
        generate_cubic(7)
    with pytest.raises(ValueError):
        generate_cubic(2)
