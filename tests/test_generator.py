"""Shelf pipeline operations and both generation modes.

Counts for small vertex budgets are frozen here; the acceptance suite
extends them to the full published tables.  Structural checks (provenance
shapes, shelf dedup, determinism, intermediate persistence hooks) cover the
plumbing the counts alone would not.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

import min3gen.generator
from helpers import ancestor_graph, collect_shelves, materialize
from min3gen import (
    EdgePair,
    GeneratedSet,
    Graph,
    Provenance,
    Shelf,
    ShelfEntry,
    add_edge,
    bridge_edges,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    delete_vertex,
    generate_cubic,
    generate_min3,
    is_3_connected,
    is_3_compatible,
    is_minimally_3_connected,
    load_shelf,
    prism,
    run_shelf,
    save_shelf,
    wheel,
)
from min3gen.cli import main
from min3gen.cycles import enumerate_cycles_bruteforce
from min3gen.generator import (
    PRISM_CYCLES,
    c1,
    c2,
    c3,
    _edge_pair_representatives,
    derive_cycles,
    e1,
    e2,
)
from min3gen.records import A_TAGS, CLASS_TAGS, RESULT_TAGS


def _seed_entry():
    g = prism()
    return ShelfEntry(g, PRISM_CYCLES, Provenance("A0"))


def _b_entry(u=0, v=2):
    seed = _seed_entry()
    return next(
        ent for ent in materialize(seed, e1(seed)) if ent.provenance.added_edges == ((u, v),)
    )


def test_prism_cycle_table_matches_bruteforce():
    assert PRISM_CYCLES == enumerate_cycles_bruteforce(prism())
    assert len(PRISM_CYCLES) == 14


def test_e1_produces_one_entry_per_non_edge():
    seed = _seed_entry()
    out = materialize(seed, e1(seed))
    assert len(out) == 6
    for ent in out:
        assert ent.provenance.class_tag == "B"
        assert len(ent.provenance.added_edges) == 1
        assert (ent.graph.n, ent.graph.m) == (6, 10)
        assert ent.cycles is seed.cycles
        assert ent.cycles == enumerate_cycles_bruteforce(ancestor_graph(ent))
    # all six additions are equivalent up to symmetry
    assert len({certificate(ent.graph) for ent in out}) == 1


def test_e1_on_complete_graph_is_empty(k4):
    entry = ShelfEntry(k4, enumerate_cycles_bruteforce(k4), Provenance("A0"))
    assert e1(entry) == []


def test_e2_adds_second_edge_sharing_an_endpoint():
    b = _b_entry()
    out = materialize(b, e2(b))
    assert len(out) == 2
    assert sorted(ent.provenance.added_edges for ent in out) == [
        ((0, 2), (0, 5)),
        ((0, 2), (2, 4)),
    ]
    for ent in out:
        assert ent.provenance.class_tag == "C"
        first, second = ent.provenance.added_edges
        assert set(first) & set(second)
        assert (ent.graph.n, ent.graph.m) == (6, 11)
        assert ent.cycles is b.cycles
        assert ent.cycles == enumerate_cycles_bruteforce(ancestor_graph(ent))
    assert certificate(out[0].graph) == certificate(out[1].graph)


def test_c1_splits_both_endpoints():
    b = _b_entry()
    out = materialize(b, c1(b))
    assert len(out) == 6
    assert len({certificate(ent.graph) for ent in out}) == 3
    for ent in out:
        assert ent.provenance.class_tag == "A1"
        # (b, y): what the split made of the pending edge 0-2, y the new vertex.
        ((b, y),) = ent.provenance.added_edges
        assert y == ent.graph.n - 1 and b in (0, 2)
        assert ent.graph.has_edge(b, y) and ent.graph.has_edge(2 - b, y)
        assert (ent.graph.n, ent.graph.m) == (7, 11)
        assert ent.cycles == enumerate_cycles_bruteforce(ent.graph)
        assert is_minimally_3_connected(ent.graph)


def test_c3_composition_reaches_complete_bipartite(k33):
    seed = ShelfEntry(k33, enumerate_cycles_bruteforce(k33), Provenance("A0"))
    b = next(ent for ent in materialize(seed, e1(seed)) if ent.provenance.added_edges == ((0, 1),))
    c = next(ent for ent in materialize(b, e2(b)) if ent.provenance.added_edges == ((0, 1), (0, 2)))
    out = materialize(c, c3(c))
    assert len(out) == 1
    assert out[0].provenance == Provenance("A3")
    assert certificate(out[0].graph) == certificate(complete_bipartite_3(4))
    assert out[0].cycles == enumerate_cycles_bruteforce(out[0].graph)


def test_gates_read_only_the_ancestor_cycles():
    # c1 and c3 must decide exactly as they would on the entry's full cycle set.
    checked = 0
    for shelf in collect_shelves(8).values():
        for tag, gate in (("B", c1), ("C", c3)):
            for ent in shelf.entries(tag):
                full = dataclasses.replace(ent, cycles=enumerate_cycles_bruteforce(ent.graph))
                assert [c[:2] for c in gate(ent)] == [c[:2] for c in gate(full)]
                checked += 1
    assert checked > 0


def test_run_shelf_first_column():
    state = {(9, 6): Shelf(9, 6, {"A0": [_seed_entry()]})}
    shelf10 = run_shelf(state, 10, 6)
    assert (shelf10.m, shelf10.n) == (10, 6)
    assert len(shelf10.classes.get("B", [])) == 1
    assert not shelf10.classes.get("C")
    state[(10, 6)] = shelf10
    shelf11 = run_shelf(state, 11, 6)
    assert len(shelf11.classes.get("C", [])) == 1
    assert not shelf11.classes.get("B")


def test_run_shelf_dedups_across_classes():
    for shelf in collect_shelves(8).values():
        certs = [certificate(ent.graph) for ent in shelf.entries()]
        assert len(certs) == len(set(certs))
        for bucket in shelf.classes.values():
            bucket_certs = [certificate(e.graph) for e in bucket]
            assert bucket_certs == sorted(bucket_certs)
        # Only the classes the shelf adds to the result keep certificates.
        assert shelf.certs == sorted(certificate(e.graph) for e in shelf.entries(*RESULT_TAGS))


def test_final_shelf_has_no_scaffolding_and_no_cycle_sets():
    # Without a saver the final column is not kept, so a final shelf's
    # state holds no shelf (m-1, max_n) and B and C get no source.
    shelves = collect_shelves(8)
    state = {key: shelf for key, shelf in shelves.items() if key[1] != 8}
    checked = 0
    for (m, n), full in shelves.items():
        if n != 8:
            continue
        shelf = run_shelf(state, m, n, final=True)
        assert not shelf.entries("B", "C")
        for tag in RESULT_TAGS:
            assert [e.graph for e in shelf.entries(tag)] == [e.graph for e in full.entries(tag)]
        assert shelf.certs == full.certs
        assert all(e.cycles is None for e in shelf.entries())
        checked += len(shelf.entries())
    assert checked == 16


def _traced_rule(ruled, n, rule):
    ruled.append(n)
    return rule()


def test_final_column_derives_no_cycle_sets(monkeypatch, tmp_path):
    # With or without a saver, no rule runs for a candidate of the column
    # n = max_n, and every entry there has cycles=None.
    ruled = []

    def tracing(op):
        def traced(entry):
            return [
                (g, prov, functools.partial(_traced_rule, ruled, g.n, rule)) for g, prov, rule in op(entry)
            ]

        return traced

    for name in ("e1", "e2", "c1", "c2", "c3"):
        monkeypatch.setattr(min3gen.generator, name, tracing(getattr(min3gen.generator, name)))
    saved = []
    for saver in (None, saved.append):
        ruled.clear()
        generate_min3(8, shelf_saver=saver)
        assert 7 in ruled and 8 not in ruled
    final = [shelf for shelf in saved if shelf.n == 8]
    assert final and any(shelf.entries("B", "C") for shelf in final)
    assert all(ent.cycles is None for shelf in final for ent in shelf.entries())
    # A resume that saves every shelf derives sets for no loaded final shelf.
    derived_for = []

    def recording(shelf, state):
        derived_for.append(shelf.n)
        return derive_cycles(shelf, state)

    monkeypatch.setattr(min3gen.generator, "derive_cycles", recording)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["generate", "--max-n", "8", "--out", str(first), "--emit-intermediate"]) == 0
    resume = ["--resume", str(first / "shelves"), "--emit-intermediate"]
    assert main(["generate", "--max-n", "8", "--out", str(second), *resume]) == 0
    assert 7 in derived_for and 8 not in derived_for


def test_generate_min3_keeps_no_compiled_cycle_sets():
    generate_min3(8)
    assert min3gen.compat._compile.cache_info().currsize == 0


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


def test_provenance_shapes_across_shelves():
    shelves = collect_shelves(8)
    assert shelves
    seen_tags = set()
    for (m, n), shelf in shelves.items():
        assert (shelf.m, shelf.n) == (m, n)
        for tag, bucket in shelf.classes.items():
            assert tag in CLASS_TAGS
            seen_tags.add(tag)
            for ent in bucket:
                assert ent.graph.m == m and ent.graph.n == n
                prov = ent.provenance
                assert prov.class_tag == tag
                if tag in RESULT_TAGS:
                    # The last split made the last vertex, of degree 3.
                    assert ent.graph.degree(n - 1) == 3
                if tag == "B":
                    (e_first,) = prov.added_edges
                    assert ent.graph.has_edge(*e_first)
                elif tag == "C":
                    e_first, e_second = prov.added_edges
                    assert len(set(e_first) & set(e_second)) == 1
                    assert ent.graph.has_edge(*e_first) and ent.graph.has_edge(*e_second)
                elif tag == "A1":
                    # (b, y): the split's new vertex y keeps the B entry's edge.
                    ((b, y),) = prov.added_edges
                    assert y == n - 1 and ent.graph.has_edge(b, y)
                elif tag == "A2":
                    # c2 splits the A1 entry's b so that the new vertex takes its y.
                    assert prov.added_edges == ()
                    assert ent.graph.has_edge(n - 2, n - 1)
                else:
                    assert prov.added_edges == ()
    assert {"A0", "B", "C", "A1", "A2", "A3"} <= seen_tags


def _c2_by_definition(entry: ShelfEntry) -> set[str]:
    """Certificates of the edge-pair bridgings c2 must build from an A1 entry.

    The entry is A with edge cd bridged to vertex b by the new vertex y, so
    c2 bridges cd with each edge ab of A, adjacent pairs (a = d) included,
    whenever {ab, cd} is 3-compatible in A.
    """
    ((b, y),) = entry.provenance.added_edges
    c, d = (w for w in entry.graph.neighbors(y) if w != b)
    assert y == entry.graph.n - 1  # so deleting y keeps every other label
    base = delete_vertex(entry.graph, y)
    a_graph = add_edge(base, c, d)
    cycles = enumerate_cycles_bruteforce(a_graph)
    return {
        certificate(bridge_edges(a_graph, (a, b), (c, d))[0])
        for a in a_graph.neighbors(b)
        if is_3_compatible(cycles, a_graph, EdgePair((a, b), (c, d)))
    }


def test_c2_builds_exactly_the_compatible_edge_pair_bridgings():
    checked = 0
    for shelf in collect_shelves(9).values():
        for ent in shelf.entries("A1"):
            assert {certificate(g) for g, *_ in c2(ent)} == _c2_by_definition(ent), ent.graph.edges()
            checked += 1
    assert checked > 50


def test_c2_rejects_an_incompatible_pair_reached_through_another_neighbour():
    # An A1 entry (b = 0, c = 2, d = 5, y = 10) whose A-graph vertex b has
    # degree 3.  Splitting b so that the new vertex takes two of b's three
    # A-neighbours is the bridging of cd with b's third edge, which is not
    # 3-compatible here: both such splits have the removable edge 2-7.
    g = Graph(11, [
        (0, 6), (0, 8), (0, 9), (0, 10), (1, 2), (1, 5), (1, 8), (2, 7), (2, 8),
        (2, 10), (3, 4), (3, 7), (3, 9), (4, 5), (4, 6), (5, 10), (6, 7), (7, 9),
    ])
    prov = Provenance("A1", ((0, 10),))
    entry = ShelfEntry(g, enumerate_cycles_bruteforce(g), prov)
    assert set(g.neighbors(10)) == {0, 2, 5}
    candidates = c2(entry)
    assert {certificate(h) for h, *_ in candidates} == _c2_by_definition(entry)
    assert all(is_minimally_3_connected(h) for h, *_ in candidates)


def test_a_classes_are_minimal_and_intermediates_are_not():
    for shelf in collect_shelves(8).values():
        for ent in shelf.entries(*A_TAGS):
            assert is_minimally_3_connected(ent.graph)
        for ent in shelf.entries("B", "C"):
            assert is_3_connected(ent.graph)
            assert not is_minimally_3_connected(ent.graph)


def test_emit_intermediate_does_not_change_outputs():
    # A shelf_saver makes the final column keep its B and C classes too.
    plain = generate_min3(7)
    saved = []
    with_bc = generate_min3(7, shelf_saver=saved.append)
    assert any(shelf.n == 7 and shelf.entries("B", "C") for shelf in saved)
    assert with_bc.groups == plain.groups


def test_generation_is_deterministic():
    def snapshot(result: GeneratedSet) -> list:
        return list(result.groups.items())

    assert snapshot(generate_min3(7)) == snapshot(generate_min3(7))
    assert snapshot(generate_cubic(8)) == snapshot(generate_cubic(8))


def test_progress_reporting():
    lines = []
    generate_min3(6, progress=lines.append)
    assert lines
    assert all(line.startswith("min3 shelf") for line in lines)
    cubic_lines = []
    generate_cubic(6, progress=cubic_lines.append)
    assert cubic_lines == ["cubic n=6: 2 graphs"]


def test_shelf_saver_and_loader_round_trip():
    saved = {}

    def saver(shelf):
        saved[(shelf.m, shelf.n)] = shelf

    baseline = generate_min3(7, shelf_saver=saver)
    assert set(saved) == {(10, 6), (11, 6), (11, 7), (12, 7), (13, 7), (14, 7)}

    loads = []

    def loader(m, n):
        loads.append((m, n))
        return saved.get((m, n))

    replayed = generate_min3(7, shelf_loader=loader)
    assert loads
    assert replayed.groups == baseline.groups


def test_loaded_shelves_derive_the_cycle_sets_a_run_stores(tmp_path):
    # Loaded and derived in walk order, row by row, each shelf reads the
    # derived shelf (m-1, n) before it, as in a resumed run.
    shelves = collect_shelves(8)
    derived = {}
    shared = 0
    for (m, n), shelf in sorted(shelves.items()):
        path = tmp_path / f"shelf_m{m}_n{n}.tsv"
        save_shelf(shelf, path)
        loaded = load_shelf(path, (m, n))
        derive_cycles(loaded, derived)
        prev = derived.get((m - 1, n))
        prev_sets = {id(ent.cycles) for ent in prev.entries()} if prev else set()
        for tag in CLASS_TAGS:
            stored = shelf.classes.get(tag, [])
            got = loaded.classes.get(tag, [])
            assert [e.graph for e in got] == [e.graph for e in stored]
            for ent, ref in zip(got, stored):
                assert ent.cycles == ref.cycles
                if tag in ("B", "C"):
                    assert id(ent.cycles) in prev_sets
                    shared += 1
        derived[(m, n)] = loaded
    assert shared > 200


def test_derive_cycles_rejects_a_scaffold_entry_without_an_ancestor():
    shelves = collect_shelves(7)
    state = {(10, 6): shelves[(10, 6)]}
    shelf = shelves[(11, 6)]
    c_entry = shelf.entries("C")[0]
    # Another second edge from the same first: the graph minus both pending
    # edges is no longer the B entry's ancestor.
    first, second = c_entry.provenance.added_edges
    other = next(e for e in c_entry.graph.edges() if e not in (first, second) and set(e) & set(first))
    moved = ShelfEntry(c_entry.graph, None, Provenance("C", (first, other)))
    with pytest.raises(min3gen.ShelfFileError, match=r"shelf \(m, n\) = \(11, 6\): C entry"):
        derive_cycles(Shelf(11, 6, {"C": [moved]}), state)
    derive_cycles(Shelf(11, 6, {"C": [dataclasses.replace(c_entry, cycles=None)]}), state)


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
        reps = _edge_pair_representatives(g)
        assert set(reps) <= set(pairs) and len(set(reps)) == len(reps)
        assert {certificate(bridge_edges(g, e, f)[0]) for e, f in reps} == {
            certificate(bridge_edges(g, e, f)[0]) for e, f in pairs
        }, cert
        pruned += len(pairs) - len(reps)
    assert pruned > 0


def test_generate_cubic_rejects_bad_budgets():
    with pytest.raises(ValueError):
        generate_cubic(7)
    with pytest.raises(ValueError):
        generate_cubic(2)
