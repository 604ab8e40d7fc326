"""Gate suite: the ten acceptance criteria, one test and one verdict line each.

Every test funnels through _report, which prints an `acceptance NN name:
PASS/FAIL` line (replayed in the terminal summary by conftest) and then
asserts.  Expensive generator runs are shared through module fixtures.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from conftest import record_acceptance
from helpers import ancestor_graph, complete_graph, materialize, permuted_copy, random_graph
from min3gen import (
    Graph,
    VertexEdge,
    apply_flip_edge,
    are_isomorphic_bruteforce,
    bridge_vertex_edge,
    canonical_cycle,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    enumerate_cycles_bruteforce,
    extract_pattern,
    flip_edge,
    generate_cubic,
    generate_min3,
    is_3_compatible,
    is_3_connected,
    is_minimally_3_connected,
    prism,
    wheel,
)
from min3gen.cli import main as cli_main
from min3gen.generator import c3, e1, e2
from min3gen.io_validate import write_outputs
from min3gen.records import Provenance, ShelfEntry

MIN3_CI_SECONDS = 600
CUBIC_CI_SECONDS = 300

# sha256 over the write_outputs tree, files sorted by name, each hashed as
# name + NUL + bytes.  Re-pinned only when output bytes change by design.
GOLDEN_DIGESTS = {
    "min3": (21, "d04124e8730aa7a48fbe72867c2594056272b8f8504f1be0bb5d253c68b8a3f4"),
    "cubic": (7, "b1e1e05450bcf773da38f6d00fcf211b42cd7d15471192be0ac90d02aee0071b"),
}

# the seed's cycle list, closed-walk notation, retyped from the source table
PRISM_WALKS = (
    "015430", "0125430", "0152340", "0321540", "123451", "012540", "015230",
    "012340", "23452", "1251", "032540", "01540", "0340", "01230",
)


def _report(num: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    record_acceptance(f"acceptance {num:02d} {name}: {verdict}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def min3_run():
    start = time.perf_counter()
    result = generate_min3(10)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def cubic_run():
    start = time.perf_counter()
    result = generate_cubic(14)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def shelves8():
    return generate_min3(8, keep_shelves=True)


def _output_digest(result, out_dir) -> tuple[int, str]:
    write_outputs(result, out_dir)
    h = hashlib.sha256()
    paths = sorted(out_dir.iterdir(), key=lambda p: p.name)
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return len(paths), h.hexdigest()


def test_golden_output_digests(min3_run, cubic_run, tmp_path_factory):
    for mode, run in (("min3", min3_run), ("cubic", cubic_run)):
        digest = _output_digest(run[0], tmp_path_factory.mktemp(f"golden_{mode}"))
        assert digest == GOLDEN_DIGESTS[mode], mode


def test_01_min3_counts(min3_run):
    result, elapsed = min3_run
    counts = {n: result.count(n) for n in range(6, 11)}
    ok = counts == {6: 3, 7: 5, 8: 18, 9: 57, 10: 285} and elapsed < MIN3_CI_SECONDS
    _report(1, "min3 counts n=6..10", ok)


@pytest.mark.slow
def test_min3_n11_count_and_oracles():
    # The next published count, 1513, beyond the tier-1 table.
    result = generate_min3(11)
    graphs = [g for (n, _), bucket in result.groups.items() if n == 11 for _, g in bucket]
    assert len(graphs) == 1513
    assert len({certificate(g) for g in graphs}) == 1513
    assert all(is_minimally_3_connected(g) for g in graphs)


def test_02_cubic_counts(cubic_run):
    result, elapsed = cubic_run
    counts = {n: result.count(n) for n in range(4, 15, 2)}
    expected = {4: 1, 6: 2, 8: 4, 10: 14, 12: 57, 14: 341}
    _report(2, "cubic counts n=4..14", counts == expected and elapsed < CUBIC_CI_SECONDS)


def test_03_emitted_files_pass_oracles(min3_run, cubic_run, tmp_path_factory):
    checked = 0
    ok = True
    min3_dir = tmp_path_factory.mktemp("accept_min3")
    write_outputs(min3_run[0], min3_dir)
    for path in sorted(min3_dir.glob("*.g6")):
        for line in path.read_text().splitlines():
            ok = ok and is_minimally_3_connected(decode_graph6(line))
            checked += 1
    cubic_dir = tmp_path_factory.mktemp("accept_cubic")
    write_outputs(cubic_run[0], cubic_dir)
    for path in sorted(cubic_dir.glob("*.g6")):
        for line in path.read_text().splitlines():
            g = decode_graph6(line)
            ok = ok and all(g.degree(v) == 3 for v in g.vertices) and is_3_connected(g)
            checked += 1
    ok = ok and checked == 368 + 419
    _report(3, "all emitted graphs pass oracles", ok)


def test_04_cycle_propagation_equivalence(shelves8):
    ok = True
    entries = 0
    for shelf in shelves8.shelves.values():
        for ent in shelf.entries():
            ok = ok and ent.cycles == enumerate_cycles_bruteforce(ancestor_graph(ent))
            entries += 1
    ok = ok and entries > 0

    # dedicated cycle-merge fixture: two triangles glued at b only
    g = Graph(5, [(0, 1), (0, 3), (3, 1), (1, 2), (1, 4), (4, 2)])
    cs = enumerate_cycles_bruteforce(g)
    flipped = apply_flip_edge(cs, 0, 1, 2)
    merged = canonical_cycle((0, 3, 1, 4, 2))
    ok = ok and cs == frozenset({(0, 1, 3), (1, 2, 4)})
    ok = ok and merged in flipped
    ok = ok and flipped == enumerate_cycles_bruteforce(flip_edge(g, 0, 1, 2))
    _report(4, "stored cycles match brute force", ok)


def test_05_prism_seed_cycles(shelves8):
    expected = frozenset(
        canonical_cycle(tuple(int(ch) for ch in walk[:-1])) for walk in PRISM_WALKS
    )
    seed = shelves8.shelves[(9, 6)].classes["A0"][0]
    ok = len(expected) == 14
    ok = ok and seed.cycles == expected
    ok = ok and expected == enumerate_cycles_bruteforce(prism())
    _report(5, "seed cycle set matches the 14 listed cycles", ok)


def test_06_pattern_worked_examples():
    ok = extract_pattern((0, 1, 5, 4, 3), 1, 4, 3) == "a◇bc△"
    ok = ok and extract_pattern((0, 1, 2, 5, 4, 3), 1, 5, 3) == "a◇b△c□"
    _report(6, "pattern worked examples", ok)


def test_07_certificate_soundness(min3_run, cubic_run):
    ok = True
    pairs = 0
    for result in (min3_run[0], cubic_run[0]):
        for key, bucket in result.groups.items():
            if key[0] > 7:
                continue
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    ci, gi = bucket[i]
                    cj, gj = bucket[j]
                    ok = ok and (ci == cj) == are_isomorphic_bruteforce(gi, gj)
                    pairs += 1
    rng = random.Random(20260819)
    for i in range(10000):
        g1 = random_graph(rng, rng.randint(1, 7), rng.random())
        if i % 3 == 0:
            g2 = permuted_copy(rng, g1)
        else:
            g2 = random_graph(rng, rng.randint(1, 7), rng.random())
        same = certificate(g1) == certificate(g2)
        ok = ok and same == are_isomorphic_bruteforce(g1, g2)
        pairs += 1
    ok = ok and pairs > 10000
    _report(7, "certificate equality iff isomorphism", ok)


def test_08_edge_bound_with_extremal_graphs(min3_run):
    ok = True
    seen_extremal = 0
    for (n, m), bucket in min3_run[0].groups.items():
        if n < 8:
            continue
        ok = ok and m <= 3 * n - 9
        if m == 3 * n - 9:
            ok = ok and [c for c, _ in bucket] == [certificate(complete_bipartite_3(n - 3))]
            seen_extremal += 1
    ok = ok and seen_extremal == 3
    _report(8, "edge bound m <= 3n-9 with unique extremal graph", ok)


def test_09_recursion_worked_examples(k4, k33):
    cycles = enumerate_cycles_bruteforce(k4)
    ok = is_3_compatible(cycles, k4, VertexEdge(3, (0, 1)))
    bridged, _ = bridge_vertex_edge(k4, 3, 0, 1)
    ok = ok and certificate(bridged) == certificate(wheel(4))

    seed = ShelfEntry(k33, enumerate_cycles_bruteforce(k33), Provenance("A0"), certificate(k33))
    certs = set()
    for b in materialize(seed, e1(seed)):
        for c in materialize(b, e2(b)):
            certs.update(ent.cert for ent in materialize(c, c3(c)))
    ok = ok and certificate(complete_bipartite_3(4)) in certs
    _report(9, "bridge and split worked examples", ok)


def test_10_determinism(tmp_path_factory):
    def tree(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    ok = True
    for mode, max_n in (("min3", "8"), ("cubic", "10")):
        first = tmp_path_factory.mktemp(f"det_{mode}_a")
        second = tmp_path_factory.mktemp(f"det_{mode}_b")
        argv = ["generate", "--mode", mode, "--max-n", max_n]
        ok = ok and cli_main(argv + ["--out", str(first)]) == 0
        ok = ok and cli_main(argv + ["--out", str(second)]) == 0
        files = tree(first)
        ok = ok and files and files == tree(second)
    _report(10, "single-threaded runs are byte-identical", ok)
