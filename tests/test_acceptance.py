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
from helpers import collect_shelves, materialize, permuted_copy, random_graph
from min3gen import (
    apply_split_vertex,
    are_isomorphic_bruteforce,
    bridge,
    canonical_cycle,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    enumerate_cycles_bruteforce,
    extract_pattern,
    generate_cubic,
    generate_min3,
    has_only_essential_edges,
    is_3_compatible,
    is_3_connected,
    is_minimally_3_connected,
    prism,
    split_vertex,
    wheel,
)
from min3gen.cli import main as cli_main
from min3gen.cycles import PRISM_CYCLES
from min3gen.generator import source
from min3gen.io_validate import write_outputs

MIN3_CI_SECONDS = 600
CUBIC_CI_SECONDS = 300

# sha256 over the write_outputs tree, files sorted by name, each hashed as
# name + NUL + bytes.  Re-pinned only when output bytes change by design.
GOLDEN_DIGESTS = {
    "min3": (21, "56d2c949a62a76a7c730f2b6c46956af3d934b04c6794ecf7e73297ee23ea1c6"),
    "cubic": (7, "f596a6a671591f3bc45f150cfe7c759550a8a2b752041982806b7e99c3615198"),
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
def cubic_run():
    start = time.perf_counter()
    result = generate_cubic(14)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def shelves8():
    return collect_shelves(8)


def _tree_digest(out_dir) -> tuple[int, str]:
    h = hashlib.sha256()
    paths = sorted(out_dir.iterdir(), key=lambda p: p.name)
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return len(paths), h.hexdigest()


def test_golden_output_digests(min3_run, cubic_run, tmp_path_factory):
    for mode, run in (("min3", min3_run), ("cubic", cubic_run)):
        out_dir = tmp_path_factory.mktemp(f"golden_{mode}")
        write_outputs(run[0], out_dir)
        assert _tree_digest(out_dir) == GOLDEN_DIGESTS[mode], mode


def test_golden_shelf_digest(outputs9, tmp_path):
    # The shelves/ tree of `generate --max-n 9 --emit-intermediate` is the
    # output tree again.
    assert cli_main(["generate", "--max-n", "9", "--emit-intermediate", "--out", str(tmp_path)]) == 0
    assert _tree_digest(tmp_path / "shelves") == _tree_digest(outputs9)
    assert _tree_digest(outputs9)[0] == 14


def test_01_min3_counts(min3_run):
    result, elapsed = min3_run
    counts = {n: result.count(n) for n in range(6, 11)}
    ok = counts == {6: 3, 7: 5, 8: 18, 9: 57, 10: 285} and elapsed < MIN3_CI_SECONDS
    _report(1, "min3 counts n=6..10", ok)


def _is_cubic_3_connected(g) -> bool:
    return all(g.degree(v) == 3 for v in g.vertices) and is_3_connected(g)


@pytest.mark.slow
@pytest.mark.parametrize(
    "generate, max_n, published, oracle",
    [
        (generate_min3, 11, 1513, is_minimally_3_connected),
        (generate_min3, 12, 9824, is_minimally_3_connected),
        (generate_cubic, 16, 2828, _is_cubic_3_connected),  # OEIS A204198
    ],
    ids=["min3-11-1513", "min3-12-9824", "cubic-16-2828"],
)
def test_published_count_and_oracles(generate, max_n, published, oracle):
    # The next published counts beyond the tier-1 tables.
    result = generate(max_n)
    certs = [c for (n, _), bucket in result.groups.items() if n == max_n for c in bucket]
    graphs = [decode_graph6(c) for c in certs]
    assert len(graphs) == published
    assert [certificate(g) for g in graphs] == certs
    assert len(set(certs)) == published
    assert all(oracle(g) for g in graphs)
    if generate is generate_min3:
        # The exact fast test that the read path and validate use.
        assert all(has_only_essential_edges(g) for g in graphs)


@pytest.mark.slow
def test_resume_from_an_n10_checkpoint_matches_a_fresh_n11_run(tmp_path):
    # Every source of the n = 11 shelves is read from the n <= 10 output
    # directory, its cycle set enumerated, none carried over from a run.
    first, resumed, fresh = tmp_path / "first", tmp_path / "resumed", tmp_path / "fresh"
    assert cli_main(["generate", "--max-n", "10", "--out", str(first)]) == 0
    resume = ["--resume", str(first)]
    assert cli_main(["generate", "--max-n", "11", "--out", str(resumed), *resume]) == 0
    assert cli_main(["generate", "--max-n", "11", "--out", str(fresh)]) == 0
    files = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in resumed.iterdir()) == files
    assert all((resumed / name).read_bytes() == (fresh / name).read_bytes() for name in files)


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
    for shelf in shelves8.values():
        for ent in shelf:
            ok = ok and ent.cycles == enumerate_cycles_bruteforce(ent.graph)
            entries += 1
    ok = ok and entries > 0

    # dedicated split fixture: the prism's vertex 0 hands its edges to 1
    # and 3 to the new vertex x, whose two new edges close the cycle x123
    g = prism()
    split, x = split_vertex(g, 0, 1, 3)
    got = apply_split_vertex(enumerate_cycles_bruteforce(g), 0, 1, 3, x)
    ok = ok and got == enumerate_cycles_bruteforce(split)
    ok = ok and canonical_cycle((x, 1, 2, 3)) in got
    _report(4, "stored cycles match brute force", ok)


def test_05_prism_seed_cycles():
    expected = frozenset(
        canonical_cycle(tuple(int(ch) for ch in walk[:-1])) for walk in PRISM_WALKS
    )
    ok = len(expected) == 14
    ok = ok and PRISM_CYCLES == expected
    ok = ok and expected == enumerate_cycles_bruteforce(prism())
    _report(5, "seed cycle set matches the 14 listed cycles", ok)


def test_06_pattern_worked_examples():
    ok = extract_pattern((0, 1, 5, 4, 3), 1, 4, 3) == "a◇bc△"
    ok = ok and extract_pattern((0, 1, 2, 5, 4, 3), 1, 5, 3) == "a◇b△c□"
    _report(6, "pattern worked examples", ok)


def test_07_certificate_soundness(min3_run, cubic_run):
    ok = True
    pairs = 0
    classes = 0
    for result in (min3_run[0], cubic_run[0]):
        for key, bucket in result.groups.items():
            graphs = [decode_graph6(c) for c in bucket]
            # Each emitted certificate is the certificate of its own labelling.
            ok = ok and [certificate(g) for g in graphs] == bucket
            classes += len(bucket)
            if key[0] > 7:
                continue
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    same = bucket[i] == bucket[j]
                    ok = ok and same == are_isomorphic_bruteforce(graphs[i], graphs[j])
                    pairs += 1
    ok = ok and classes == 368 + 419
    rng = random.Random(20260819)
    # Cubic n=14 classes are regular, so their certificates rest on the
    # invariant split and the search: each relabelling must give it back.
    for cert in cubic_run[0].groups[(14, 21)]:
        g = decode_graph6(cert)
        ok = ok and all(certificate(permuted_copy(rng, g)) == cert for _ in range(3))
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
            ok = ok and bucket == [certificate(complete_bipartite_3(n - 3))]
            seen_extremal += 1
    ok = ok and seen_extremal == 3
    _report(8, "edge bound m <= 3n-9 with unique extremal graph", ok)


def test_09_recursion_worked_examples(k4, k33):
    cycles = enumerate_cycles_bruteforce(k4)
    ok = is_3_compatible(cycles, k4, (3,), ((0, 1),))
    bridged = bridge(k4, (3,), ((0, 1),))
    ok = ok and certificate(bridged) == certificate(wheel(4))

    certs = {certificate(ent.graph) for ent in materialize((3, 0), source(k33))}
    ok = ok and certs == {certificate(complete_bipartite_3(4))}
    _report(9, "D1 and D3 worked examples", ok)


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
    _report(10, "repeated runs are byte-identical", ok)
