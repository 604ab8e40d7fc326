"""graph6 codec, connectivity oracles, and output trees, written and read back.

networkx serves as the outside reference for graph6, and a from-scratch
definition scan (helpers module) anchors the connectivity oracles.  The
exact fast minimality test that the read path uses is checked against the
naive oracle.  An AST check keeps this module import-independent from the
incremental machinery it is supposed to validate.
"""

from __future__ import annotations

import ast
import random
import re
import shutil
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

import min3gen.io_validate
from helpers import (
    complete_graph,
    cube_graph,
    cycle_graph,
    def_3_connected,
    def_minimally_3_connected,
    petersen,
    random_graph,
    three_connected_graphs,
)
from min3gen import (
    Graph,
    add_edge,
    certificate,
    decode_graph6,
    delete_edge,
    encode_graph6,
    generate_cubic,
    generate_min3,
    has_only_essential_edges,
    is_3_connected,
    is_minimally_3_connected,
    prism,
    read_outputs,
    wheel,
    write_outputs,
)
from min3gen.io_validate import CheckpointError, default_out_dir


def test_graph6_fixed_strings(k4):
    assert encode_graph6(k4) == "C~"
    assert encode_graph6(Graph(1, [])) == "@"
    assert encode_graph6(Graph(5, [])) == "D??"
    assert encode_graph6(Graph(2, [(0, 1)])) == "A_"


def test_graph6_roundtrip():
    rng = random.Random(79)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_matches_networkx():
    rng = random.Random(83)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 15), rng.random())
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert encode_graph6(g) == theirs
        back = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert sorted(back.edges()) == g.edges()
        assert back.number_of_nodes() == g.n


def test_graph6_decode_header_and_strictness(k4):
    assert decode_graph6(">>graph6<<C~") == k4
    assert decode_graph6("C~\n") == k4
    with pytest.raises(ValueError):
        decode_graph6("")
    with pytest.raises(ValueError):
        decode_graph6("C\x1c")
    with pytest.raises(ValueError):
        decode_graph6("C")
    with pytest.raises(ValueError):
        decode_graph6("C~~")
    with pytest.raises(ValueError):
        decode_graph6("A@")  # nonzero padding bits
    with pytest.raises(ValueError):
        decode_graph6("~??")  # n > 62 size prefix
    with pytest.raises(ValueError):
        encode_graph6(Graph(63, []))


def test_connectivity_fixed_cases(k33):
    assert is_3_connected(wheel(3))
    assert is_minimally_3_connected(wheel(3))
    assert is_3_connected(complete_graph(5))
    assert not is_minimally_3_connected(complete_graph(5))
    assert is_minimally_3_connected(prism())
    assert is_minimally_3_connected(k33)
    assert is_minimally_3_connected(wheel(5))
    assert is_minimally_3_connected(petersen())
    assert is_minimally_3_connected(cube_graph())
    assert not is_3_connected(cycle_graph(6))
    assert not is_3_connected(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]))
    assert not is_3_connected(Graph(3, [(0, 1), (1, 2), (2, 0)]))


def test_connectivity_matches_definition_scan():
    rng = random.Random(89)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert is_3_connected(g) == def_3_connected(g)
        assert is_minimally_3_connected(g) == def_minimally_3_connected(g)
        assert has_only_essential_edges(g) == def_minimally_3_connected(g)


def test_has_only_essential_edges_fixed_cases(k33):
    # K5 less the edge 3-4: less 0-1 too, it keeps the paths 0-2-1, 0-3-1
    # and 0-4-1, so 0-1 is removable.
    assert not has_only_essential_edges(delete_edge(complete_graph(5), 3, 4))
    # Every edge of a wheel ends at a rim vertex, of degree 3.
    assert has_only_essential_edges(wheel(5))
    # K_{3,3} plus an edge inside a class: less it, K_{3,3} itself.
    assert not has_only_essential_edges(add_edge(k33, 0, 1))


def _record_3_connectivity_checks(monkeypatch) -> list[Graph]:
    """Patch io_validate.is_3_connected to record each graph it checks."""
    checked: list[Graph] = []
    check = min3gen.io_validate.is_3_connected
    monkeypatch.setattr(min3gen.io_validate, "is_3_connected", lambda g: checked.append(g) or check(g))
    return checked


def test_fast_minimality_test_rejects_a_graph_that_is_not_3_connected(monkeypatch):
    # Two copies of K5 glued at the vertices 0 and 1: {0, 1} separates
    # them, though every edge joins vertices of degree 4 or more.
    glued = Graph(8, [*combinations(range(5), 2), *combinations((0, 1, 5, 6, 7), 2)])
    # The graph's own check settles it, with no edge re-checked.
    checked = _record_3_connectivity_checks(monkeypatch)
    assert not has_only_essential_edges(glued)
    assert checked == [glued]
    checked.clear()
    assert not has_only_essential_edges(complete_graph(3))
    assert checked == [complete_graph(3)]


def test_fast_minimality_test_matches_the_oracle_on_the_outputs(min3_run, monkeypatch):
    # Every output up to n = 10, and one supergraph of each by its first
    # missing edge, which that edge makes not minimal.
    graphs = [decode_graph6(c) for bucket in min3_run[0].groups.values() for c in bucket]
    assert len(graphs) == 368
    checked = _record_3_connectivity_checks(monkeypatch)
    searched = []
    search = min3gen.io_validate._separated

    def searching(masks, u, v, cut, more):
        if not cut:
            searched.append((u, v))
        return search(masks, u, v, cut, more)

    monkeypatch.setattr(min3gen.io_validate, "_separated", searching)
    assert all(has_only_essential_edges(g) for g in graphs)
    # One 3-connectivity check per graph; degree 3 settles all but a few of
    # the 5,897 edges, each of which costs one separator search.
    assert (sum(g.m for g in graphs), len(checked), len(searched)) == (5897, 368, 14)
    supergraphs = []
    for g in graphs:
        u, v = next(e for e in combinations(g.vertices, 2) if not g.has_edge(*e))
        supergraphs.append(add_edge(g, u, v))
    assert not any(has_only_essential_edges(g) for g in supergraphs)
    assert all(is_minimally_3_connected(g) for g in graphs)
    assert not any(is_minimally_3_connected(g) for g in supergraphs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(three_connected_graphs())
def test_fast_minimality_test_matches_the_oracle(g):
    assert is_3_connected(g)
    assert has_only_essential_edges(g) == is_minimally_3_connected(g)


def test_output_trees_round_trip(tmp_path):
    # An output tree is the checkpoint a run resumes from.
    for max_n in (6, 7, 8):
        result = generate_min3(max_n)
        write_outputs(result, tmp_path / str(max_n))
        assert read_outputs(tmp_path / str(max_n)) == result


@pytest.fixture(scope="module")
def tree7(tmp_path_factory):
    tree = tmp_path_factory.mktemp("tree7")
    write_outputs(generate_min3(7), tree)
    return tree


def test_output_tree_validation(tree7, tmp_path):
    # Files of the n <= 7 tree: min3_n6_m9.g6 holds the prism and K_{3,3},
    # min3_n6_m10.g6 W_5, min3_n7_m11.g6 three graphs.
    counts = "n\tm\tcount\n6\t9\t2\n6\t10\t1\n7\t11\t3\n7\t12\t2\n"
    first, rest = (tree7 / "min3_n7_m11.g6").read_text().split("\n", 1)
    g = decode_graph6(first)
    relabelled = encode_graph6(Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]))
    cases = {
        "header": ("counts.tsv", counts.replace("count", "graphs"), "counts.tsv:1: expected the header n, m, count"),
        "row-fields": ("counts.tsv", counts.replace("6\t10\t1", "6\t10"), "counts.tsv:3: not enough values"),
        "row-value": ("counts.tsv", counts.replace("6\t10\t1", "6\t10\tone"), "counts.tsv:3: invalid literal"),
        "row-repeated": ("counts.tsv", counts + "7\t11\t3\n", "counts.tsv:6: repeats the row of (n, m) = (7, 11)"),
        "graph6": ("min3_n7_m11.g6", "C!\n" + rest, "min3_n7_m11.g6:1: invalid graph6 character"),
        "separator": ("min3_n7_m11.g6", first + "\x1c\n" + rest, "min3_n7_m11.g6:1: invalid graph6 character"),
        "not-text": ("min3_n7_m11.g6", first[:-1] + "\xff\n" + rest, "min3_n7_m11.g6:1: invalid graph6 character"),
        "blank-line": ("min3_n7_m11.g6", "\n" + rest, "min3_n7_m11.g6:1: empty graph6 string"),
        "blank-end": ("min3_n6_m10.g6", "E|fG\n\n", "min3_n6_m10.g6: holds 2 lines, but counts.tsv says 1"),
        "other-size": ("min3_n7_m11.g6", "C~\n" + rest, "min3_n7_m11.g6:1: graph has (n, m) = (4, 6), not the file's (7, 11)"),
        # The prism plus the edge 0-2: 3-connected, not minimally so.
        "not-minimal": ("min3_n6_m10.g6", "E|dg\n", "min3_n6_m10.g6:1: graph is not minimally 3-connected"),
        # The first graph with its vertex order reversed: its class, not its
        # canonical labelling.
        "relabelled": ("min3_n7_m11.g6", relabelled + "\n" + rest, "min3_n7_m11.g6:1: line is not its own certificate"),
        "header-line": ("min3_n6_m10.g6", ">>graph6<<E|fG\n", "min3_n6_m10.g6:1: line is not its own certificate"),
        "repeated": ("min3_n7_m11.g6", f"{first}\n{first}\n" + rest.split("\n", 1)[1],
                     f"min3_n7_m11.g6:2: graph {first} repeats line 1"),
    }
    assert relabelled != first and read_outputs(tree7) == generate_min3(7)
    for case, (name, text, message) in cases.items():
        tree = tmp_path / case
        shutil.copytree(tree7, tree)
        (tree / name).write_bytes(text.encode("latin-1"))
        with pytest.raises(CheckpointError, match=re.escape(f"{tree / message}")):
            read_outputs(tree)


def test_every_cut_of_a_group_file_is_rejected(tmp_path):
    # The largest graph file of the n <= 8 tree.
    full = tmp_path / "full"
    write_outputs(generate_min3(8), full)
    path = max(full.glob("*.g6"), key=lambda p: p.stat().st_size)
    assert path.name == "min3_n8_m13.g6"
    text = path.read_text()
    expected = read_outputs(full)
    path.write_text(text[:-1])
    assert read_outputs(full) == expected
    # Cut at every line boundary and in the middle of every line.
    starts = [0] + [i + 1 for i, ch in enumerate(text[:-1]) if ch == "\n"]
    cuts = sorted({*starts, *((a + b) // 2 for a, b in zip(starts, starts[1:] + [len(text)]))})
    assert len(cuts) == 22
    for cut in cuts:
        path.write_text(text[:cut])
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            read_outputs(full)


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def test_write_outputs_min3(tmp_path):
    result = generate_min3(7)
    written = write_outputs(result, tmp_path)
    assert [p.name for p in written] == [
        "min3_n6_m9.g6",
        "min3_n6_m10.g6",
        "min3_n7_m11.g6",
        "min3_n7_m12.g6",
        "counts.tsv",
    ]
    assert (tmp_path / "counts.tsv").read_text() == (
        "n\tm\tcount\n6\t9\t2\n6\t10\t1\n7\t11\t3\n7\t12\t2\n"
    )
    # line k is the group's k-th certificate, the graph6 of a canonical labelling
    for key, bucket in result.groups.items():
        n, m = key
        lines = (tmp_path / f"min3_n{n}_m{m}.g6").read_text().splitlines()
        assert lines == bucket
        assert [certificate(decode_graph6(line)) for line in lines] == bucket


def test_write_outputs_cubic(tmp_path):
    result = generate_cubic(6)
    written = write_outputs(result, tmp_path)
    assert [p.name for p in written] == ["cubic_n4.g6", "cubic_n6.g6", "counts.tsv"]
    assert (tmp_path / "counts.tsv").read_text() == "n\tm\tcount\n4\t6\t1\n6\t9\t2\n"
    for (n, _), bucket in result.groups.items():
        assert (tmp_path / f"cubic_n{n}.g6").read_text().splitlines() == bucket


def test_default_out_dir(monkeypatch):
    monkeypatch.delenv("MIN3GEN_OUT", raising=False)
    assert default_out_dir("explicit") == Path("explicit")
    assert default_out_dir(None) == Path("out")
    monkeypatch.setenv("MIN3GEN_OUT", "/tmp/envdir")
    assert default_out_dir(None) == Path("/tmp/envdir")
    assert default_out_dir("explicit") == Path("explicit")


def _imported_local_modules(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_validation_oracles_are_import_independent():
    # The oracles must not lean on the machinery they are checking.
    forbidden = {"cycles", "compat", "generator"}
    assert _imported_local_modules(min3gen.io_validate).isdisjoint(forbidden)
