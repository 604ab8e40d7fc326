"""graph6 codec, connectivity oracles, shelf files, and output layout.

networkx serves as the outside reference for graph6, and a from-scratch
definition scan (helpers module) anchors the connectivity oracles.  An AST
check keeps this module import-independent from the incremental machinery
it is supposed to validate.
"""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path

import networkx as nx
import pytest

import min3gen.io_validate
import min3gen.records
from helpers import (
    collect_shelves,
    complete_graph,
    cube_graph,
    cycle_graph,
    def_3_connected,
    def_minimally_3_connected,
    permuted_copy,
    petersen,
    random_graph,
)
from min3gen import (
    Graph,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    encode_graph6,
    generate_cubic,
    generate_min3,
    is_3_connected,
    is_minimally_3_connected,
    load_shelf,
    prism,
    save_shelf,
    wheel,
    write_outputs,
)
from min3gen.io_validate import SHELF_VERSION, ShelfFileError, _direct_family, default_out_dir


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


def _as_loaded(shelf):
    """The shelf as load_shelf gives it back: each entry is its class's
    canonical labelling, the graph of its certificate, with no cycle set."""
    entries = [min3gen.records.ShelfEntry(decode_graph6(c), None) for c in shelf.certs]
    return min3gen.records.Shelf(shelf.m, shelf.n, entries, shelf.certs)


def test_shelf_files_round_trip(tmp_path):
    for key, shelf in collect_shelves(7).items():
        path = tmp_path / f"shelf_m{key[0]}_n{key[1]}.tsv"
        save_shelf(shelf, path)
        assert load_shelf(path, key) == _as_loaded(shelf)


def test_shelf_file_validation(tmp_path):
    good = tmp_path / "ok.tsv"
    save_shelf(min3gen.records.Shelf(10, 6), good)
    assert load_shelf(good) == min3gen.records.Shelf(10, 6)
    assert load_shelf(good, (10, 6)) == min3gen.records.Shelf(10, 6)
    with pytest.raises(ShelfFileError, match=r"ok.tsv:3: .* expected \(11, 6\)"):
        load_shelf(good, (11, 6))

    v = SHELF_VERSION
    # W5 is the only minimally 3-connected graph of (n, m) = (6, 10), and no
    # shelf holds a wheel, so the lines that load are of shelf (11, 7).
    head = f"min3gen-shelf\t{v}\nm\t10\nn\t6\n"
    head7 = f"min3gen-shelf\t{v}\nm\t11\nn\t7\n"
    entry = "FlDlO\n"
    trailer = "end\t1\n"
    loaded = load_shelf(_write(tmp_path / "one.tsv", head7 + entry + trailer))
    assert loaded.entries == [min3gen.records.ShelfEntry(decode_graph6("FlDlO"), None)]
    assert loaded.certs == [certificate(decode_graph6("FlDlO"))]
    cases = {
        "header": (f"something-else\t{v}\nm\t10\nn\t6\n", ":1: not a shelf file"),
        "version": ("min3gen-shelf\t9\nm\t10\nn\t6\n", ":1: unsupported shelf version 9"),
        "v1": ("min3gen-shelf\t1\nm\t10\nn\t6\n", ":1: unsupported shelf version 1"),
        "v4": ("min3gen-shelf\t4\nm\t11\nn\t7\nA1\tFlDlO\t2-6\t0\n", ":1: unsupported shelf version 4"),
        "v5": (
            "min3gen-shelf\t5\nm\t11\nn\t7\nA1\tFlDlO\t2-6\nend\tA0=0\tB=0\tC=0\tA1=1\tA2=0\tA3=0\n",
            ":1: unsupported shelf version 5",
        ),
        "truncated": (f"min3gen-shelf\t{v}\nm\t10\n", ": truncated shelf file"),
        "m-key": (f"min3gen-shelf\t{v}\nq\t10\nn\t6\n", ":2: expected header 'm'"),
        "n-value": (f"min3gen-shelf\t{v}\nm\t10\nn\tsix\n", ":3: invalid literal"),
        # A line of format 5: class tag, graph6 and edges.
        "fields": (head7 + "A1\tFlDlO\t2-6\n" + trailer, ":4: invalid graph6 character '1'"),
        "graph6": (head + "C!\n", ":4: invalid graph6 character"),
        "separator": (head7 + "FlDlO\x1c\n", ":4: invalid graph6 character"),
        "other-shelf": (head + "C~\n", ":4: graph has (m, n) = (6, 4), not the shelf's (10, 6)"),
        "no-trailer": (head7 + entry, ":4: missing trailer line"),
        "empty-no-trailer": (head7, ":3: missing trailer line"),
        "count": (head7 + entry + "end\t2\n", ":5: trailer count 2 does not match the 1 lines read"),
        "after-trailer": (head7 + trailer + entry, ":5: content after the trailer"),
        "repeated-line": (head7 + entry + entry + "end\t2\n", ":5: graph FlDlO repeats line 4"),
        # The (11, 7) graph, and relabelled by swapping 0 and 1: two lines of one class.
        "repeated-class": (head7 + entry + "FrEjO\n" + "end\t2\n", ":5: graph is isomorphic to line 4's"),
        # generate_min3 adds the wheels and K_{3,t} to the output itself.
        "wheel": (head + "E|fG\n" + trailer, ":4: graph is the wheel W_5, which no shelf holds"),
        "k33": (f"min3gen-shelf\t{v}\nm\t9\nn\t6\nEFz_\n", ":4: graph is K_{3,3}, which no shelf holds"),
        # The prism plus the edge 0-2: 3-connected, not minimally so.
        "not-minimal": (head + "E|dg\n" + trailer, ":4: graph is not minimally 3-connected"),
    }
    for name, (text, message) in cases.items():
        path = _write(tmp_path / f"{name}.tsv", text)
        with pytest.raises(ShelfFileError, match=re.escape(f"{name}.tsv{message}")):
            load_shelf(path)


def test_direct_family_names_exactly_the_wheels_and_k3t():
    # The check load_shelf makes by degrees and neighbourhoods agrees with
    # certificate equality on every min3 output with n <= 9.
    rng = random.Random(89)
    names = {}
    for n in range(6, 12):
        for g, name in ((wheel(n - 1), f"the wheel W_{n - 1}"), (complete_bipartite_3(n - 3), f"K_{{3,{n - 3}}}")):
            assert _direct_family(permuted_copy(rng, g)) == name
            names[certificate(g)] = name
    outputs = [c for bucket in generate_min3(9).groups.values() for c in bucket]
    assert sum(c in names for c in outputs) == 8
    for cert in outputs:
        assert _direct_family(decode_graph6(cert)) == names.get(cert), cert


def test_every_cut_of_a_shelf_file_is_rejected(tmp_path):
    shelf = max(collect_shelves(7).values(), key=lambda sh: len(sh.entries))
    path = tmp_path / "full.tsv"
    save_shelf(shelf, path)
    text = path.read_text()
    assert load_shelf(_write(tmp_path / "no_final_newline.tsv", text[:-1])) == _as_loaded(shelf)
    # Cut at every line boundary and in the middle of every line.
    starts = [0] + [i + 1 for i, ch in enumerate(text[:-1]) if ch == "\n"]
    cuts = sorted({*starts, *((a + b) // 2 for a, b in zip(starts, starts[1:] + [len(text)]))})
    for cut in cuts:
        with pytest.raises(ShelfFileError):
            load_shelf(_write(tmp_path / "cut.tsv", text[:cut]))


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
    assert _imported_local_modules(min3gen.records).isdisjoint(forbidden)
