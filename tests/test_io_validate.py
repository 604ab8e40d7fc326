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
    petersen,
    random_graph,
)
from min3gen import (
    Graph,
    certificate,
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
from min3gen.io_validate import SHELF_VERSION, ShelfFileError, default_out_dir


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


def test_shelf_files_round_trip(tmp_path):
    shared = 0
    for key, shelf in collect_shelves(7).items():
        path = tmp_path / f"shelf_m{key[0]}_n{key[1]}.tsv"
        save_shelf(shelf, path)
        loaded = load_shelf(path, key)
        assert loaded == shelf
        # Equal cycle sets come back as one object, as the generator made them.
        entries = loaded.entries()
        assert len({id(e.cycles) for e in entries}) == len({e.cycles for e in entries})
        shared += len(entries) - len({e.cycles for e in entries})
    assert shared > 0


def test_shelf_file_validation(tmp_path):
    good = tmp_path / "ok.tsv"
    save_shelf(min3gen.records.Shelf(10, 6, {}), good)
    assert load_shelf(good) == min3gen.records.Shelf(10, 6, {})
    assert load_shelf(good, (10, 6)) == min3gen.records.Shelf(10, 6, {})
    with pytest.raises(ShelfFileError, match=r"ok.tsv:3: .* expected \(11, 6\)"):
        load_shelf(good, (11, 6))

    v = SHELF_VERSION
    head = f"min3gen-shelf\t{v}\nm\t10\nn\t6\n"
    entry = "A0\tEhfw\t-\t-\t0-1-2\n"  # the wheel W5: 6 vertices, 10 edges
    trailer = "end\tA0=1\tB=0\tC=0\tA1=0\tA2=0\tA3=0\n"
    assert load_shelf(_write(tmp_path / "one.tsv", head + entry + trailer)).entries()
    cases = {
        "header": (f"something-else\t{v}\nm\t10\nn\t6\n", ":1: not a shelf file"),
        "version": ("min3gen-shelf\t9\nm\t10\nn\t6\n", ":1: unsupported shelf version 9"),
        "v1": ("min3gen-shelf\t1\nm\t10\nn\t6\n", ":1: unsupported shelf version 1"),
        "v2": (f"min3gen-shelf\t2\nm\t10\nn\t6\n{entry}", ":1: unsupported shelf version 2"),
        "truncated": (f"min3gen-shelf\t{v}\nm\t10\n", ": truncated shelf file"),
        "m-key": (f"min3gen-shelf\t{v}\nq\t10\nn\t6\n", ":2: expected header 'm'"),
        "n-value": (f"min3gen-shelf\t{v}\nm\t10\nn\tsix\n", ":3: invalid literal"),
        "tag": (head + "ZZ\tC~\t-\t-\t\n", ":4: unknown class tag"),
        "fields": (head + "B\tC~\t-\n", ":4: expected 5 fields"),
        "graph6": (head + "A0\tC!\t-\t-\t\n", ":4: invalid graph6 character"),
        "separator": (head + "A0\tC\x1c\t-\t-\t\n", ":4: invalid graph6 character"),
        "other-shelf": (
            head + "A0\tC~\t-\t-\t\n",
            ":4: graph has (m, n) = (6, 4), not the shelf's (10, 6)",
        ),
        "no-trailer": (head + entry, ":4: missing trailer line"),
        "empty-no-trailer": (head, ":3: missing trailer line"),
        "count": (head + entry + trailer.replace("A0=1", "A0=2"), ":5: trailer counts"),
        "after-trailer": (head + trailer + entry, ":5: content after the trailer"),
        "repeated-line": (
            head + entry + entry + trailer.replace("A0=1", "A0=2"),
            ":5: graph Ehfw repeats line 4",
        ),
        # W5 and W5 relabelled by v -> 5 - v: two lines of one class.
        "repeated-class": (
            head + "A1\tEhfw\t-\t-\t\nA1\tE|fG\t-\t-\t\n"
            + trailer.replace("A0=1", "A0=0").replace("A1=0", "A1=2"),
            ":5: graph is isomorphic to line 4's",
        ),
    }
    for name, (text, message) in cases.items():
        path = _write(tmp_path / f"{name}.tsv", text)
        with pytest.raises(ShelfFileError, match=re.escape(f"{name}.tsv{message}")):
            load_shelf(path)


def test_every_cut_of_a_shelf_file_is_rejected(tmp_path):
    shelf = max(collect_shelves(7).values(), key=lambda sh: len(sh.entries()))
    path = tmp_path / "full.tsv"
    save_shelf(shelf, path)
    text = path.read_text()
    assert load_shelf(_write(tmp_path / "no_final_newline.tsv", text[:-1])) == shelf
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
