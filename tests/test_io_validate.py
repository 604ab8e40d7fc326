"""graph6 codec, connectivity oracles, shelf files, and output layout.

networkx serves as the outside reference for graph6, and a from-scratch
definition scan (helpers module) anchors the connectivity oracles.  An AST
check keeps this module import-independent from the incremental machinery
it is supposed to validate.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import networkx as nx
import pytest

import min3gen.io_validate
import min3gen.records
from helpers import (
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
from min3gen.io_validate import SHELF_VERSION, default_out_dir


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
    result = generate_min3(7, keep_shelves=True)
    for key, shelf in result.shelves.items():
        path = tmp_path / f"shelf_m{key[0]}_n{key[1]}.tsv"
        save_shelf(shelf, path)
        assert load_shelf(path) == shelf


def test_shelf_file_validation(tmp_path):
    good = tmp_path / "ok.tsv"
    save_shelf(min3gen.records.Shelf(10, 6, {}), good)
    assert load_shelf(good) == min3gen.records.Shelf(10, 6, {})

    v = SHELF_VERSION
    cases = {
        "header": (f"something-else\t{v}\nm\t10\nn\t6\n", "not a shelf file"),
        "version": ("min3gen-shelf\t9\nm\t10\nn\t6\n", "unsupported shelf version 9"),
        "v1": ("min3gen-shelf\t1\nm\t10\nn\t6\n", "unsupported shelf version 1"),
        "truncated": (f"min3gen-shelf\t{v}\nm\t10\n", "truncated shelf file"),
        "m-key": (f"min3gen-shelf\t{v}\nq\t10\nn\t6\n", "expected header 'm'"),
        "tag": (f"min3gen-shelf\t{v}\nm\t10\nn\t6\nZZ\tC~\t-\t-\t\n", "unknown class tag"),
        "fields": (f"min3gen-shelf\t{v}\nm\t10\nn\t6\nB\tC~\t-\n", "expected 5 fields"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / f"{name}.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_shelf(path)


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
    # lines decode back to the cert-sorted graphs of each group
    for key, bucket in result.groups.items():
        n, m = key
        lines = (tmp_path / f"min3_n{n}_m{m}.g6").read_text().splitlines()
        assert [decode_graph6(line) for line in lines] == [g for _, g in bucket]
        assert [certificate(g) for _, g in bucket] == [c for c, _ in bucket]


def test_write_outputs_cubic(tmp_path):
    result = generate_cubic(6)
    written = write_outputs(result, tmp_path)
    assert [p.name for p in written] == ["cubic_n4.g6", "cubic_n6.g6", "counts.tsv"]
    assert (tmp_path / "counts.tsv").read_text() == "n\tm\tcount\n4\t6\t1\n6\t9\t2\n"


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
