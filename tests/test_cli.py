"""Command-line driver, exercised in-process through cli.main(argv)."""

from __future__ import annotations

import shutil

import pytest

import min3gen.io_validate
from min3gen import (
    Graph,
    add_edge,
    decode_graph6,
    delete_edge,
    encode_graph6,
    is_minimally_3_connected,
    prism,
    wheel,
)
from min3gen.cli import main


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_generate_min3(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, err = run(["generate", "--mode", "min3", "--max-n", "7", "--out", str(out)], capsys)
    assert rc == 0
    assert (out / "counts.tsv").read_text() == (
        "n\tm\tcount\n6\t9\t2\n6\t10\t1\n7\t11\t3\n7\t12\t2\n"
    )
    assert "min3 shelf n=7 m=11: 3 graphs" in err
    assert f"min3gen: wrote 5 files to {out}" in err
    assert not (out / "shelves").exists()


def test_generate_cubic(tmp_path, capsys):
    out = tmp_path / "cubic"
    rc, _, err = run(["generate", "--mode", "cubic", "--max-n", "8", "--out", str(out)], capsys)
    assert rc == 0
    assert (out / "counts.tsv").read_text() == (
        "n\tm\tcount\n4\t6\t1\n6\t9\t2\n8\t12\t4\n"
    )
    assert "cubic n=8: 4 graphs" in err


def test_out_dir_precedence(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MIN3GEN_OUT", str(tmp_path / "from_env"))
    rc, _, _ = run(["generate", "--mode", "cubic", "--max-n", "4"], capsys)
    assert rc == 0
    assert (tmp_path / "from_env" / "counts.tsv").exists()

    rc, _, _ = run(
        ["generate", "--mode", "cubic", "--max-n", "4", "--out", str(tmp_path / "flag")],
        capsys,
    )
    assert rc == 0
    assert (tmp_path / "flag" / "counts.tsv").exists()

    monkeypatch.delenv("MIN3GEN_OUT")
    rc, _, _ = run(["generate", "--mode", "cubic", "--max-n", "4"], capsys)
    assert rc == 0
    assert (tmp_path / "out" / "counts.tsv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--mode", "cubic", "--max-n", "8", "--emit-intermediate"],
        ["generate", "--mode", "cubic", "--max-n", "8", "--resume", "somewhere"],
        ["generate", "--mode", "cubic", "--max-n", "7"],
        ["generate", "--mode", "min3", "--max-n", "5"],
        ["generate", "--mode", "min3", "--max-n", "5", "--emit-intermediate"],
    ],
)
def test_generate_usage_errors(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIN3GEN_OUT", raising=False)
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err.strip()
    assert not any(tmp_path.iterdir())


def test_generate_missing_max_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--mode", "min3"])
    assert exc.value.code == 2


def test_validate_good_file(tmp_path, capsys):
    out = tmp_path / "v"
    run(["generate", "--mode", "min3", "--max-n", "6", "--out", str(out)], capsys)
    rc, _, err = run(["validate", str(out / "min3_n6_m9.g6")], capsys)
    assert rc == 0
    assert "min3gen: 2 graphs valid" in err


def test_validate_rejects_non_minimal(tmp_path, capsys):
    path = tmp_path / "k5.g6"
    from helpers import complete_graph

    path.write_text(encode_graph6(complete_graph(5)) + "\n")
    rc, _, err = run(["validate", str(path)], capsys)
    assert rc == 1
    assert f"{path}:1:" in err


def test_validate_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text(encode_graph6(prism()) + "\nnot graph6 at all\x01\n")
    rc, _, err = run(["validate", str(path)], capsys)
    assert rc == 1
    assert f"{path}:2:" in err


@pytest.mark.parametrize(
    "body, lineno",
    [
        (b"C~\x1cC~\n", 1),  # \x1c is a line break to str.splitlines()
        (b"C~\n\xff\n", 2),  # not UTF-8
        (b"C~\x1c\n", 1),  # str.strip() removes \x1c-\x1f and \x85
        (b"C~\x85\n", 1),
        (b"\x1c\n", 1),
    ],
    ids=["separator", "non-utf8", "trailing-separator", "trailing-nel", "separator-line"],
)
def test_validate_reports_non_graph6_bytes(body, lineno, tmp_path, capsys):
    path = tmp_path / "odd.g6"
    path.write_bytes(body)
    for argv in (["validate", "--mode", "cubic", str(path)], ["cycles", str(path)]):
        rc, _, err = run(argv, capsys)
        assert rc == 1
        assert f"{path}:{lineno}: invalid graph6 character" in err


def test_validate_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    rc, _, err = run(["validate", str(path)], capsys)
    assert rc == 0
    assert "contains no graphs" in err


def test_validate_missing_file(tmp_path, capsys):
    rc, _, err = run(["validate", str(tmp_path / "nope.g6")], capsys)
    assert rc == 3
    assert err.strip()


def test_validate_cubic_mode(tmp_path, capsys):
    good = tmp_path / "k4.g6"
    good.write_text(encode_graph6(wheel(3)) + "\n")
    rc, _, err = run(["validate", "--mode", "cubic", str(good)], capsys)
    assert rc == 0
    assert "1 graphs valid" in err

    # wheel(4) is minimally 3-connected but not cubic
    bad = tmp_path / "w4.g6"
    bad.write_text(encode_graph6(wheel(4)) + "\n")
    assert run(["validate", str(bad)], capsys)[0] == 0
    rc, _, err = run(["validate", "--mode", "cubic", str(bad)], capsys)
    assert rc == 1
    assert f"{bad}:1:" in err


def test_cycles_command(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text(encode_graph6(prism()) + "\n" + encode_graph6(wheel(3)) + "\n")
    rc, stdout, _ = run(["cycles", str(path)], capsys)
    assert rc == 0
    assert stdout == "1\t14\n2\t7\n"


def test_emit_intermediate_and_resume(tmp_path, capsys):
    first = tmp_path / "first"
    rc, _, _ = run(
        ["generate", "--mode", "min3", "--max-n", "7", "--out", str(first),
         "--emit-intermediate"],
        capsys,
    )
    assert rc == 0
    shelves = first / "shelves"
    names = sorted(p.name for p in shelves.iterdir())
    assert names == ["shelf_m11_n7.tsv", "shelf_m12_n7.tsv"]

    second = tmp_path / "second"
    rc, _, _ = run(
        ["generate", "--mode", "min3", "--max-n", "7", "--out", str(second),
         "--resume", str(shelves)],
        capsys,
    )
    assert rc == 0
    for name in ("min3_n6_m9.g6", "min3_n6_m10.g6", "min3_n7_m11.g6",
                 "min3_n7_m12.g6", "counts.tsv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_resume_rejects_version_1_shelves(tmp_path, capsys):
    first = tmp_path / "first"
    rc, _, _ = run(
        ["generate", "--mode", "min3", "--max-n", "7", "--out", str(first),
         "--emit-intermediate"],
        capsys,
    )
    assert rc == 0
    shelves = first / "shelves"
    for path in shelves.iterdir():
        lines = path.read_text().split("\n")
        lines[0] = "min3gen-shelf\t1"
        path.write_text("\n".join(lines))
    rc, _, err = run(
        ["generate", "--mode", "min3", "--max-n", "7", "--out", str(tmp_path / "second"),
         "--resume", str(shelves)],
        capsys,
    )
    assert rc == 3
    assert "unsupported shelf version 1" in err


def test_resume_rejects_a_truncated_shelf(tmp_path, capsys):
    first = tmp_path / "first"
    rc, _, _ = run(
        ["generate", "--mode", "min3", "--max-n", "8", "--out", str(first),
         "--emit-intermediate"],
        capsys,
    )
    assert rc == 0
    path = first / "shelves" / "shelf_m13_n8.tsv"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > 7
    # The three header lines and the first three entries survive the cut.
    path.write_text("".join(lines[:6]))
    second = tmp_path / "second"
    rc, _, err = run(
        ["generate", "--mode", "min3", "--max-n", "8", "--out", str(second),
         "--resume", str(first / "shelves")],
        capsys,
    )
    assert rc == 3
    assert f"{path}:6: missing trailer line" in err
    assert not (second / "counts.tsv").exists()


@pytest.fixture(scope="module")
def emitted9(tmp_path_factory):
    """The tree of `generate --max-n 9 --emit-intermediate`, made once; a
    test that edits it works on a copy."""
    tree = tmp_path_factory.mktemp("emitted9")
    assert main(["generate", "--max-n", "9", "--out", str(tree), "--emit-intermediate"]) == 0
    return tree


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _resume9(shelves, tmp_path, capsys):
    second = tmp_path / "second"
    rc, _, err = run(["generate", "--max-n", "9", "--out", str(second), "--resume", str(shelves)], capsys)
    assert not (second / "counts.tsv").exists()
    return rc, err


def test_resume_rejects_an_entry_from_another_shelf(emitted9, tmp_path, capsys):
    # A line moved in from shelf (13, 8) keeps the trailer count right;
    # resumed from without the graph check, the n = 9 shelves would grow
    # from a graph of the wrong size.
    shelves = tmp_path / "shelves"
    shutil.copytree(emitted9 / "shelves", shelves)
    donor = (shelves / "shelf_m13_n8.tsv").read_text().split("\n")
    path = shelves / "shelf_m14_n8.tsv"
    lines = path.read_text().split("\n")
    lines[3] = donor[3]
    path.write_text("\n".join(lines))
    for stale in shelves.glob("shelf_m*_n9.tsv"):
        stale.unlink()
    rc, err = _resume9(shelves, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:4: graph has (m, n) = (13, 8)" in err


def test_resume_rejects_a_line_swapped_for_another_class(emitted9, tmp_path, capsys):
    # A shelf holds every class of its (n, m) but the wheel and K_{3,t}, so
    # any other minimally 3-connected graph of that (n, m) put in place of
    # a line repeats the class of another line.  Here line 5 becomes line
    # 4's graph with its vertex order reversed.
    shelves = tmp_path / "shelves"
    shutil.copytree(emitted9 / "shelves", shelves)
    path = shelves / "shelf_m13_n8.tsv"
    lines = path.read_text().split("\n")
    g = decode_graph6(lines[3])
    swapped = encode_graph6(Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]))
    assert swapped not in lines and is_minimally_3_connected(decode_graph6(swapped))
    lines[4] = swapped
    path.write_text("\n".join(lines))
    rc, err = _resume9(shelves, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:5: graph is isomorphic to line 4's" in err


def test_resume_rejects_an_a_line_that_is_not_minimally_3_connected(emitted9, tmp_path, capsys):
    # A line's graph with one edge uv, v of degree 3, moved to uw keeps the
    # shelf's (n, m), but v is left with degree 2.  Nothing loaded descends
    # from a final-column line, so without the check the resume exits 0
    # and min3_n9_m15.g6 holds a graph that is not minimal.
    shelves = tmp_path / "shelves"
    shutil.copytree(emitted9 / "shelves", shelves)
    path = shelves / "shelf_m15_n9.tsv"
    lines = path.read_text().split("\n")
    g = decode_graph6(lines[20])
    u, v = next((u, v) for u, v in g.edges() if g.degree(v) == 3)
    w = next(w for w in g.vertices if w not in (u, v) and not g.has_edge(u, w))
    lines[20] = encode_graph6(add_edge(delete_edge(g, u, v), u, w))
    path.write_text("\n".join(lines))
    rc, err = _resume9(shelves, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:21: graph is not minimally 3-connected" in err


@pytest.mark.parametrize(
    "shelf, line, family",
    [
        # W_8 with hub 0 and rim vertex 8 last.
        ("shelf_m16_n9.tsv", "H|eKKF@", "the wheel W_8"),
        # K_{3,5} with vertex 7 on the 5-side.
        ("shelf_m15_n8.tsv", "GFzfF?", "K_{3,5}"),
    ],
    ids=["wheel", "k3t"],
)
def test_resume_rejects_an_a_line_holding_a_directly_built_graph(emitted9, shelf, line, family, tmp_path, capsys):
    # The line is added before the trailer, whose count follows.  Either
    # graph is minimally 3-connected and passes every other check; without
    # this one, generate_min3 meets it again when it adds the wheels and
    # K_{3,t} to the output and stops with a traceback, exit 1.
    shelves = tmp_path / "shelves"
    shutil.copytree(emitted9 / "shelves", shelves)
    path = shelves / shelf
    lines = path.read_text().split("\n")
    i = next(i for i, text in enumerate(lines) if text.startswith("end\t"))
    lines[i] = f"end\t{int(lines[i].split()[1]) + 1}"
    lines.insert(i, line)
    path.write_text("\n".join(lines))
    rc, err = _resume9(shelves, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:{i + 1}: graph is {family}, which no shelf holds" in err


@pytest.mark.parametrize("name", ["", "missing"])
def test_resume_rejects_a_directory_without_shelf_files(emitted9, name, tmp_path, capsys):
    # The output directory, not its shelves/ subdirectory; or no directory.
    resume = emitted9 / name if name else emitted9
    out = tmp_path / "second"
    rc, _, err = run(["generate", "--max-n", "9", "--out", str(out), "--resume", str(resume)], capsys)
    assert rc == 2
    assert f"--resume directory {resume} holds no shelf_m*_n*.tsv files" in err
    assert not out.exists()


def test_resume_rejects_a_repeated_a_line(emitted9, tmp_path, capsys):
    # The trailer count stays right, but line 5's class is lost.
    shelves = tmp_path / "shelves"
    shutil.copytree(emitted9 / "shelves", shelves)
    path = shelves / "shelf_m13_n8.tsv"
    lines = path.read_text().split("\n")
    lines[4] = lines[3]
    path.write_text("\n".join(lines))
    rc, err = _resume9(shelves, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:5: graph {lines[3]} repeats line 4" in err


def test_resume_certifies_only_the_result_lines(emitted9, tmp_path, capsys, monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return certificate(g)

    certificate = min3gen.io_validate.certificate
    monkeypatch.setattr(min3gen.io_validate, "certificate", counting)
    second = tmp_path / "second"
    rc, _, _ = run(
        ["generate", "--max-n", "9", "--out", str(second), "--resume", str(emitted9 / "shelves")],
        capsys,
    )
    assert rc == 0
    # Every line but the three header lines and the trailer holds a graph.
    result_lines = sum(len(path.read_text().splitlines()) - 4 for path in (emitted9 / "shelves").iterdir())
    assert len(calls) == result_lines == 74
    first = {k: v for k, v in _files(emitted9).items() if k.parts[0] != "shelves"}
    assert _files(second) == first


def test_resume_with_emit_intermediate_saves_every_shelf(emitted9, tmp_path, capsys):
    small = tmp_path / "small"
    rc, _, _ = run(["generate", "--max-n", "8", "--out", str(small), "--emit-intermediate"], capsys)
    assert rc == 0
    resumed = tmp_path / "resumed"
    rc, _, _ = run(
        ["generate", "--max-n", "9", "--out", str(resumed), "--emit-intermediate",
         "--resume", str(small / "shelves")],
        capsys,
    )
    assert rc == 0
    assert len(list((resumed / "shelves").iterdir())) == 11
    assert _files(resumed) == _files(emitted9)
