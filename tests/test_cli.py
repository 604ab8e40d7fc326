"""Command-line driver, exercised in-process through cli.main(argv)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import min3gen.cli
import min3gen.io_validate
from min3gen import (
    CheckpointError,
    Graph,
    add_edge,
    certificate,
    complete_bipartite_3,
    decode_graph6,
    delete_edge,
    encode_graph6,
    generate_min3,
    is_minimally_3_connected,
    prism,
    wheel,
    write_outputs,
)
from min3gen.cli import main


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every run pays for what the console script imports, and inspect,
    # which dataclasses imports, is the largest of the two.
    src = str(Path(min3gen.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, min3gen.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


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


@pytest.mark.parametrize(
    ("mode", "max_n", "first", "line"),
    [("min3", "9", 7, "min3 shelf n={} m={}: {} graphs"), ("cubic", "10", 6, "cubic n={0}: {2} graphs")],
    ids=["min3", "cubic"],
)
def test_progress_lines_count_the_groups_written(tmp_path, capsys, mode, max_n, first, line):
    # A shelf's progress line counts its whole group, the wheel or K_{3,t}
    # included, so from the first column built (7 for min3, 6 for cubic)
    # the lines equal the rows of counts.tsv.
    out = tmp_path / "run"
    rc, _, err = run(["generate", "--mode", mode, "--max-n", max_n, "--out", str(out)], capsys)
    assert rc == 0
    rows = (row.split("\t") for row in (out / "counts.tsv").read_text().splitlines()[1:])
    written = [line.format(n, m, k) for n, m, k in rows if int(n) >= first]
    assert [shelf for shelf in err.splitlines() if shelf.startswith(f"{mode} ")] == written


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
        # Past graph6's 62 vertices, refused before any certificate.
        ["generate", "--mode", "cubic", "--max-n", "64"],
        ["generate", "--max-n", "63"],
    ],
)
def test_generate_usage_errors(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIN3GEN_OUT", raising=False)
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err.strip()
    assert not any(tmp_path.iterdir())


def test_generate_refuses_a_file_as_out_before_generating(tmp_path, capsys, monkeypatch):
    path = tmp_path / "taken"
    path.write_text("not a directory\n")
    monkeypatch.setattr(min3gen.cli, "generate_min3", lambda *args, **kwargs: pytest.fail("generated"))
    rc, _, err = run(["generate", "--max-n", "7", "--out", str(path)], capsys)
    assert rc == 3
    assert f"output path is not a directory: {path}" in err
    assert path.read_text() == "not a directory\n"


def test_generate_refuses_a_file_ancestor_of_out_before_generating(tmp_path, capsys, monkeypatch):
    path = tmp_path / "taken"
    path.write_text("not a directory\n")
    monkeypatch.setattr(min3gen.cli, "generate_min3", lambda *args, **kwargs: pytest.fail("generated"))
    rc, _, err = run(["generate", "--max-n", "7", "--out", str(path / "sub")], capsys)
    assert rc == 3
    assert f"output path is not a directory: {path}" in err
    assert path.read_text() == "not a directory\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_emit_intermediate_refuses_a_file_as_shelves_before_generating(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "shelves").write_text("not a directory\n")
    monkeypatch.setattr(min3gen.cli, "generate_min3", lambda *args, **kwargs: pytest.fail("generated"))
    rc, _, err = run(["generate", "--max-n", "7", "--out", str(out), "--emit-intermediate"], capsys)
    assert rc == 3
    assert f"output path is not a directory: {out / 'shelves'}" in err
    assert sorted(out.iterdir()) == [out / "shelves"]
    assert (out / "shelves").read_text() == "not a directory\n"


@pytest.mark.parametrize("max_n", ["5", "63"])
def test_generate_checks_max_n_before_reading_the_resume_directory(max_n, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(min3gen.cli, "read_outputs", lambda *args: pytest.fail("read the resume directory"))
    rc, _, err = run(["generate", "--max-n", max_n, "--resume", str(tmp_path), "--out", str(tmp_path / "o")], capsys)
    assert rc == 2
    assert "max_n must be from 6 to 62" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["min3", "cubic"])
def test_generate_checks_max_n_before_the_output_path(mode, tmp_path, capsys):
    # A --max-n out of range is a usage error in both modes, even where
    # --out could not be made either.
    path = tmp_path / "taken"
    path.write_text("not a directory\n")
    rc, _, err = run(["generate", "--mode", mode, "--max-n", "5", "--out", str(path / "sub")], capsys)
    assert rc == 2
    assert "max_n must be" in err
    assert sorted(tmp_path.iterdir()) == [path]


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


@pytest.mark.parametrize("command", ["validate", "cycles"])
def test_validate_missing_file(command, tmp_path, capsys):
    rc, _, err = run([command, str(tmp_path / "nope.g6")], capsys)
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
    names = ["counts.tsv", "min3_n6_m10.g6", "min3_n6_m9.g6", "min3_n7_m11.g6", "min3_n7_m12.g6"]
    assert sorted(p.name for p in shelves.iterdir()) == names

    # From the copy under shelves/ and from the output directory itself.
    for resume in (shelves, first):
        second = tmp_path / "second"
        rc, _, err = run(
            ["generate", "--mode", "min3", "--max-n", "7", "--out", str(second),
             "--resume", str(resume)],
            capsys,
        )
        assert rc == 0
        assert "min3 shelf" not in err
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes()


def test_resume_rejects_old_checkpoint_files_without_counts_tsv(tmp_path, capsys):
    # A directory of shelf files, the checkpoints of earlier versions, has
    # no counts.tsv.
    shelves = tmp_path / "shelves"
    shelves.mkdir()
    (shelves / "shelf_m11_n7.tsv").write_text("min3gen-shelf\t1\nm\t11\nn\t7\n")
    rc, _, err = run(
        ["generate", "--mode", "min3", "--max-n", "7", "--out", str(tmp_path / "second"),
         "--resume", str(shelves)],
        capsys,
    )
    assert rc == 3
    assert f"{shelves / 'counts.tsv'}: no such file" in err


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _resume9(tree, tmp_path, capsys):
    second = tmp_path / "second"
    rc, _, err = run(["generate", "--max-n", "9", "--out", str(second), "--resume", str(tree)], capsys)
    assert not (second / "counts.tsv").exists()
    return rc, err


def _edited(outputs9, tmp_path, name):
    """A copy of the n <= 9 tree, and the lines of its file name."""
    tree = tmp_path / "tree"
    shutil.copytree(outputs9, tree)
    return tree, (tree / name).read_text().split("\n")


def test_resume_rejects_a_truncated_group_file(outputs9, tmp_path, capsys):
    tree, lines = _edited(outputs9, tmp_path, "min3_n8_m13.g6")
    path = tree / "min3_n8_m13.g6"
    assert len(lines) > 7
    # The first three lines survive the cut.
    path.write_text("\n".join(lines[:3]) + "\n")
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{path}: holds 3 lines, but counts.tsv says {len(lines) - 1}" in err


def test_resume_rejects_a_line_from_another_group(outputs9, tmp_path, capsys):
    # A line moved in from (n, m) = (8, 13) keeps the line count right;
    # resumed from without the graph check, the n = 9 shelves would grow
    # from a graph of the wrong size.
    tree, lines = _edited(outputs9, tmp_path, "min3_n8_m12.g6")
    path = tree / "min3_n8_m12.g6"
    lines[3] = (tree / "min3_n8_m13.g6").read_text().split("\n")[3]
    path.write_text("\n".join(lines))
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:4: graph has (n, m) = (8, 13), not the file's (8, 12)" in err


def test_resume_rejects_a_line_swapped_for_another_class(outputs9, tmp_path, capsys):
    # A file holds every class of its (n, m), so any other minimally
    # 3-connected graph of that (n, m) put in place of a line repeats the
    # class of another line.  Here line 5 becomes line 4's graph with its
    # vertex order reversed, which is not a canonical labelling.
    tree, lines = _edited(outputs9, tmp_path, "min3_n8_m13.g6")
    path = tree / "min3_n8_m13.g6"
    g = decode_graph6(lines[3])
    swapped = encode_graph6(Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]))
    assert swapped not in lines and is_minimally_3_connected(decode_graph6(swapped))
    lines[4] = swapped
    path.write_text("\n".join(lines))
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:5: line is not its own certificate" in err


def test_resume_rejects_a_line_that_is_not_minimally_3_connected(outputs9, tmp_path, capsys):
    # A line's graph with one edge uv, v of degree 3, moved to uw keeps the
    # file's (n, m), but v is left with degree 2.  Nothing resumed descends
    # from a line of the last column, so without the check the resume
    # exits 0 and min3_n9_m15.g6 holds a graph that is not minimal.
    tree, lines = _edited(outputs9, tmp_path, "min3_n9_m15.g6")
    path = tree / "min3_n9_m15.g6"
    g = decode_graph6(lines[20])
    u, v = next((u, v) for u, v in g.edges() if g.degree(v) == 3)
    w = next(w for w in g.vertices if w not in (u, v) and not g.has_edge(u, w))
    lines[20] = encode_graph6(add_edge(delete_edge(g, u, v), u, w))
    path.write_text("\n".join(lines))
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:21: graph is not minimally 3-connected" in err


@pytest.mark.parametrize(
    "name, graph",
    # K_{3,n-3} is alone in its file for n >= 8, but shares (7, 12) with W_6.
    [("min3_n9_m16.g6", wheel(8)), ("min3_n7_m12.g6", complete_bipartite_3(4))],
    ids=["wheel", "k3t"],
)
def test_resume_rejects_a_second_line_of_a_directly_built_class(outputs9, name, graph, tmp_path, capsys):
    # The wheel or K_{3,t} put in place of another line of its file is a
    # second line of its class.
    tree, lines = _edited(outputs9, tmp_path, name)
    path = tree / name
    cert = certificate(graph)
    i, j = lines.index(cert), next(j for j, line in enumerate(lines) if line and line != cert)
    lines[j] = cert
    path.write_text("\n".join(lines))
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:{max(i, j) + 1}: graph {cert} repeats line {min(i, j) + 1}" in err


@pytest.mark.parametrize("name", ["", "missing"])
def test_resume_rejects_a_directory_without_counts_tsv(name, tmp_path, capsys):
    # A directory without counts.tsv, or no directory at all.
    resume = tmp_path / (name or "empty")
    if not name:
        resume.mkdir()
    out = tmp_path / "second"
    rc, _, err = run(["generate", "--max-n", "9", "--out", str(out), "--resume", str(resume)], capsys)
    assert rc == 3
    assert f"{resume / 'counts.tsv'}: no such file, so {resume} is no output directory" in err
    assert not out.exists()


def test_resume_rejects_a_repeated_line(outputs9, tmp_path, capsys):
    # The line count stays right, but line 5's class is lost.
    tree, lines = _edited(outputs9, tmp_path, "min3_n8_m13.g6")
    path = tree / "min3_n8_m13.g6"
    lines[4] = lines[3]
    path.write_text("\n".join(lines))
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:5: graph {lines[3]} repeats line 4" in err


def test_resume_rejects_a_group_file_out_of_order(outputs9, tmp_path, capsys):
    # Every line is a canonical class of the file, once, but a group is its
    # sorted certificates: resumed, the reversed lines would be a group
    # that write_outputs never writes.
    tree, lines = _edited(outputs9, tmp_path, "min3_n8_m13.g6")
    path = tree / "min3_n8_m13.g6"
    lines = lines[-2::-1]
    path.write_text("\n".join(lines) + "\n")
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{path}:2: graph {lines[1]} sorts before line 1" in err


@pytest.mark.parametrize("edit", ["missing", "extra", "row", "group", "header", "empty"])
def test_resume_rejects_files_that_counts_tsv_does_not_match(outputs9, edit, tmp_path, capsys):
    tree, rows = _edited(outputs9, tmp_path, "counts.tsv")
    if edit in ("missing", "group"):
        (tree / "min3_n8_m13.g6").unlink()
        message = f"{tree / 'min3_n8_m13.g6'}: missing, though {tree / 'counts.tsv'} lists it"
    elif edit == "extra":
        (tree / "min3_n4_m6.g6").write_text("C~\n")
        message = f"{tree / 'min3_n4_m6.g6'}: not listed in {tree / 'counts.tsv'}"
    if edit == "group":
        # The file and its row both gone: every check of the files passes,
        # but a resume to n = 10 would lose the sources on (8, 13).
        rows.remove("8\t13\t11")
        (tree / "counts.tsv").write_text("\n".join(rows))
        message = "resumed groups differ from those of columns 6 to 9 at (n, m) = [(8, 13)]"
    elif edit == "header":
        # A directory of no group at all: counts.tsv holds only its header.
        for path in tree.glob("*.g6"):
            path.unlink()
        (tree / "counts.tsv").write_text(rows[0] + "\n")
        message = "resumed set holds no column from 6 on"
    elif edit == "empty":
        # Every file matches its row, but the emptied (8, 12) would seed no
        # source, and a resume past n = 9 would lose graphs.
        (tree / "min3_n8_m12.g6").write_text("")
        rows[rows.index("8\t12\t4")] = "8\t12\t0"
        (tree / "counts.tsv").write_text("\n".join(rows))
        message = "resumed groups hold no graph at (n, m) = [(8, 12)]"
    elif edit == "row":
        rows[rows.index("8\t13\t11")] = "8\t13\t12"
        (tree / "counts.tsv").write_text("\n".join(rows))
        message = f"{tree / 'min3_n8_m13.g6'}: holds 11 lines, but counts.tsv says 12"
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert message in err


def test_resume_certifies_only_the_result_lines(outputs9, tmp_path, capsys, monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return certificate(g)

    certificate = min3gen.io_validate.certificate
    monkeypatch.setattr(min3gen.io_validate, "certificate", counting)
    second = tmp_path / "second"
    rc, _, _ = run(["generate", "--max-n", "9", "--out", str(second), "--resume", str(outputs9)], capsys)
    assert rc == 0
    # Each line of each graph file is certified once, when it is read.
    result_lines = sum(len(path.read_text().splitlines()) for path in outputs9.glob("*.g6"))
    assert len(calls) == result_lines == 83
    assert _files(second) == _files(outputs9)


def test_resume_with_emit_intermediate_saves_every_shelf(outputs9, tmp_path, capsys):
    small = tmp_path / "small"
    rc, _, _ = run(["generate", "--max-n", "8", "--out", str(small)], capsys)
    assert rc == 0
    resumed = tmp_path / "resumed"
    rc, _, _ = run(
        ["generate", "--max-n", "9", "--out", str(resumed), "--emit-intermediate", "--resume", str(small)],
        capsys,
    )
    assert rc == 0
    assert _files(resumed / "shelves") == _files(outputs9)
    assert {k: v for k, v in _files(resumed).items() if k.parts[0] != "shelves"} == _files(outputs9)


def test_resume_in_place_matches_a_fresh_run(outputs9, tmp_path, capsys):
    tree = tmp_path / "tree"
    assert run(["generate", "--max-n", "8", "--out", str(tree)], capsys)[0] == 0
    assert run(["generate", "--max-n", "9", "--out", str(tree), "--resume", str(tree)], capsys)[0] == 0
    assert _files(tree) == _files(outputs9)


def test_a_smaller_run_removes_the_group_files_it_does_not_write(outputs9, tmp_path, capsys):
    # A run to 8 over the tree of a run to 9 leaves a complete n <= 8 tree,
    # which resumes.
    tree = tmp_path / "tree"
    shutil.copytree(outputs9, tree)
    assert run(["generate", "--max-n", "8", "--out", str(tree)], capsys)[0] == 0
    fresh8 = tmp_path / "fresh8"
    assert run(["generate", "--max-n", "8", "--out", str(fresh8)], capsys)[0] == 0
    assert _files(tree) == _files(fresh8)
    resumed = tmp_path / "resumed"
    assert run(["generate", "--max-n", "9", "--out", str(resumed), "--resume", str(tree)], capsys)[0] == 0
    assert _files(resumed) == _files(outputs9)


def test_a_min3_run_does_not_write_over_a_cubic_tree(tmp_path, capsys):
    # counts.tsv names no mode, so a directory holds one mode's tree: a run
    # of the other mode exits 3 before generating and changes no file, and
    # so does write_outputs.
    tree = tmp_path / "tree"
    assert run(["generate", "--mode", "cubic", "--max-n", "8", "--out", str(tree)], capsys)[0] == 0
    before = _files(tree)
    rc, _, err = run(["generate", "--max-n", "8", "--out", str(tree), "--emit-intermediate"], capsys)
    assert rc == 3
    assert f"{tree / 'cubic_n4.g6'}: {tree} holds a cubic tree" in err
    assert "shelf" not in err
    with pytest.raises(CheckpointError, match="holds a cubic tree"):
        write_outputs(generate_min3(6), tree)
    assert _files(tree) == before


def test_resume_refuses_a_cubic_tree_before_reading_it(tmp_path, capsys):
    # The cubic tree's counts.tsv lists cubic_n4.g6 as (4, 6), so read as a
    # min3 tree it would seem to lack min3_n4_m6.g6.
    tree, out = tmp_path / "tree", tmp_path / "out"
    assert run(["generate", "--mode", "cubic", "--max-n", "6", "--out", str(tree)], capsys)[0] == 0
    rc, _, err = run(["generate", "--max-n", "7", "--resume", str(tree), "--out", str(out)], capsys)
    assert rc == 3
    assert f"{tree / 'cubic_n4.g6'}: {tree} holds a cubic tree, not a min3 one" in err
    assert "missing" not in err
    assert not out.exists()


def test_a_cubic_run_does_not_write_over_a_min3_tree(outputs9, tmp_path, capsys):
    # The tree still resumes afterwards.
    tree = tmp_path / "tree"
    shutil.copytree(outputs9, tree)
    rc, _, err = run(["generate", "--mode", "cubic", "--max-n", "8", "--out", str(tree)], capsys)
    assert rc == 3
    assert f"{tree / 'min3_n6_m10.g6'}: {tree} holds a min3 tree" in err
    assert "cubic n=" not in err
    assert _files(tree) == _files(outputs9)
    assert run(["generate", "--max-n", "9", "--out", str(tree), "--resume", str(tree)], capsys)[0] == 0
    assert _files(tree) == _files(outputs9)


def test_an_interrupted_write_leaves_no_counts_tsv(outputs9, tmp_path, capsys, monkeypatch):
    # An earlier, complete tree is overwritten in place, and the third
    # file written fails.
    tree = tmp_path / "tree"
    shutil.copytree(outputs9, tree)
    real, written = Path.write_text, []

    def failing(path, text):
        written.append(path)
        if len(written) == 3:
            raise OSError("disk full")
        return real(path, text)

    monkeypatch.setattr(Path, "write_text", failing)
    rc, _, err = run(["generate", "--max-n", "8", "--out", str(tree)], capsys)
    monkeypatch.undo()
    assert rc == 3 and "disk full" in err
    assert not (tree / "counts.tsv").exists()
    assert [p.name for p in written[:2]] == ["min3_n6_m9.g6.tmp", "min3_n6_m10.g6.tmp"]
    rc, err = _resume9(tree, tmp_path, capsys)
    assert rc == 3
    assert f"{tree / 'counts.tsv'}: no such file" in err
