"""Command-line driver, exercised in-process through cli.main(argv)."""

from __future__ import annotations

import pytest

from min3gen import encode_graph6, prism, wheel
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
    assert "min3 shelf n=6" in err
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
    ],
)
def test_generate_usage_errors(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err.strip()


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
    assert names == [
        "shelf_m10_n6.tsv",
        "shelf_m11_n6.tsv",
        "shelf_m11_n7.tsv",
        "shelf_m12_n7.tsv",
        "shelf_m13_n7.tsv",
        "shelf_m14_n7.tsv",
    ]

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
        ["generate", "--mode", "min3", "--max-n", "6", "--out", str(first),
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
        ["generate", "--mode", "min3", "--max-n", "6", "--out", str(tmp_path / "second"),
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
