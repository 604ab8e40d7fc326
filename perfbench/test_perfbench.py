"""Tests of the benchmark's own span arithmetic, output checks and reference counts.

The reference-count test runs two workloads once, traced (about 20 s).

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from min3gen.cli import main as min3gen_main  # noqa: E402
from reference import SEED_COUNTS  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from verify import same_outputs, verify_tree  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_tracer_wraps_names_callers_look_up_on_toy_nested_call():
    package = types.ModuleType("toypkg")
    module = types.ModuleType("toypkg.m")
    exec(
        "def inner():\n    return [1, 2]\n"
        "def outer():\n    return len(inner()) + len(inner())\n"
        "def _private():\n    return 0\n",
        module.__dict__,
    )
    sys.modules.update({"toypkg": package, "toypkg.m": module})
    try:
        tracer = Tracer(clock=itertools.count().__next__)
        targets = (("m", "outer"), ("m", "inner"), ("m", "_private"), ("m", "gone"))
        tracer.install("toypkg", targets)
        assert module.outer() == 4
    finally:
        del sys.modules["toypkg"], sys.modules["toypkg.m"]
    # outer runs from tick 0 to 5; the two inner calls take ticks 1-2 and 3-4.
    assert tracer.spans == [
        ("m.outer", 0, 5, -1, 0),
        ("m.inner", 1, 2, 0, 0),
        ("m.inner", 3, 4, 0, 0),
    ]
    summary = summarize(tracer)
    assert summary["layers"] == {
        "m.outer": {"calls": 1, "self_s": 3},
        "m.inner": {"calls": 2, "self_s": 2},
    }
    assert summary["absent"] == ["m._private", "m.gone"]


def test_summary_reports_open_spans_and_top_level_spans():
    tracer = Tracer()
    tracer.spans = [("cli.main", 0.0, 2.0, -1, 0), ("canonical.certificate", 0.5, 1.5, 0, 0)]
    summary = summarize(tracer)
    assert summary["open"] == 0
    assert summary["roots"] == [("cli.main", 2.0)]
    tracer.spans.append(None)
    summary = summarize(tracer)
    assert summary["open"] == 1 and summary["layers"] == {}


def test_span_checks_catch_a_broken_tree():
    import run

    def step(roots, main_s=2.0, open_spans=0):
        return {"gross_s": main_s, "trace": {"open": open_spans, "roots": roots}}

    assert run.span_problems(step([("cli.main", 2.0)])) == []
    assert run.span_problems(step([("cli.main", 2.0)], open_spans=1)) == ["1 spans were never closed"]
    assert "expected one cli.main" in run.span_problems(step([("cli.main", 1.0), ("cli.main", 1.0)]))[0]
    assert "expected one cli.main" in run.span_problems(step([]))[0]
    assert "main() took 2.500000 s" in run.span_problems(step([("cli.main", 2.0)], main_s=2.5))[0]


def test_reference_speed_scales_each_step_by_its_own_ticks():
    import run

    ref = run.REFERENCE_TICK_S
    it = run.Iteration(steps=[{"main_s": 3.0, "tick_s": 2 * ref}, {"main_s": 1.0, "tick_s": ref / 2}])
    assert it.wall_s == 4.0
    assert it.wall_ref_s == pytest.approx(1.5 + 2.0)


@pytest.fixture(scope="module")
def min3_n8(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("gen") / "out"
    assert min3gen_main(["generate", "--max-n", "8", "--out", str(out)]) == 0
    return out


@pytest.fixture
def tree(min3_n8, tmp_path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(min3_n8, copy)
    return copy


def test_verifier_accepts_real_output(tree):
    assert verify_tree(tree, "min3", 8) == []


def test_verifier_accepts_real_cubic_output(tmp_path):
    assert min3gen_main(["generate", "--mode", "cubic", "--max-n", "10", "--out", str(tmp_path)]) == 0
    assert verify_tree(tmp_path, "cubic", 10) == []


def test_verifier_fails_output_with_one_graph6_line_deleted(tree):
    path = tree / "min3_n8_m13.g6"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    problems = verify_tree(tree, "min3", 8)
    assert any("min3_n8_m13.g6: 10 graphs, expected 11" in p for p in problems)


def test_verifier_fails_output_with_one_group_count_changed(tree):
    path = tree / "counts.tsv"
    path.write_text(path.read_text().replace("8\t13\t11\n", "8\t13\t12\n"))
    problems = verify_tree(tree, "min3", 8)
    assert any("(n=8, m=13): 12 != 11" in p for p in problems)
    assert any("per-n totals" in p for p in problems)


def test_verifier_fails_graph_that_is_not_minimally_3_connected(tree):
    path = tree / "min3_n6_m10.g6"
    # K_{3,3} plus one edge: 3-connected, but not minimally so.
    path.write_text("Efz_\n")
    problems = verify_tree(tree, "min3", 8)
    assert problems == ["min3_n6_m10.g6:1: fails the min3 oracle"]


def test_same_outputs_skips_shelves_and_catches_changed_bytes(tree, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tree, copy)
    (tree / "shelves").mkdir()
    (tree / "shelves" / "shelf_m9_n6.tsv").write_text("x\n")
    assert same_outputs(tree, copy) == []
    (copy / "min3_n7_m11.g6").write_text("")
    assert same_outputs(tree, copy) == ["resumed output min3_n7_m11.g6 differs from the first run's"]


@pytest.mark.parametrize("name", ["min3-n10", "min3-checkpoint-n9"])
def test_traced_run_reproduces_the_reference_counts(name, tmp_path):
    import run

    traced = run.run_iteration(name, 0, time.monotonic() + run.RUN_LIMIT_S, tmp_path)
    assert traced.problems == []
    _, report, problems = run.per_layer(name, traced, [traced], check_counts=True)
    assert problems == []
    assert sum("matches the reference" in line for line in report) == len(SEED_COUNTS[name])


def test_benchmark_json_names_the_metrics_run_py_prints():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
