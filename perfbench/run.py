"""min3gen benchmark: batch workloads, end-to-end metrics, outside-in traced runs.

Usage, from the repository root:

    python3 perfbench/run.py --workload min3-n10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload step is a fresh child interpreter that imports min3gen.cli
and calls main() once; steps run one at a time (a closed loop with one
client).  With --trace 0 the run repeats the workload for --seconds and
reports end-to-end medians; with --trace 1 it runs the workload once with
min3gen's public functions wrapped (see spans.py), then untraced for the
tracing overhead, and reports per-layer metrics.  The workloads have no
random input: the seed only orders the workloads of a full run.  Every
iteration's outputs are checked outside the timed region.

Timings are reported at a reference host speed.  A workload step times a
short fixed loop (child.tick) five times a second during main(), and its
main() time t beside a mean tick time c is reported as
t * REFERENCE_TICK_S / c.  Each set-up probe is paired with a bare probe,
an interpreter that imports nothing, and its set-up time t beside the bare
start-up time b is reported as t * REFERENCE_BARE_S / b.  On a shared host
whose speed drifts by tens of percent this removes most of the drift; the
raw times are printed beside them.

The last stdout line is a JSON object with correct, attempted, failed and
metrics; the exit code is nonzero when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import SEED_COUNTS
from verify import same_outputs, verify_tree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170.0
# Set-up probes: a first batch, then a few after each iteration, so that
# they sample the host's speed across the whole run.
SETUP_PROBES_FIRST = 11
SETUP_PROBES_BETWEEN = 5
MIB = 1024 * 1024
# child.tick()'s and a bare interpreter start's typical times on the host
# the benchmark was defined on (Intel Xeon at 2.0 GHz, 2 vCPUs, Python
# 3.11); they only fix the scale.
REFERENCE_TICK_S = 0.0012
REFERENCE_BARE_S = 0.045


@dataclass(frozen=True)
class Workload:
    mode: str
    max_n: int
    # (argv template, output directory) per step; {dir} is the iteration's directory.
    steps: tuple[tuple[tuple[str, ...], str], ...]


WORKLOADS = {
    "min3-n10": Workload(
        "min3", 10, ((("generate", "--mode", "min3", "--max-n", "10", "--out", "{dir}/out"), "out"),)
    ),
    "cubic-n14": Workload(
        "cubic", 14, ((("generate", "--mode", "cubic", "--max-n", "14", "--out", "{dir}/out"), "out"),)
    ),
    "min3-checkpoint-n9": Workload(
        "min3",
        9,
        (
            (("generate", "--max-n", "9", "--emit-intermediate", "--out", "{dir}/A"), "A"),
            (("generate", "--max-n", "9", "--resume", "{dir}/A/shelves", "--out", "{dir}/B"), "B"),
        ),
    ),
}

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "written_mb": "MiB"}

# Self times only for layers every workload calls: a layer a workload never
# reaches would read exactly 0 s on every run.  Printed tables show them all.
PER_LAYER = {
    "cli.main.self_s": "s",
    "canonical.certificate.calls": "count",
    "canonical.certificate.self_s": "s",
    "canonical.certificate.us_per_call": "us",
    "compat.has_chording_path.calls": "count",
    "compat.no_chording_paths.calls": "count",
    "compat.no_chording_paths.pass_ratio": "ratio",
    "cycles.apply_add_edge.calls": "count",
    "cycles.apply_add_edge.cycles_out": "count",
    "cycles.apply_flip_edge.calls": "count",
    "cycles.apply_subdivide_edge.calls": "count",
    "graphs.add_edge.calls": "count",
    "graphs.split_vertex.calls": "count",
    "graphs.bridge_edges.calls": "count",
    "graphs.self_s": "s",
    "generator.run_shelf.calls": "count",
    **{f"generator.{op}.candidates": "count" for op in ("e1", "e2", "c1", "c2", "c3")},
    **{f"generator.{tag}.{stat}": unit for tag in ("B", "C", "A1", "A2", "A3")
       for stat, unit in (("admitted", "count"), ("admit_ratio", "ratio"))},
    "generator.cubic.candidates": "count",
    "generator.cubic.admitted": "count",
    "generator.cubic.admit_ratio": "ratio",
    "generator.self_s": "s",
    "io_validate.write_outputs.self_s": "s",
    "io_validate.save_shelf.calls": "count",
    "io_validate.load_shelf.calls": "count",
    "io_validate.encode_graph6.calls": "count",
    "io_validate.decode_graph6.calls": "count",
    "io_validate.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# The procedure whose candidates each admitted class comes from.
PRODUCER = {"B": "e1", "C": "e2", "A1": "c1", "A2": "c2", "A3": "c3"}
SHELF_LINE = re.compile(r"min3 shelf n=\d+ m=\d+: B=(\d+) C=(\d+) A1=(\d+) A2=(\d+) A3=(\d+)$")
CUBIC_LINE = re.compile(r"cubic n=\d+: (\d+) graphs$")


@dataclass
class Iteration:
    steps: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    written_bytes: int = 0

    @property
    def timed(self) -> bool:
        return all("main_s" in s for s in self.steps)

    @property
    def wall_s(self) -> float:
        return sum(s["main_s"] for s in self.steps)

    @property
    def wall_ref_s(self) -> float:
        """main() time at the reference speed, each step scaled by its own ticks."""
        return sum(s["main_s"] * REFERENCE_TICK_S / s["tick_s"] for s in self.steps)


def spawn(request: dict, deadline: float, bare: bool = False) -> dict:
    """Run child.py once and return its result, with "problem" set on failure."""
    timeout = max(deadline - time.monotonic(), 1.0)
    t = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), repr(t), "-" if bare else str(SRC), json.dumps(request)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problem": f"step timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problem": f"child exited {proc.returncode} without a result: {proc.stderr[-400:]}"}
    out["stderr"] = proc.stderr
    if proc.returncode != 0 or out.get("rc") != 0:
        out["problem"] = f"main() returned {out.get('rc')}: {out.get('error') or proc.stderr[-400:]}"
    return out


def run_iteration(name: str, index: int, deadline: float, trace_dir: Path | None = None) -> Iteration:
    wl = WORKLOADS[name]
    it = Iteration()
    d = WORK / name / f"iter{index}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    for k, (argv, _) in enumerate(wl.steps):
        request: dict = {"argv": [a.format(dir=d) for a in argv]}
        if trace_dir is not None:
            request.update(spans_out=str(trace_dir / f"spans-run{k}.tsv"), run_id=k)
        step = spawn(request, deadline)
        it.steps.append(step)
        if "problem" in step:
            it.problems.append(step["problem"])
            break
    else:
        first = d / wl.steps[0][1]
        it.problems += verify_tree(first, wl.mode, wl.max_n)
        for _, out in wl.steps[1:]:
            it.problems += same_outputs(first, d / out)
    it.written_bytes = sum(p.stat().st_size for p in d.rglob("*") if p.is_file())
    shutil.rmtree(d)
    return it


def repeat(name: str, first_index: int, started: float, seconds: float, deadline: float,
           setup: list[tuple[float, float]] | None = None) -> list[Iteration]:
    """Run iterations, at least one, while the next is expected to end within the budget.

    Given a setup list, also add SETUP_PROBES_BETWEEN set-up probes to it after each iteration.
    """
    its: list[Iteration] = []
    rounds: list[float] = []
    while True:
        t = time.monotonic()
        its.append(run_iteration(name, first_index + len(its), deadline))
        if setup is not None:
            setup += setup_samples(deadline, SETUP_PROBES_BETWEEN)
        rounds.append(time.monotonic() - t)
        spent = time.monotonic() - started
        if spent + statistics.median(rounds) > min(seconds, deadline - started):
            return its


def setup_samples(deadline: float, count: int, warm_up: bool = False) -> list[tuple[float, float]]:
    """(set-up time, bare start-up time) of fresh interpreter pairs, after a warm-up that fills caches if asked."""
    if warm_up:
        spawn({"argv": None}, deadline)
        spawn({"argv": None}, deadline, bare=True)
    samples = []
    for _ in range(count):
        out = spawn({"argv": None}, deadline)
        bare = spawn({"argv": None}, deadline, bare=True)
        if "setup_s" in out and "setup_s" in bare:
            samples.append((out["setup_s"], bare["setup_s"]))
    return samples


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def end_to_end(name: str, its: list[Iteration], setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    timed = [i for i in its if i.timed]
    samples = {
        "wall_ref_s": [i.wall_ref_s for i in timed],
        "setup_s": [t * REFERENCE_BARE_S / bare for t, bare in setup],
        "peak_rss_mb": [max(s["peak_rss_mb"] for s in i.steps) for i in timed],
        "written_mb": [i.written_bytes / MIB for i in timed],
    }
    printed = {
        "wall_s": ("s", [i.wall_s for i in timed], "raw, not in the JSON line"),
        "raw_setup_s": ("s", [t for t, _ in setup], "raw, not in the JSON line"),
        "tick_s": ("s", [s["tick_s"] for i in timed for s in i.steps],
                   f"mean tick per step, reference {REFERENCE_TICK_S} s"),
        "bare_s": ("s", [bare for _, bare in setup], f"bare interpreter start, reference {REFERENCE_BARE_S} s"),
    }
    if len(WORKLOADS[name].steps) > 1:
        resume = [REFERENCE_TICK_S * i.steps[-1]["main_s"] / i.steps[-1]["tick_s"] for i in timed]
        printed["resume_ref_s"] = ("s", resume, "last step only, not in the JSON line")
    values = {}
    report = []
    for metric, vals in samples.items():
        if vals:
            values[metric] = statistics.median(vals)
            report.append(f"  {metric:<12} {values[metric]:10.4f} {END_TO_END[metric]:<5} median, {describe(vals)}")
    for metric, (unit, vals, note) in printed.items():
        if vals:
            report.append(f"  {metric:<12} {statistics.median(vals):10.4f} {unit:<5} median, {describe(vals)} ({note})")
    failed = sum(1 for i in its if i.problems)
    report.append(f"  {'failed_frac':<12} {failed / len(its):10.4f} {'1':<5} {failed} of {len(its)} iterations")
    return values, report


def admitted_counts(name: str, traced: Iteration) -> dict[str, int]:
    """Entries admitted per class, from the progress lines of computing (not resuming) steps."""
    out = {f"generator.{tag}.admitted": 0 for tag in PRODUCER} | {"generator.cubic.admitted": 0}
    for (argv, _), step in zip(WORKLOADS[name].steps, traced.steps):
        if "--resume" in argv:
            continue
        for line in step.get("stderr", "").splitlines():
            if m := SHELF_LINE.match(line):
                for tag, value in zip(PRODUCER, m.groups()):
                    out[f"generator.{tag}.admitted"] += int(value)
            elif m := CUBIC_LINE.match(line):
                out["generator.cubic.admitted"] += int(m.group(1))
    return out


def span_problems(step: dict) -> list[str]:
    """Checks that the spans of one traced step form the expected tree.

    Every span must be closed, and the only top-level span must be the one
    cli.main call, lasting as long as the child timed it (the two clocks
    differ only by the wrapper's own entry and exit).
    """
    summary = step["trace"]
    if summary["open"]:
        return [f"{summary['open']} spans were never closed"]
    roots = summary["roots"]
    if [r[0] for r in roots] != ["cli.main"]:
        return [f"top-level spans are {[r[0] for r in roots]}, expected one cli.main"]
    if abs(roots[0][1] - step["gross_s"]) > 1e-3:
        return [f"the cli.main span lasts {roots[0][1]:.6f} s, main() took {step['gross_s']:.6f} s"]
    return []


def per_layer(name: str, traced: Iteration, untraced: list[Iteration],
              check_counts: bool = False) -> tuple[dict, list[str], list[str]]:
    layers: dict[str, dict] = {}
    counts: dict[str, int] = {}
    spans = 0
    problems: list[str] = []
    for step in traced.steps:
        problems += span_problems(step)
        summary = step["trace"]
        spans += summary["spans"]
        for fn, entry in summary["layers"].items():
            acc = layers.setdefault(fn, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for key, value in summary["counts"].items():
            counts[key] = counts.get(key, 0) + value
    absent = traced.steps[0]["trace"]["absent"]
    wall = traced.wall_s
    # Overhead at the reference speed, so that host drift between the traced
    # and the untraced iterations does not show up as tracing cost.
    untraced_ref = statistics.median(i.wall_ref_s for i in untraced if i.timed)
    overhead = traced.wall_ref_s - untraced_ref
    self_sum = sum(e["self_s"] for e in layers.values())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    stats: dict[str, float] = {**counts, **admitted_counts(name, traced)}
    for fn, entry in layers.items():
        stats[f"{fn}.calls"] = entry["calls"]
        stats[f"{fn}.self_s"] = entry["self_s"]
        stats[f"{fn}.us_per_call"] = ratio(entry["self_s"] * 1e6, entry["calls"])
    for module in {fn.split(".")[0] for fn in layers}:
        stats[f"{module}.self_s"] = sum(e["self_s"] for fn, e in layers.items() if fn.startswith(module + "."))
    stats["generator.cubic.candidates"] = stats.get("graphs.bridge_edges.calls", 0)
    for tag, op in (*PRODUCER.items(), ("cubic", "cubic")):
        stats[f"generator.{tag}.admit_ratio"] = ratio(
            stats[f"generator.{tag}.admitted"], stats.get(f"generator.{op}.candidates", 0)
        )
    stats["compat.no_chording_paths.pass_ratio"] = ratio(
        stats.get("compat.no_chording_paths.passed", 0), stats.get("compat.no_chording_paths.calls", 0)
    )
    stats.update({"trace.wall_s": wall, "trace.overhead_s": overhead, "trace.spans": spans})
    values = {metric: stats.get(metric, 0) for metric in PER_LAYER}

    report = [f"  {'function':<34} {'calls':>8} {'self_s':>9} {'share':>7} {'us/call':>9}"]
    for fn, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        report.append(
            f"  {fn:<34} {entry['calls']:>8} {entry['self_s']:>9.4f} {100 * ratio(entry['self_s'], self_sum):>6.1f}%"
            f" {ratio(entry['self_s'] * 1e6, entry['calls']):>9.1f}"
        )
    for key, value in sorted(counts.items()):
        report.append(f"  {key:<34} {value:>8}")
    report.append(f"  absent (not wrapped): {', '.join(absent) if absent else 'none'}")
    report.append("  wait time: none; min3gen is one process with one thread, so no layer waits on another")
    # The spans nest, so the self times telescope to the cli.main spans;
    # span_problems() checks that those last as long as main() did.  Both
    # include the ticks taken inside main().
    gross = sum(s["gross_s"] for s in traced.steps)
    report.append(
        f"  traced wall with ticks {gross:.4f} s = sum of self times {self_sum:.4f} s + {gross - self_sum:.6f} s"
        f" (an identity, not a check); at reference speed traced {traced.wall_ref_s:.4f} s,"
        f" untraced median {untraced_ref:.4f} s (n={len(untraced)}), overhead {overhead:+.4f} s"
        f" ({100 * ratio(overhead, untraced_ref):+.1f}%)"
    )
    for key, expected in SEED_COUNTS.get(name, {}).items():
        got = stats.get(key, 0)
        verdict = "matches" if got == expected else "DIFFERS from"
        report.append(f"  exact count {key} = {got} {verdict} the reference {expected}")
        if check_counts and got != expected:
            problems.append(f"exact count {key} = {got}, the reference is {expected}")
    return values, report, problems


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "min3gen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run(name: str, trace: bool, seconds: float, deadline: float) -> tuple[dict, bool]:
    started = time.monotonic()
    if trace:
        trace_dir = WORK / name / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        traced = run_iteration(name, 0, deadline, trace_dir)
        its = [traced] + repeat(name, 1, started, seconds, deadline)
        values, report, problems = ({}, [], [])
        if not traced.problems and any(i.timed for i in its[1:]):
            values, report, problems = per_layer(name, traced, its[1:])
        traced.problems += problems
        units = PER_LAYER
        report.append(f"  spans written to {trace_dir.relative_to(ROOT)}/")
    else:
        setup = setup_samples(deadline, SETUP_PROBES_FIRST, warm_up=True)
        # The --seconds budget starts after the first set-up probes.
        its = repeat(name, 0, time.monotonic(), seconds, deadline, setup)
        values, report = end_to_end(name, its, setup)
        units = END_TO_END
    failed = sum(1 for i in its if i.problems)
    correct = failed == 0 and all(m in values for m in units)
    print(f"workload {name}, trace {int(trace)}: {len(its)} iterations, {failed} failed,"
          f" {time.monotonic() - started:.1f} s")
    for line in report:
        print(line)
    for i, it in enumerate(its):
        for problem in it.problems:
            print(f"  FAILED iteration {i}: {problem}")
    line = {
        "correct": correct,
        "attempted": len(its),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units if m in values},
    }
    return line, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if not (SRC / "min3gen" / "cli.py").is_file():
        print(f"perfbench: no min3gen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    print("env " + json.dumps(environment(args.seed)))
    ok = True
    for name in names:
        for trace in modes:
            deadline = time.monotonic() + RUN_LIMIT_S
            line, correct = run(name, trace, args.seconds, deadline)
            ok &= correct
            print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
