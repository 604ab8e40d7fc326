"""Check that the end-to-end metrics repeat: run the benchmark once per seed.

Usage, from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--save A.json]
    python3 perfbench/spread.py --runs 10 --first-seed 11 --against A.json

Seeds --first-seed onwards are used, one per run.  For each workload and
end-to-end metric of BENCHMARK.json it prints the median and the spread
(Q3 - Q1) / median of the per-run values, quartiles as
statistics.quantiles(values, n=4) gives them.  It exits nonzero if a run
fails or if any spread reaches a third of the metric's bound.  --save
writes the values to a file; --against compares this set's medians with a
saved set and also exits nonzero if one is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    before = json.loads(args.against.read_text()) if args.against else {}
    saved: dict[str, dict[str, list[float]]] = {}
    ok = True
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        values = saved[name] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            share = (q3 - q1) / median
            steady = share < m["bound"] / 3
            ok &= steady
            line = (f"{name:<20} {m['name']:<12} median {median:10.4f} {m['unit']:<4}"
                    f" spread {share:6.3f} bound {m['bound']:.2f} {'ok' if steady else 'TOO WIDE'}")
            if len(old := before.get(name, {}).get(m["name"], [])) >= 2:
                shift = (median - statistics.median(old)) / statistics.median(old)
                worse = shift if m["better"] == "lower" else -shift
                ok &= worse <= m["bound"]
                line += f" vs saved {statistics.median(old):.4f} ({shift:+.3f}{', WORSE' if worse > m['bound'] else ''})"
            print(f"{line}  values {json.dumps([round(v, 4) for v in vals])}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
