"""Output checks, run outside the timed region.

A generate output tree passes when its counts.tsv and its graph6 files
match the pinned per-(n, m) table, the per-n totals match the published
counts, and every graph passes the definition-level oracles of
min3gen.io_validate.  Each check returns a list of problems; empty means
the tree is correct.
"""

from __future__ import annotations

from pathlib import Path

from reference import GROUPS, PUBLISHED

MAX_PROBLEMS = 10


def group_file(mode: str, n: int, m: int) -> str:
    return f"min3_n{n}_m{m}.g6" if mode == "min3" else f"cubic_n{n}.g6"


def _read_counts(path: Path) -> dict[tuple[int, int], int]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "n\tm\tcount":
        raise ValueError(f"{path.name}: bad header")
    rows = {}
    for line in lines[1:]:
        n, m, c = (int(x) for x in line.split("\t"))
        rows[(n, m)] = c
    return rows


def verify_tree(out_dir: Path, mode: str, max_n: int) -> list[str]:
    """Problems with one generate output tree, at most MAX_PROBLEMS of them."""
    from min3gen.io_validate import decode_graph6, is_3_connected, is_minimally_3_connected

    def passes_oracle(g) -> bool:
        if mode == "min3":
            return is_minimally_3_connected(g)
        return all(g.degree(v) == 3 for v in g.vertices) and is_3_connected(g)

    expected = {k: c for k, c in GROUPS[mode].items() if k[0] <= max_n}
    problems: list[str] = []
    try:
        counts = _read_counts(out_dir / "counts.tsv")
    except (OSError, ValueError) as exc:
        return [f"counts.tsv unreadable: {exc}"]
    if counts != expected:
        diff = sorted(k for k in expected.keys() | counts.keys() if counts.get(k) != expected.get(k))
        problems.append(
            "counts.tsv differs from the reference at "
            + ", ".join(f"(n={n}, m={m}): {counts.get((n, m))} != {expected.get((n, m))}" for n, m in diff)
        )
    totals: dict[int, int] = {}
    for (n, _), c in counts.items():
        totals[n] = totals.get(n, 0) + c
    published = {n: c for n, c in PUBLISHED[mode].items() if n <= max_n}
    if totals != published:
        problems.append(f"per-n totals {totals} differ from the published {published}")
    names = {group_file(mode, n, m) for n, m in expected}
    present = {p.name for p in out_dir.glob("*.g6")}
    if present != names:
        problems.append(f"graph6 files: missing {sorted(names - present)}, extra {sorted(present - names)}")
    for (n, m), count in sorted(expected.items()):
        path = out_dir / group_file(mode, n, m)
        if not path.is_file():
            continue
        lines = path.read_text().splitlines()
        if len(lines) != count:
            problems.append(f"{path.name}: {len(lines)} graphs, expected {count}")
        if len(set(lines)) != len(lines):
            problems.append(f"{path.name}: repeated graph6 lines")
        for lineno, line in enumerate(lines, start=1):
            try:
                g = decode_graph6(line)
            except ValueError as exc:
                problems.append(f"{path.name}:{lineno}: {exc}")
                continue
            if g.n != n or len(g.edges()) != m:
                problems.append(f"{path.name}:{lineno}: has n={g.n}, m={len(g.edges())}")
            elif not passes_oracle(g):
                problems.append(f"{path.name}:{lineno}: fails the {mode} oracle")
            if len(problems) >= MAX_PROBLEMS:
                return problems
    return problems[:MAX_PROBLEMS]


def _files(root: Path, skip: set[str]) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.relative_to(root).parts[0] not in skip
    }


def same_outputs(a: Path, b: Path) -> list[str]:
    """Problems if the output files of tree b differ from those of tree a.

    The shelves/ checkpoint directory of a is not an output and is skipped.
    """
    fa, fb = _files(a, {"shelves"}), _files(b, {"shelves"})
    if fa.keys() != fb.keys():
        return [f"resumed outputs differ in file names: {sorted(fa.keys() ^ fb.keys())}"]
    differ = [name for name in fa if fa[name] != fb[name]]
    return [f"resumed output {name} differs from the first run's" for name in differ]
