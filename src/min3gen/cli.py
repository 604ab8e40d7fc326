"""Command line front end: generate, validate, cycles.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O error
(including a shelf file that cannot be resumed from).
Progress and diagnostics go to stderr; stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cycles import enumerate_cycles_bruteforce
from .generator import generate_cubic, generate_min3
from .io_validate import (
    ShelfFileError,
    decode_graph6,
    default_out_dir,
    is_3_connected,
    is_minimally_3_connected,
    load_shelf,
    save_shelf,
    write_outputs,
)


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="min3gen",
        description="Exhaustive isomorph-free generation of minimally "
        "3-connected graphs and 3-connected cubic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the generator and write graph6 outputs")
    gen.add_argument("--mode", choices=("min3", "cubic"), default="min3")
    gen.add_argument("--max-n", type=int, required=True, help="largest vertex count")
    gen.add_argument(
        "--out",
        default=None,
        help="output directory (default: $MIN3GEN_OUT, then ./out)",
    )
    gen.add_argument(
        "--emit-intermediate",
        action="store_true",
        help="also save every shelf (including B and C classes) under <out>/shelves",
    )
    gen.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="reuse shelf files from a previous --emit-intermediate run",
    )
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser("validate", help="check every graph in a graph6 file")
    val.add_argument("path", help="graph6 file, one graph per line")
    val.add_argument("--mode", choices=("min3", "cubic"), default="min3")
    val.set_defaults(func=cmd_validate)

    cyc = sub.add_parser("cycles", help="print brute-force cycle counts per graph")
    cyc.add_argument("path", help="graph6 file, one graph per line")
    cyc.set_defaults(func=cmd_cycles)
    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    out_dir = default_out_dir(args.out)

    def progress(msg: str) -> None:
        print(msg, file=sys.stderr)

    if args.mode == "min3":
        if args.max_n < 6:
            raise UsageError("min3 mode needs --max-n >= 6")
        saver = None
        loader = None
        if args.emit_intermediate:
            shelf_dir = out_dir / "shelves"
            shelf_dir.mkdir(parents=True, exist_ok=True)

            def saver(shelf):
                save_shelf(shelf, shelf_dir / f"shelf_m{shelf.m}_n{shelf.n}.tsv")

        if args.resume:
            resume_dir = Path(args.resume)
            if not resume_dir.is_dir():
                raise UsageError(f"--resume directory {resume_dir} does not exist")

            def loader(m, n):
                path = resume_dir / f"shelf_m{m}_n{n}.tsv"
                return load_shelf(path, (m, n)) if path.exists() else None

        result = generate_min3(
            args.max_n,
            emit_intermediate=args.emit_intermediate,
            progress=progress,
            shelf_loader=loader,
            shelf_saver=saver,
        )
    else:
        if args.max_n < 4 or args.max_n % 2:
            raise UsageError("cubic mode needs an even --max-n >= 4")
        if args.emit_intermediate or args.resume:
            raise UsageError("--emit-intermediate and --resume apply to min3 mode only")
        result = generate_cubic(args.max_n, progress=progress)
    written = write_outputs(result, out_dir)
    print(f"min3gen: wrote {len(written)} files to {out_dir}", file=sys.stderr)
    return 0


def _read_graph_lines(path: str) -> list[tuple[int, str]]:
    text = Path(path).read_text()
    return [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def cmd_validate(args: argparse.Namespace) -> int:
    lines = _read_graph_lines(args.path)
    if not lines:
        print(f"min3gen: {args.path} contains no graphs", file=sys.stderr)
        return 0
    for lineno, line in lines:
        try:
            g = decode_graph6(line)
        except ValueError as exc:
            print(f"{args.path}:{lineno}: {exc}", file=sys.stderr)
            return 1
        if args.mode == "min3":
            ok = is_minimally_3_connected(g)
        else:
            ok = all(g.degree(v) == 3 for v in g.vertices) and is_3_connected(g)
        if not ok:
            print(
                f"{args.path}:{lineno}: graph fails {args.mode} validation: {line.strip()}",
                file=sys.stderr,
            )
            return 1
    print(f"min3gen: {len(lines)} graphs valid", file=sys.stderr)
    return 0


def cmd_cycles(args: argparse.Namespace) -> int:
    lines = _read_graph_lines(args.path)
    for lineno, line in lines:
        try:
            g = decode_graph6(line)
        except ValueError as exc:
            print(f"{args.path}:{lineno}: {exc}", file=sys.stderr)
            return 1
        print(f"{lineno}\t{len(enumerate_cycles_bruteforce(g))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"min3gen: {exc}", file=sys.stderr)
        return 2
    except ShelfFileError as exc:
        print(f"min3gen: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"min3gen: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"min3gen: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
