"""Command line front end: generate, validate, cycles.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O error
(including a --resume or --out directory that the run cannot use).
Progress and diagnostics go to stderr; stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import sys

from .cycles import enumerate_cycles_bruteforce
from .generator import check_max_n, generate_cubic, generate_min3
from .io_validate import (
    GRAPH6_BLANKS,
    CheckpointError,
    decode_graph6,
    default_out_dir,
    has_only_essential_edges,
    is_3_connected,
    read_lines,
    read_outputs,
    require_out_dir,
    write_outputs,
)


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
        help="also write the outputs again under <out>/shelves, for scripts that "
        "resume from there; --resume reads any output directory",
    )
    gen.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="continue the min3 output directory of an earlier run, after its last column",
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
    # Found before the run, and before a resumed directory is read.
    check_max_n(args.mode, args.max_n)
    if args.mode == "cubic" and (args.emit_intermediate or args.resume):
        raise ValueError("--emit-intermediate and --resume apply to min3 mode only")
    out_dir = default_out_dir(args.out)
    require_out_dir(out_dir, args.mode)
    if args.emit_intermediate:
        require_out_dir(out_dir / "shelves", args.mode)

    def progress(msg: str) -> None:
        print(msg, file=sys.stderr)

    if args.mode == "min3":
        resume = read_outputs(args.resume) if args.resume else None
        result = generate_min3(args.max_n, progress=progress, resume=resume)
    else:
        result = generate_cubic(args.max_n, progress=progress)
    written = write_outputs(result, out_dir)
    if args.emit_intermediate:
        write_outputs(result, out_dir / "shelves")
    print(f"min3gen: wrote {len(written)} files to {out_dir}", file=sys.stderr)
    return 0


def _read_graph_lines(path: str) -> list[tuple[int, str]]:
    return [(i, line) for i, line in enumerate(read_lines(path), start=1) if line.strip(GRAPH6_BLANKS)]


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
            ok = has_only_essential_edges(g)
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
    except CheckpointError as exc:
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
