"""graph6 codec, shelf files, output writing, and connectivity oracles.

The validation oracles here are deliberately naive: 3-connectivity by
deleting every vertex pair and checking connectedness, minimality by
re-checking after every single edge deletion.  They share no machinery
with the generator's compatibility gates (no cycle sets, no chording
paths), so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import os
from pathlib import Path

from .canonical import certificate
from .graphs import Graph, delete_edge
from .records import CLASS_TAGS, GeneratedSet, Provenance, Shelf, ShelfEntry

SHELF_FORMAT = "min3gen-shelf"
SHELF_VERSION = 3
_TRAILER = "end"

_GRAPH6_HEADER = ">>graph6<<"


def encode_graph6(g: Graph) -> str:
    """Standard graph6 line for graphs on up to 62 vertices.

    One byte n+63, then the upper triangle of the adjacency matrix read
    column by column, packed six bits per byte, each offset by 63.
    """
    n = g.n
    if n > 62:
        raise ValueError("graph6 short form supports at most 62 vertices")
    chars = [chr(n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                chars.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        chars.append(chr((acc << (6 - nbits)) + 63))
    return "".join(chars)


def decode_graph6(line: str) -> Graph:
    """Parse one graph6 line; strict about length and character range."""
    s = line.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 character {ch!r}")
    n = ord(s[0]) - 63
    if n == 63:
        raise ValueError("multi-byte graph6 sizes (n > 62) not supported")
    body = s[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 body for n={n} needs {expected} characters, got {len(body)}"
        )
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    pad = 6 * expected - nbits
    if pad and bits & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 body")
    bits >>= pad
    edges = []
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                edges.append((i, j))
    return Graph(n, edges)


def _connected(masks: list[int], remaining: int) -> bool:
    if remaining == 0:
        return True
    start = remaining & -remaining
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= masks[low.bit_length() - 1]
        nxt &= remaining & ~seen
        seen |= nxt
        frontier = nxt
    return seen == remaining


def is_3_connected(g: Graph) -> bool:
    """No two vertices disconnect g, and n >= 4.

    Deleting every vertex pair and checking connectedness is equivalent to
    checking all separating sets of size at most 2 once n >= 4.
    """
    n = g.n
    if n < 4:
        return False
    masks = [g.neighbor_mask(v) for v in g.vertices]
    full = (1 << n) - 1
    for u in range(n):
        for v in range(u + 1, n):
            if not _connected(masks, full & ~((1 << u) | (1 << v))):
                return False
    return True


def is_minimally_3_connected(g: Graph) -> bool:
    """3-connected, and every single edge deletion destroys that."""
    if not is_3_connected(g):
        return False
    return all(not is_3_connected(delete_edge(g, u, v)) for u, v in g.edges())


def _fmt_edges(pairs: tuple) -> str:
    return ";".join(f"{u}-{v}" for u, v in pairs) if pairs else "-"


def _parse_edges(text: str) -> tuple:
    if text == "-":
        return ()
    out = []
    for part in text.split(";"):
        u, v = part.split("-")
        out.append((int(u), int(v)))
    return tuple(out)


def _fmt_splits(splits: tuple) -> str:
    return ";".join(f"{x}:{u}-{v}" for x, (u, v) in splits) if splits else "-"


def _parse_splits(text: str) -> tuple:
    if text == "-":
        return ()
    out = []
    for part in text.split(";"):
        x, edge_part = part.split(":")
        u, v = edge_part.split("-")
        out.append((int(x), (int(u), int(v))))
    return tuple(out)


def _fmt_cycles(cycles: frozenset) -> str:
    return ",".join("-".join(str(v) for v in cyc) for cyc in sorted(cycles))


def _parse_cycles(text: str) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(tuple(int(v) for v in part.split("-")) for part in text.split(","))


class ShelfFileError(ValueError):
    """A shelf file that cannot be resumed from: not text, malformed,
    truncated, of another version, or written for another (m, n)."""


def save_shelf(shelf: Shelf, path: str | Path) -> None:
    """Write a shelf as a versioned, line-oriented, tab-separated file.

    Each entry's line ends with its stored cycle set, so B and C lines carry
    their A-class ancestor's cycles.  A trailer line gives the entry count
    of every class, so a truncated file is detected on load (format
    version 3).
    """
    lines = [
        f"{SHELF_FORMAT}\t{SHELF_VERSION}",
        f"m\t{shelf.m}",
        f"n\t{shelf.n}",
    ]
    for tag in CLASS_TAGS:
        for ent in shelf.classes.get(tag, ()):
            prov = ent.provenance
            lines.append(
                "\t".join(
                    (
                        tag,
                        encode_graph6(ent.graph),
                        _fmt_edges(prov.added_edges),
                        _fmt_splits(prov.splits),
                        _fmt_cycles(ent.cycles),
                    )
                )
            )
    counts = (f"{tag}={len(shelf.classes.get(tag, ()))}" for tag in CLASS_TAGS)
    lines.append("\t".join((_TRAILER, *counts)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_shelf(path: str | Path, expected: tuple[int, int] | None = None) -> Shelf:
    """Read a shelf file back; entries come out bit-identical to what was saved.

    expected, when given, is the (m, n) the caller asked for, and the
    header must match it.  Entries with equal cycle text share one set, as
    B and C entries with a common ancestor did when the shelf was made.
    Any defect raises ShelfFileError naming the file and, where there is
    one, the line.
    """
    try:
        # Not splitlines(): that also breaks at characters such as \x1c.
        lines = Path(path).read_text().removesuffix("\n").split("\n")
    except UnicodeDecodeError as exc:
        raise ShelfFileError(f"{path}: not a text file ({exc})") from exc
    if len(lines) < 3:
        raise ShelfFileError(f"{path}: truncated shelf file")
    lineno = 1
    try:
        fmt, version = lines[0].split("\t")
        if fmt != SHELF_FORMAT:
            raise ValueError(f"not a shelf file (header {fmt!r})")
        if int(version) != SHELF_VERSION:
            raise ValueError(f"unsupported shelf version {version}")
        lineno = 2
        m = _header_int(lines[1], "m")
        lineno = 3
        n = _header_int(lines[2], "n")
        if expected is not None and (m, n) != expected:
            raise ValueError(f"header says (m, n) = {(m, n)}, expected {expected}")
        classes: dict[str, list[ShelfEntry]] = {}
        shared: dict[str, frozenset] = {}
        trailer = None
        for lineno, line in enumerate(lines[3:], start=4):
            if not line:
                continue
            if trailer is not None:
                raise ValueError("content after the trailer line")
            fields = line.split("\t")
            if fields[0] == _TRAILER:
                trailer = fields[1:]
                continue
            if len(fields) != 5:
                raise ValueError(f"expected 5 fields, got {len(fields)}")
            tag, g6, added_text, splits_text, cycles_text = fields
            if tag not in CLASS_TAGS:
                raise ValueError(f"unknown class tag {tag!r}")
            graph = decode_graph6(g6)
            prov = Provenance(tag, _parse_edges(added_text), _parse_splits(splits_text))
            cycles = shared.get(cycles_text)
            if cycles is None:
                cycles = shared[cycles_text] = _parse_cycles(cycles_text)
            classes.setdefault(tag, []).append(ShelfEntry(graph, cycles, prov, certificate(graph)))
        if trailer is None:
            raise ValueError("missing trailer line (truncated shelf file?)")
        counts = [f"{tag}={len(classes.get(tag, ()))}" for tag in CLASS_TAGS]
        if trailer != counts:
            raise ValueError(
                f"trailer counts {' '.join(trailer)} do not match the entries read, {' '.join(counts)}"
            )
    except ValueError as exc:
        raise ShelfFileError(f"{path}:{lineno}: {exc}") from exc
    return Shelf(m, n, classes)


def _header_int(line: str, key: str) -> int:
    name, value = line.split("\t")
    if name != key:
        raise ValueError(f"expected header {key!r}, found {name!r}")
    return int(value)


def write_outputs(collections: GeneratedSet, out_dir: str | Path) -> list[Path]:
    """Write one graph6 file per group plus a counts.tsv summary.

    Group files are min3_n{n}_m{m}.g6 or cubic_n{n}.g6 depending on the
    mode, with graphs in the certificate order the generator fixed.
    counts.tsv has header n, m, count and one row per written file, sorted.
    Returns the written paths, counts.tsv last.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    rows = []
    for (n, m), bucket in sorted(collections.groups.items()):
        if not bucket:
            continue
        if collections.mode == "min3":
            name = f"min3_n{n}_m{m}.g6"
        elif collections.mode == "cubic":
            name = f"cubic_n{n}.g6"
        else:
            raise ValueError(f"unknown mode {collections.mode!r}")
        path = out / name
        path.write_text("".join(encode_graph6(g) + "\n" for _, g in bucket))
        written.append(path)
        rows.append((n, m, len(bucket)))
    counts = out / "counts.tsv"
    counts.write_text(
        "n\tm\tcount\n" + "".join(f"{n}\t{m}\t{c}\n" for n, m, c in sorted(rows))
    )
    written.append(counts)
    return written


def default_out_dir(flag_value: str | None) -> Path:
    """Resolve the output directory: flag, then MIN3GEN_OUT, then ./out."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("MIN3GEN_OUT")
    if env:
        return Path(env)
    return Path("out")
