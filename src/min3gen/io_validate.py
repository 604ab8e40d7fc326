"""graph6 codec, shelf files, output writing, and connectivity oracles.

The validation oracles here are deliberately naive: 3-connectivity by
deleting every vertex pair and checking connectedness, minimality by
re-checking after every single edge deletion.  They share no machinery
with the generator's compatibility gates (no cycle sets, no chording
paths), so agreement between the two is evidence, not tautology.  A
shelf file is its graphs' certificates, one graph6 line each, and holds
no cycle sets: the generator derives them when it loads one.  Loading
checks every line with the oracles and certifies it, so a line that is
not minimally 3-connected, or repeats a class, stops a resume.
"""

from __future__ import annotations

import os
from pathlib import Path

from .canonical import certificate
from .graphs import Graph, delete_edge, from_triangle_bits, graph6_line, triangle_bits
from .records import GeneratedSet, Shelf, ShelfEntry

SHELF_FORMAT = "min3gen-shelf"
SHELF_VERSION = 6
_TRAILER = "end"

_GRAPH6_HEADER = ">>graph6<<"
# What a graph6 line may carry around its characters; str.strip() would
# also take characters such as \x1c and \x85, hiding them from the check.
GRAPH6_BLANKS = " \t\r\n"


def encode_graph6(g: Graph) -> str:
    """Standard graph6 line for graphs on up to 62 vertices, packed by
    graphs.graph6_line as certificates are."""
    masks = tuple(g.neighbor_mask(v) for v in g.vertices)
    return graph6_line(g.n, triangle_bits(masks, g.vertices))


def decode_graph6(line: str) -> Graph:
    """Parse one graph6 line; strict about length and character range."""
    s = line.strip(GRAPH6_BLANKS)
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
    return from_triangle_bits(n, bits >> pad)


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


def _direct_family(g: Graph) -> str | None:
    """The name of minimally 3-connected g if it is a graph generate_min3
    builds directly, the wheel W_{n-1} or K_{3,n-3}, and None otherwise.

    With m = 2(n-1), a vertex of degree n-1 leaves n-1 edges on the other
    n-1 vertices, each of degree 3, so they form a cycle and g is the
    wheel.  With m = 3(n-3), three vertices sharing a neighbourhood of
    n-3 vertices already hold every edge, so g is K_{3,n-3}.  Deciding by
    degrees and neighbourhoods spares a certificate per shelf.
    """
    n, m = g.n, g.m
    masks = [g.neighbor_mask(v) for v in range(n)]
    if m == 2 * (n - 1) and any(mask.bit_count() == n - 1 for mask in masks):
        return f"the wheel W_{n - 1}"
    if m == 3 * (n - 3):
        sides = [mask for mask in masks if mask.bit_count() == n - 3]
        if any(sides.count(mask) >= 3 for mask in sides):
            return f"K_{{3,{n - 3}}}"
    return None


class ShelfFileError(ValueError):
    """A shelf file that cannot be resumed from: not text, malformed,
    truncated, of another version, or written for another (m, n)."""


def save_shelf(shelf: Shelf, path: str | Path) -> None:
    """Write a shelf as a versioned, line-oriented file (format version 6).

    Three header lines are followed by one line per entry, its
    certificate, which is the graph6 of its class's canonical labelling,
    so the bytes depend only on the shelf's isomorphism classes.  Cycle
    sets are left out, for generator.derive_cycles derives them on load.
    A trailer line gives the entry count, so a truncated file is detected
    on load.
    """
    lines = [f"{SHELF_FORMAT}\t{SHELF_VERSION}", f"m\t{shelf.m}", f"n\t{shelf.n}", *shelf.certs]
    lines.append(f"{_TRAILER}\t{len(shelf.certs)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_shelf(path: str | Path, expected: tuple[int, int] | None = None) -> Shelf:
    """Read a shelf file back; entries come out with cycles=None.

    expected, when given, is the (m, n) the caller asked for, and the
    header must match it, and so must every line's graph.  Every graph
    must be minimally 3-connected, and none may be a wheel or K_{3,t},
    which generate_min3 adds to the output itself.  No two lines may
    repeat a graph6 string, and no two a certificate.  Any defect raises
    ShelfFileError naming the file and, where there is one, the line.
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
        g6_lines: dict[str, int] = {}  # graph6 line -> its line number
        found: dict[str, tuple[int, Graph]] = {}  # certificate -> its line number and graph
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
            if line in g6_lines:
                raise ValueError(f"graph {line} repeats line {g6_lines[line]}")
            g6_lines[line] = lineno
            graph = decode_graph6(line)
            if (graph.m, graph.n) != (m, n):
                raise ValueError(f"graph has (m, n) = {(graph.m, graph.n)}, not the shelf's {(m, n)}")
            if not is_minimally_3_connected(graph):
                raise ValueError("graph is not minimally 3-connected")
            if family := _direct_family(graph):
                raise ValueError(f"graph is {family}, which no shelf holds")
            cert = certificate(graph)
            if cert in found:
                raise ValueError(f"graph is isomorphic to line {found[cert][0]}'s")
            found[cert] = (lineno, graph)
        if trailer is None:
            raise ValueError("missing trailer line (truncated shelf file?)")
        if trailer != [str(len(found))]:
            raise ValueError(f"trailer count {' '.join(trailer)} does not match the {len(found)} lines read")
    except ValueError as exc:
        raise ShelfFileError(f"{path}:{lineno}: {exc}") from exc
    certs = sorted(found)
    return Shelf(m, n, [ShelfEntry(found[c][1], None) for c in certs], certs)


def _header_int(line: str, key: str) -> int:
    name, value = line.split("\t")
    if name != key:
        raise ValueError(f"expected header {key!r}, found {name!r}")
    return int(value)


def write_outputs(collections: GeneratedSet, out_dir: str | Path) -> list[Path]:
    """Write one graph6 file per group plus a counts.tsv summary.

    Group files are min3_n{n}_m{m}.g6 or cubic_n{n}.g6 depending on the
    mode.  Line k is the group's k-th certificate, the graph6 line of a
    canonical labelling, so the bytes depend only on the set of
    isomorphism classes.
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
        path.write_text("".join(c + "\n" for c in bucket))
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
