"""graph6 codec, shelf files, output writing, and connectivity oracles.

The validation oracles here are deliberately naive: 3-connectivity by
deleting every vertex pair and checking connectedness, minimality by
re-checking after every single edge deletion.  They share no machinery
with the generator's compatibility gates (no cycle sets, no chording
paths), so agreement between the two is evidence, not tautology.  A
shelf file holds no cycle sets either: the generator derives them when
it loads one.
"""

from __future__ import annotations

import os
from pathlib import Path

from .canonical import certificate
from .graphs import Graph, delete_edge, from_triangle_bits, graph6_line, triangle_bits
from .records import CLASS_TAGS, RESULT_TAGS, GeneratedSet, Provenance, Shelf, ShelfEntry

SHELF_FORMAT = "min3gen-shelf"
SHELF_VERSION = 5
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


def _fmt_edges(pairs: tuple) -> str:
    return ";".join(f"{u}-{v}" for u, v in pairs) if pairs else "-"


def _parse_edges(text: str, n: int) -> tuple:
    if text == "-":
        return ()
    out = []
    for part in text.split(";"):
        u, v = map(int, part.split("-"))
        if not 0 <= u < v < n:
            raise ValueError(f"edge {part} is not a pair u < v of vertices below {n}")
        out.append((u, v))
    return tuple(out)


# How many edges a line of each class holds.
_EDGES = {"A0": 0, "B": 1, "C": 2, "A1": 1, "A2": 0, "A3": 0}


def _check_provenance(g: Graph, prov: Provenance) -> None:
    """Raise ValueError unless prov has a shape the generator gives g.

    Each class holds its number of edges, and each is an edge of g.  C's
    two share one endpoint.  An A1 entry's edge ends at the last vertex,
    of degree 3, which the last split made.  An A1, A2 or A3 graph must be
    minimally 3-connected.
    """
    tag, edges, last = prov.class_tag, prov.added_edges, g.n - 1
    if len(edges) != _EDGES[tag]:
        raise ValueError(f"class {tag} holds {_EDGES[tag]} edge(s), not {len(edges)}")
    if not all(g.has_edge(u, v) for u, v in edges):
        raise ValueError(f"edges {_fmt_edges(edges)} are not all edges of the graph")
    if tag == "C" and len(set(edges[0]) & set(edges[1])) != 1:
        raise ValueError(f"edges {_fmt_edges(edges)} do not share one endpoint")
    if tag == "A1" and not (edges[0][1] == last and g.degree(last) == 3):
        raise ValueError(f"edge {_fmt_edges(edges)} does not end at the last vertex {last} of degree 3")
    if tag in RESULT_TAGS and not is_minimally_3_connected(g):
        raise ValueError("graph is not minimally 3-connected")


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
    """Write a shelf as a versioned, line-oriented, tab-separated file.

    Each entry's line holds only what its graph cannot tell and a later
    operation reads: class tag, graph6 and Provenance.added_edges.  Cycle
    sets are left out, for generator.derive_cycles derives them on load.
    A trailer line gives the entry count of every class, so a truncated
    file is detected on load (format version 5).
    """
    lines = [
        f"{SHELF_FORMAT}\t{SHELF_VERSION}",
        f"m\t{shelf.m}",
        f"n\t{shelf.n}",
    ]
    for tag in CLASS_TAGS:
        for ent in shelf.classes.get(tag, ()):
            lines.append("\t".join((tag, encode_graph6(ent.graph), _fmt_edges(ent.provenance.added_edges))))
    counts = (f"{tag}={len(shelf.classes.get(tag, ()))}" for tag in CLASS_TAGS)
    lines.append("\t".join((_TRAILER, *counts)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_shelf(path: str | Path, expected: tuple[int, int] | None = None) -> Shelf:
    """Read a shelf file back; entries come out as saved, with cycles=None.

    expected, when given, is the (m, n) the caller asked for, and the
    header must match it, and so must every entry's graph.  Each line's
    provenance must have a shape the generator makes, and an A1, A2 or A3
    graph must be minimally 3-connected (_check_provenance).  Only the A1,
    A2, A3 entries are certified, for Shelf.certs; no two
    entry lines may repeat a graph6 field, and no two of those entries a
    certificate, and none may be a wheel or K_{3,t}, which generate_min3
    adds to the output itself.
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
        g6_lines: dict[str, int] = {}  # graph6 field -> its line
        cert_lines: dict[str, int] = {}  # A1/A2/A3 certificate -> its line
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
            if len(fields) != 3:
                raise ValueError(f"expected 3 fields, got {len(fields)}")
            tag, g6, edges_text = fields
            if tag not in CLASS_TAGS:
                raise ValueError(f"unknown class tag {tag!r}")
            if g6 in g6_lines:
                raise ValueError(f"graph {g6} repeats line {g6_lines[g6]}")
            g6_lines[g6] = lineno
            graph = decode_graph6(g6)
            if (graph.m, graph.n) != (m, n):
                raise ValueError(f"graph has (m, n) = {(graph.m, graph.n)}, not the shelf's {(m, n)}")
            prov = Provenance(tag, _parse_edges(edges_text, n))
            _check_provenance(graph, prov)
            if tag in RESULT_TAGS:
                cert = certificate(graph)
                if cert in cert_lines:
                    raise ValueError(f"graph is isomorphic to line {cert_lines[cert]}'s")
                if family := _direct_family(graph):
                    raise ValueError(f"graph is {family}, which no shelf holds")
                cert_lines[cert] = lineno
            classes.setdefault(tag, []).append(ShelfEntry(graph, None, prov))
        if trailer is None:
            raise ValueError("missing trailer line (truncated shelf file?)")
        counts = [f"{tag}={len(classes.get(tag, ()))}" for tag in CLASS_TAGS]
        if trailer != counts:
            raise ValueError(
                f"trailer counts {' '.join(trailer)} do not match the entries read, {' '.join(counts)}"
            )
    except ValueError as exc:
        raise ShelfFileError(f"{path}:{lineno}: {exc}") from exc
    return Shelf(m, n, classes, sorted(cert_lines))


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
