"""graph6 codec, a run's result and its output tree, and connectivity oracles.

The validation oracles here are deliberately naive: 3-connectivity by
deleting every vertex pair and checking connectedness, minimality by
re-checking after every single edge deletion.  They share no machinery
with the generator's essential-edge test or the paper's gates (no
separator search, no cycle sets, no chording paths), so agreement between
them is evidence, not tautology, and they check everything else.

The program's own minimality test is high_edges_essential, a separator
search at each edge whose ends both have degree above 3: the generator
keeps a bridging by it, and has_only_essential_edges runs it after
is_3_connected.  An output tree is also the checkpoint a min3 run resumes
from: read_outputs checks every line of it with that test and certifies
it, so a line that is not minimally 3-connected, not canonical, or a
repeat stops a resume.
"""

from __future__ import annotations

import os
from pathlib import Path

from .canonical import certificate
from .graphs import Graph, _bits, delete_edge, from_triangle_bits, graph6_line, mask_path, triangle_bits

_GRAPH6_HEADER = ">>graph6<<"
# What a graph6 line may carry around its characters; str.strip() would
# also take characters such as \x1c and \x85, hiding them from the check.
GRAPH6_BLANKS = " \t\r\n"
# The group file name of each mode, formatted with a group's n and m.
_GROUP_FILES = {"min3": "min3_n{n}_m{m}.g6", "cubic": "cubic_n{n}.g6"}


class GeneratedSet:
    """Output of a generation run.

    groups maps (n, m) to the sorted certificates of its isomorphism
    classes.  A certificate is the graph6 line of its class's canonical
    labelling, so it is also the class's output line, and decode_graph6
    turns it back into a graph.  Two sets are equal when their modes and
    groups are.
    """

    def __init__(self, mode: str, groups: dict[tuple[int, int], list[str]]):
        self.mode = mode
        self.groups = groups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratedSet):
            return NotImplemented
        return (self.mode, self.groups) == (other.mode, other.groups)

    def __repr__(self) -> str:
        return f"GeneratedSet(mode={self.mode!r}, groups={self.groups!r})"

    def count(self, n: int | None = None) -> int:
        return sum(
            len(bucket)
            for (nn, _), bucket in self.groups.items()
            if n is None or nn == n
        )


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


def _separated(masks: list[int], u: int, v: int, cut: int, more: int) -> bool:
    """Do the vertices of cut, with at most `more` others, separate u from v?
    Each further vertex of a separator lies inside every u-v path that
    avoids cut, so only the inner vertices of one shortest path are tried."""
    inner = mask_path(masks, u, v, cut)
    return inner < 0 or more > 0 and any(_separated(masks, u, v, cut | 1 << s, more - 1) for s in _bits(inner))


def high_edges_essential(g: Graph) -> bool:
    """Every edge uv of g whose ends both have degree above 3 is essential:
    at most two vertices separate u from v in g - uv.

    In a 3-connected g that is minimality, since an edge at a vertex u of
    degree 3 is essential: u's two other neighbours separate it in g - uv.
    The edges left, 14 of the 5,897 of the outputs with n <= 10, form a
    forest (Mader, 1972).  A bridging of a 3-connected graph is 3-connected
    (Dawes, 1986), so this test alone decides its minimality.
    """
    masks = [g.neighbor_mask(v) for v in g.vertices]
    high = sum(1 << v for v, row in enumerate(masks) if row.bit_count() > 3)
    for u in _bits(high):
        for v in _bits(masks[u] & high & -(2 << u)):  # v > u
            rows = masks.copy()
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            if not _separated(rows, u, v, 0, 2):
                return False
    return True


def has_only_essential_edges(g: Graph) -> bool:
    """is_minimally_3_connected, less the re-checks that degree settles:
    3-connected, and high_edges_essential."""
    return is_3_connected(g) and high_edges_essential(g)


class CheckpointError(ValueError):
    """An output directory that cannot be resumed from (no counts.tsv, a file it
    does not match, a line write_outputs would not have written) or written to."""


def require_out_dir(out_dir: Path, mode: str) -> None:
    """Raise NotADirectoryError when out_dir or its nearest existing ancestor
    is not a directory, and CheckpointError when it holds another mode's tree."""
    for p in (out_dir, *out_dir.parents):
        if p.exists():
            if not p.is_dir():
                raise NotADirectoryError(f"output path is not a directory: {p}")
            break
    _require_mode(out_dir, mode)


def _require_mode(root: Path, mode: str) -> None:
    # counts.tsv names no mode, so a group file of another mode tells the trees apart.
    for other, name in _GROUP_FILES.items():
        if other != mode and (found := sorted(root.glob(name.format(n="*", m="*")))):
            raise CheckpointError(f"{found[0]}: {root} holds a {other} tree, not a {mode} one")


def write_outputs(collections: GeneratedSet, out_dir: str | Path) -> list[Path]:
    """Write one graph6 file per group plus a counts.tsv summary.

    Group files are min3_n{n}_m{m}.g6 or cubic_n{n}.g6 depending on the
    mode.  Line k is the group's k-th certificate, the graph6 line of a
    canonical labelling, so the bytes depend only on the set of
    isomorphism classes.
    counts.tsv has header n, m, count and one row per written file, sorted.
    Each file is written to a temporary name and renamed into place, and
    counts.tsv is removed first and written last, so a directory that has
    one is complete.  Group files of this run's mode that it does not write,
    as a larger run leaves, are removed before counts.tsv is written, so it
    lists every group file of its mode; require_out_dir refuses the other's.
    Returns the written paths, counts.tsv last.
    """
    name = _GROUP_FILES.get(collections.mode)
    if name is None:
        raise ValueError(f"unknown mode {collections.mode!r}")
    out = Path(out_dir)
    require_out_dir(out, collections.mode)
    out.mkdir(parents=True, exist_ok=True)
    counts = out / "counts.tsv"
    counts.unlink(missing_ok=True)
    written = []
    rows = []
    for (n, m), bucket in sorted(collections.groups.items()):
        if not bucket:
            continue
        path = out / name.format(n=n, m=m)
        _replace(path, "".join(c + "\n" for c in bucket))
        written.append(path)
        rows.append((n, m, len(bucket)))
    for stale in set(out.glob(name.format(n="*", m="*"))) - set(written):
        stale.unlink()
    _replace(counts, "n\tm\tcount\n" + "".join(f"{n}\t{m}\t{c}\n" for n, m, c in sorted(rows)))
    written.append(counts)
    return written


def _replace(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def read_outputs(out_dir: str | Path) -> GeneratedSet:
    """The min3 groups of a directory that write_outputs wrote, to resume from.

    counts.tsv must list every min3_n{n}_m{m}.g6 file of the directory,
    and only those, each with its line count.  Every line must be the
    certificate of a minimally 3-connected graph of its file's (n, m), no
    line may repeat another, which with canonical lines means that no class
    is listed twice, and the lines must be in sorted order.  Any defect, or
    a group file of the cubic mode, raises CheckpointError naming the file
    and, where there is one, the line.
    """
    root = Path(out_dir)
    _require_mode(root, "min3")
    counts = root / "counts.tsv"
    if not counts.is_file():
        raise CheckpointError(f"{counts}: no such file, so {root} is no output directory")
    rows = _read_counts(counts)
    names = {_GROUP_FILES["min3"].format(n=n, m=m): (n, m) for n, m in rows}
    present = {p.name for p in root.glob(_GROUP_FILES["min3"].format(n="*", m="*"))}
    if missing := sorted(names.keys() - present):
        raise CheckpointError(f"{root / missing[0]}: missing, though {counts} lists it")
    if extra := sorted(present - names.keys()):
        raise CheckpointError(f"{root / extra[0]}: not listed in {counts}")
    return GeneratedSet("min3", {key: _read_group(root / name, key, rows[key]) for name, key in names.items()})


def read_lines(path: str | Path) -> list[str]:
    """The lines of a file without their newlines, line k at index k - 1."""
    # latin-1 passes any byte on to decode_graph6 to be reported by line; and
    # not splitlines(), which also breaks at characters such as \x1c.
    text = Path(path).read_bytes().decode("latin-1")
    return text.removesuffix("\n").split("\n") if text else []


def _read_counts(path: Path) -> dict[tuple[int, int], int]:
    lines = read_lines(path)
    if lines[:1] != ["n\tm\tcount"]:
        raise CheckpointError(f"{path}:1: expected the header n, m, count")
    rows: dict[tuple[int, int], int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            n, m, count = map(int, line.split("\t"))
            if (n, m) in rows:
                raise ValueError(f"repeats the row of (n, m) = {(n, m)}")
        except ValueError as exc:
            raise CheckpointError(f"{path}:{lineno}: {exc}") from exc
        rows[(n, m)] = count
    return rows


def _read_group(path: Path, key: tuple[int, int], count: int) -> list[str]:
    lines = read_lines(path)
    if len(lines) != count:
        raise CheckpointError(f"{path}: holds {len(lines)} lines, but counts.tsv says {count}")
    seen: dict[str, int] = {}  # line -> its line number
    for lineno, line in enumerate(lines, start=1):
        try:
            if line in seen:
                raise ValueError(f"graph {line} repeats line {seen[line]}")
            seen[line] = lineno
            graph = decode_graph6(line)
            if (graph.n, graph.m) != key:
                raise ValueError(f"graph has (n, m) = {(graph.n, graph.m)}, not the file's {key}")
            if not has_only_essential_edges(graph):
                raise ValueError("graph is not minimally 3-connected")
            if certificate(graph) != line:
                raise ValueError("line is not its own certificate")
        except ValueError as exc:
            raise CheckpointError(f"{path}:{lineno}: {exc}") from exc
    if unsorted := next((i for i in range(1, len(lines)) if lines[i] < lines[i - 1]), None):
        raise CheckpointError(f"{path}:{unsorted + 1}: graph {lines[unsorted]} sorts before line {unsorted}")
    return lines


def default_out_dir(flag_value: str | None) -> Path:
    """Resolve the output directory: flag, then MIN3GEN_OUT, then ./out."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("MIN3GEN_OUT")
    if env:
        return Path(env)
    return Path("out")
