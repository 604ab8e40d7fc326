"""Exhaustive isomorph-free generation of minimally 3-connected graphs.

The generator grows graphs from the triangular prism along a bookshelf of
(vertex count n, edge count m) shelves with Dawes' one operation (Dawes,
JCTB 40, 1986), bridging a set of vertices and edges, applied to sets of
three shapes (vertex count, edge count).  Shelf (n, m) holds the minimally
3-connected graphs of that size the bridgings reach from the shelves of
the two previous columns:

- a vertex and an edge, shape (1, 1), of each graph on shelf (n-1, m-2);
- three vertices, shape (3, 0), of each graph on shelf (n-1, m-3);
- two edges, shape (0, 2), of each graph on shelf (n-2, m-3).

Turned around, each graph feeds exactly three later shelves, so the walk
pushes: once a column's shelves, sets of certificates, are complete, each
certificate is decoded into a source once and bridged into the shelves it
feeds, at one site per orbit of the source's automorphism group, since the
sites of an orbit give isomorphic graphs.  A bridging of a 3-connected
graph is 3-connected, so it is kept exactly when
io_validate.high_edges_essential holds of it; bridgings(src, shape)
returns those of one shape, each with its site, the set's vertices and
edges.  It drops, before bridging them, the D1 and D3 sites where a
fan, paths found once per source from a neighbour of degree 4 or more of
a vertex of the site, proves an edge of the bridging inessential: nine in
ten of the sites that fail the child test up to n = 11.  A mode's one
keep function maps each kept child, with its site, to the certificate it
adds to its shelf, or to None.  The min3 mode skips
a child with a D1 reduction proven valid and less than the one its site
undoes (construction.has_smaller_d1_reduction), which spares most
certificates, and keeps every other child by its certificate, the
isomorphs left joined by the shelf's set.  That assumes every valid
parent is on its shelf, as in a fresh run or one resumed from a tree a
run wrote.  The walk carries no graph and no cycle set from shelf to
shelf.
The paper decides a bridging on the source instead, by the
3-compatibility of its set on the source's cycle set; compat and cycles
keep that method as the oracle of the child test.

Wheels and K_{3,t}, the minimally 3-connected graphs no prism-rooted chain
reaches, are built directly; each joins its group as its shelf completes.
The cubic mode is the same walk from K4 over the even vertex counts alone,
so only the two-edge bridging, which adds two vertices, feeds a shelf:
(n, 3n/2) is built from (n-2, 3n/2-3).  There the walk follows McKay's
canonical construction path (see construction): its keep function,
construction.canonical_certificate, certifies a bridging only when its new
edge is its canonical reduction, so each class is kept once and the
others cost no certificate.

A source's bridgings depend on that source alone, so where two CPUs are
free the walk splits a column's sources between two processes: a forked
worker bridges the odd-indexed ones while this process bridges the
even-indexed ones, and the worker's shelves join these as sets of
certificates.  A group is its sorted certificates, whichever process found
them, so the outputs do not depend on the split.
"""

from __future__ import annotations

import marshal
import os
import sys
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterable

from .canonical import automorphisms, certificate
from .construction import canonical_certificate, has_smaller_d1_reduction
from .graphs import (
    DAWES_SHAPES,
    GRAPH6_MAX_N,
    Edge,
    Graph,
    _bits,
    bridge,
    complete_bipartite_3,
    edge,
    mask_path,
    mask_reach,
    prism,
    wheel,
)
from .io_validate import CheckpointError, GeneratedSet, decode_graph6, high_edges_essential

Progress = Callable[[str], None]
# The shelves still filling, keyed by (n, m): the certificates that reached each.
Shelves = dict[tuple[int, int], set[str]]
Permutation = tuple[int, ...]
Shape = tuple[int, int]  # a set's (vertex count, edge count)
Site = tuple[tuple[int, ...], tuple[Edge, ...]]  # a set's vertices and edges
# A mode's keep function: the certificate a bridging, with its site, adds
# to its shelf, or None.
Keep = Callable[[Graph, Site], str | None]


class ShelfEntry:
    """A source that bridgings reads: a minimally 3-connected graph and
    generators of its automorphism group, each a permutation p that maps
    vertex v to p[v].  Entries are equal when both parts are."""

    def __init__(self, graph: Graph, gens: list[Permutation]):
        self.graph = graph
        self.gens = gens

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShelfEntry):
            return NotImplemented
        return (self.graph, self.gens) == (other.graph, other.gens)

    def __repr__(self) -> str:
        return f"ShelfEntry(graph={self.graph!r}, gens={self.gens!r})"


def _orbit_representatives(g: Graph, shape: Shape, gens: list[Permutation]) -> list[Site]:
    """The first site of each orbit of g's sets of the shape under the
    group that gens generate.  The sites are taken in order, and one not
    yet seen is the first of its orbit, which the generators then walk
    from it until its sites are all seen.

    A site of shape (nv, ne) is ne edges and nv vertices, in combinations
    of the edges outer and of the vertices inner, where no vertex is
    adjacent to another member vertex or is an end of a member edge; it
    may be adjacent to an end of a member edge.  Vertex v has id v and
    edge i of g.edges() id n + i, and a site's key is the bitmask of its
    members' ids.  The sites of an orbit bridge to isomorphic graphs.
    """
    nv, ne = shape
    n, es = g.n, g.edges()
    eid = {e: n + i for i, e in enumerate(es)}
    bit = [1 << i for i in range(n + len(es))].__getitem__
    # A vertex's clashes: the bits of its neighbours and of the edges it ends.
    clash = [g.neighbor_mask(v) for v in g.vertices]
    for (a, b), i in eid.items():
        clash[a] |= bit(i)
        clash[b] |= bit(i)
    vsets = []
    for vs in combinations(g.vertices, nv):
        vkey, clashes = sum(map(bit, vs)), reduce(or_, map(clash.__getitem__, vs), 0)
        if not clashes & vkey:
            vsets.append((vs, vkey, clashes))
    # Each generator's image of every id, and that image's bit.
    images = []
    for p in gens:
        q = (*p, *(eid[edge(p[a], p[b])] for a, b in es))
        images.append((q.__getitem__, [1 << i for i in q].__getitem__))
    reps, seen = [], set()
    for edges, ids in zip(combinations(es, ne), combinations(range(n, n + len(es)), ne)):
        ekey = sum(map(bit, ids))
        for vs, vkey, clashes in vsets:
            if clashes & ekey or vkey | ekey in seen:
                continue
            reps.append((vs, edges))
            seen.add(vkey | ekey)
            orbit = [vs + ids]
            for site in orbit:
                for image, image_bit in images:
                    key = sum(map(image_bit, site))
                    if key not in seen:
                        seen.add(key)
                        orbit.append(tuple(map(image, site)))
    return reps


def _fan(rows: list[int], x: int, w1: int) -> int:
    """The fan from x's neighbour w1 in the graph of rows less x: shortest
    paths from w1 to x's other neighbours w2 and w3, taken in turn so that
    they are internally disjoint, given as the vertices that w1 reaches off
    both paths, w1 included; only w1 when a path is not found."""
    w2, w3 = _bits(rows[x] ^ 1 << w1)
    q2 = mask_path(rows, w1, w2, 1 << x | 1 << w3)
    q3 = mask_path(rows, w1, w3, 1 << x | 1 << w2 | q2) if q2 >= 0 else -1
    return mask_reach(rows, w1, ~(q2 | q3 | 1 << x | 1 << w2 | 1 << w3)) if q3 >= 0 else 1 << w1


@lru_cache(maxsize=1)
def _fans(g: Graph) -> list[int]:
    """For each vertex x of g, its neighbours of degree 4 or more and, when
    x has degree 3, the fans from them (_fan).  Cached for the last source,
    whose shapes are bridged in turn."""
    rows = [g.neighbor_mask(v) for v in g.vertices]
    high = sum(1 << v for v, row in enumerate(rows) if row.bit_count() > 3)
    fans = [row & high for row in rows]
    for x, row in enumerate(rows):
        if row.bit_count() == 3:
            for w1 in _bits(row & high):
                fans[x] |= _fan(rows, x, w1)
    return fans


def _fan_rejects(fans: list[int], site: Site) -> bool:
    """Whether the fans of a D1 or D3 site's vertex x prove its bridging
    not minimally 3-connected: they hold an end of its edge or another of
    its vertices."""
    vertices, edges = site
    targets = sum(1 << v for v in vertices) | sum(1 << v for e in edges for v in e)
    return any(fans[x] & targets for x in vertices)


def bridgings(src: ShelfEntry, shape: Shape) -> list[tuple[Graph, Site]]:
    """Bridge the sets of the shape in src's graph, one per orbit, and keep
    each minimally 3-connected bridging, with its site: Dawes' D1 for
    (1, 1), D2 for (0, 2) (adjacent edges included) and D3 for (3, 0).

    Only pairwise non-adjacent vertices are tried, and that loses nothing:
    the source is 3-connected, so for an edge xy, x and y lie on a cycle
    of the graph minus xy, which xy chords; the edge xy is then itself a
    chording xy-path, so the set is not 3-compatible and its bridging is
    not minimally 3-connected.

    Nor are the D1 and D3 sites that _fan_rejects, as their bridgings are
    not minimal either.  In the bridging C of such a site, a vertex x of
    the site gains an edge to the new vertex c, and an edge xw whose ends
    have degree 4 or more is not essential, because three internally
    disjoint paths join x and w in C - xw:
    - a D1 site whose edge ends at w, a neighbour of x of degree 4 or
      more: x, c, w is a path, so a 2-cut between x and w in C - xw is c
      and a vertex s, and then s and w would cut x off from w's other
      neighbours in the source, which is 3-connected;
    - a site holding x of degree 3, with a neighbour w = w1 of degree 4 or
      more, and an end of the D1 edge or another vertex of the D3 site
      that w1 reaches off its fan, the paths from w1 to x's other
      neighbours w2 and w3 (_fan): x, w2 and x, w3 go on along the fan,
      and x, c goes on to that vertex and within the reach to w1.
    The others, and every D2 site, get the child test.
    """
    g = src.graph
    sites = _orbit_representatives(g, shape, src.gens)
    if shape != (0, 2):
        fans = _fans(g)
        sites = [site for site in sites if not _fan_rejects(fans, site)]
    children = ((bridge(g, *site), site) for site in sites)
    return [(child, site) for child, site in children if high_edges_essential(child)]


def source(g: Graph) -> ShelfEntry:
    """g as an entry that bridgings reads, with the generators of its
    automorphism group."""
    return ShelfEntry(g, automorphisms(g))


def _min3_keep(child: Graph, site: Site) -> str | None:
    """The min3 keep function: child's certificate, or None when
    construction.has_smaller_d1_reduction finds a D1 reduction of child
    proven valid and less than the one its site undoes, D1 at the site's
    vertex and child's last vertex, or D2 or D3."""
    vertices, _ = site
    own = vertices[0] if len(vertices) == 1 else None
    return None if has_smaller_d1_reduction(child, own) else certificate(child)


def _cpus() -> int:
    """The processes a column's sources are split between: two where this
    process can fork and may run on two CPUs or more, else one."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        return 2
    return 1


def _push(
    shelves: Shelves,
    n: int,
    column: dict[int, list[str]],
    reach: range,
    keep: Keep,
) -> None:
    """Bridge the graphs of column n, the certificates of its shelves by
    edge count, into the shelves of reach they feed: each is decoded into a
    source once, and bridgings bridges its sets of shapes (1, 1), (3, 0)
    and (0, 2) from (n, m) into (n+1, m+2), (n+1, m+3) and (n+2, m+3).
    keep(child, site) gives the certificate that each bridging adds to its
    shelf, or None for one the shelf does not take.

    Where _cpus() gives two and there are two sources or more, this
    process bridges the even-indexed sources, and one forked worker
    bridges the odd-indexed ones into shelves of its own, which it sends
    back by marshal over a pipe, one shelf at a time, each joining shelves
    as a set of certificates as it is read.  A worker that raises or exits
    otherwise than with 0 makes this raise RuntimeError; a raise here, an
    interrupt included, kills the worker; and the worker is always reaped.
    """
    feeds = [(shape, dn, dm) for shape, (dn, dm) in DAWES_SHAPES.items() if n + dn in reach]
    if not feeds:
        return
    sources = [(m, cert) for m, certs in column.items() for cert in certs]

    def push(into: Shelves, sources: list[tuple[int, str]]) -> None:
        for m, cert in sources:
            src = source(decode_graph6(cert))
            for shape, dn, dm in feeds:
                kept = (keep(g, site) for g, site in bridgings(src, shape))
                into.setdefault((n + dn, m + dm), set()).update(c for c in kept if c is not None)

    if len(sources) < 2 or _cpus() < 2:
        push(shelves, sources)
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            own: Shelves = {}
            push(own, sources[1::2])
            with open(write_end, "wb") as pipe:
                for item in own.items():
                    marshal.dump(item, pipe)
            status = 0
        except BaseException:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            push(shelves, sources[::2])
            # The shelves end at EOF, cut short only by a failed worker,
            # whose exit code then fails the run.
            while True:
                try:
                    key, certs = marshal.load(pipe)
                except EOFError:
                    break
                shelves.setdefault(key, set()).update(certs)
    except BaseException:
        import signal  # only here, to keep it out of every run's start-up

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise RuntimeError(f"the worker bridging the odd-indexed sources exited with {code}")


def _shelf_edges(n: int) -> range:
    return range((3 * n + 1) // 2, 3 * n - 8)


def _last_column(resume: GeneratedSet) -> int:
    """The last column of a resumed set, which must be of the min3 mode and
    hold exactly the non-empty (n, m) groups of a run up to it: every
    shelf's, each of which is non-empty up to n = 12 at least,
    K_{3,n-3}'s (n, 3n - 9) among them, and the wheel's."""
    if resume.mode != "min3":
        raise CheckpointError(f"resumed set is of the {resume.mode} mode, not min3")
    last = max((n for n, _ in resume.groups), default=0)
    if last < 6:
        stray = f", only groups at (n, m) = {sorted(resume.groups)}" if resume.groups else ""
        raise CheckpointError(f"resumed set holds no column from 6 on{stray}")
    expected = {(n, m) for n in range(6, last + 1) for m in (*_shelf_edges(n), 2 * (n - 1))}
    if set(resume.groups) != expected:
        wrong = sorted(set(resume.groups) ^ expected)
        raise CheckpointError(f"resumed groups differ from those of columns 6 to {last} at (n, m) = {wrong}")
    if empty := sorted(key for key, bucket in resume.groups.items() if not bucket):
        raise CheckpointError(f"resumed groups hold no graph at (n, m) = {empty}")
    return last


def check_max_n(mode: str, max_n: int) -> None:
    """Raise ValueError unless the generator of the mode, "min3" or
    "cubic", can run up to max_n vertices: from 6, or an even count from 4,
    to GRAPH6_MAX_N, the most vertices a certificate holds."""
    if mode == "min3":
        if not 6 <= max_n <= GRAPH6_MAX_N:
            raise ValueError(f"max_n must be from 6 to {GRAPH6_MAX_N}, the most vertices a certificate holds")
    elif max_n % 2 or not 4 <= max_n <= GRAPH6_MAX_N:
        raise ValueError(f"max_n must be even, from 4 to {GRAPH6_MAX_N}, the most vertices a certificate holds")


def _walk(
    start: GeneratedSet,
    reach: range,
    shelf_edges: Callable[[int], Iterable[int]],
    direct: dict[tuple[int, int], list[str]],
    progress: Progress | None,
    keep: Keep,
) -> GeneratedSet:
    """start's groups up to the end of reach, and those of reach's columns.

    The walk goes column by column from reach.start - 2 in reach's step,
    its shelves filled first by start's certificates from that column on,
    less the direct graphs, which no shelf holds.  The walk reaches shelf
    (n, m), m in shelf_edges(n), after (n-1, m-2), (n-1, m-3) and
    (n-2, m-3), so every certificate for it has arrived, and its sorted
    certificates are complete.  On a column of reach, each shelf, joined
    by its direct graphs, is a group, reported to progress before _push
    bridges the column's graphs into the shelves of reach they feed, each
    child kept by keep.
    """
    groups = {key: sorted(bucket) for key, bucket in start.groups.items() if key[0] < reach.stop}
    shelves: Shelves = {
        key: set(bucket).difference(direct.get(key, ()))
        for key, bucket in groups.items()
        if key[0] >= reach.start - 2 and reach
    }
    for n in range(reach.start - 2, reach.stop, reach.step):
        column = {m: sorted(shelves.pop((n, m), ())) for m in shelf_edges(n)}
        if n in reach:
            for m, certs in column.items():
                bucket = sorted(certs + direct.get((n, m), []))
                if bucket:
                    groups[(n, m)] = bucket
                if progress is not None:
                    shelf = f"min3 shelf n={n} m={m}" if start.mode == "min3" else f"cubic n={n}"
                    progress(f"{shelf}: {len(bucket)} graphs")
        _push(shelves, n, column, reach, keep)
    return GeneratedSet(start.mode, dict(sorted(groups.items())))


def generate_min3(max_n: int, *, progress: Progress | None = None, resume: GeneratedSet | None = None) -> GeneratedSet:
    """All minimally 3-connected graphs with 6 to max_n vertices.

    Starts from the groups up to a last column, checked by _last_column:
    resume, the result of an earlier run such as io_validate.read_outputs
    gives, or else column 6, the prism, K_{3,3} and W_5.  When max_n is past
    last, _walk builds the columns after last from the certificates of the
    last two, less the wheels and K_{3,t}, column n's shelves holding m
    from ceil(3n/2) to 3n-9, each bridging kept by _min3_keep; only
    the graphs that feed a column after last are decoded.  Each group after
    last is joined by the wheel or K_{3,t} of its (n, m).  A resumed set
    of another mode, or one that lacks a group of its columns, holds
    another or holds an empty one, raises CheckpointError, and a max_n
    past GRAPH6_MAX_N raises ValueError before any work.
    """
    check_max_n("min3", max_n)
    # The graphs no shelf holds, built directly.
    direct: dict[tuple[int, int], list[str]] = {}
    for n in range(6, max_n + 1):
        direct.setdefault((n, 2 * (n - 1)), []).append(certificate(wheel(n - 1)))
        direct.setdefault((n, 3 * n - 9), []).append(certificate(complete_bipartite_3(n - 3)))
    if resume is None:
        resume = GeneratedSet("min3", {(6, 9): [certificate(prism()), *direct[(6, 9)]], (6, 10): direct[(6, 10)]})
    return _walk(resume, range(_last_column(resume) + 1, max_n + 1), _shelf_edges, direct, progress, _min3_keep)


def generate_cubic(max_n: int, *, progress: Progress | None = None) -> GeneratedSet:
    """All 3-connected cubic graphs with 4 to max_n (even) vertices.

    _walk from K4 over the even columns from 6 to max_n, each the one
    shelf (n, 3n/2).  Only sets of two edges, shape (0, 2), add two
    vertices, so they alone feed a column and are bridged, and a bridging
    is kept only when construction.canonical_certificate finds its new
    edge to be its canonical reduction.  An odd max_n, or one past
    GRAPH6_MAX_N, raises ValueError before any work.
    """
    check_max_n("cubic", max_n)
    k4 = GeneratedSet("cubic", {(4, 6): [certificate(wheel(3))]})
    return _walk(
        k4, range(6, max_n + 1, 2), lambda n: (3 * n // 2,), {}, progress, lambda child, _: canonical_certificate(child)
    )
