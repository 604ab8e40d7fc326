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
pushes: once a shelf is complete, each of its graphs becomes a source
once and is bridged into the shelves it feeds.  A bridging is minimally
3-connected exactly when its set is 3-compatible in the source, which the
chording path gate decides on the source's cycle set, compiled once per
source and filtered once per ban, the set's edges.  Only one site per
orbit of the source's automorphism group is tried, since the sites of an
orbit give isomorphic graphs, and certificates deduplicate a shelf.
bridgings(src, shape) returns the bridgings of one shape, each with its
site, the set's vertices and edges.  A candidate whose column feeds
another holds as its rule cycles.apply_bridge, bound to the source's
cycle set and the site, which maps that set to the bridging's when the
candidate becomes a source, so nothing is re-enumerated.  A shelf of the
final column (n = max_n) stores None for each certificate, no graph and
no rule, and so keeps no source's cycle set alive.

Wheels and K_{3,t}, the minimally 3-connected graphs no prism-rooted chain
reaches, are built directly; each joins its group as its shelf completes.
The cubic mode is separate and far simpler: starting from K4, it bridges
one pair of distinct edges from each orbit of its source's automorphism
group on edge pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, groupby
from operator import itemgetter, or_
from typing import Callable

from .canonical import automorphisms, certificate
from .compat import CompiledCycles, chording_free, compat_query, compile_cycles, live_chords
from .cycles import CycleSet, apply_bridge, enumerate_cycles_bruteforce
from .graphs import DAWES_SHAPES, GRAPH6_MAX_N, Edge, Graph, bridge, complete_bipartite_3, edge, prism, wheel
from .io_validate import CheckpointError, GeneratedSet, decode_graph6

# prism()'s 14 cycles for tests and demos; _seed seeds a run's canonical prism.
PRISM_CYCLES: CycleSet = enumerate_cycles_bruteforce(prism())

Progress = Callable[[str], None]

# A candidate is its graph and its rule: the source's cycle set mapped to
# the candidate's, bound when the candidate is built and called only when
# the candidate becomes a source.
Rule = Callable[[], CycleSet]
Candidate = tuple[Graph, Rule]
# The shelves still filling, keyed by (n, m): each keeps the first
# candidate of every certificate that reaches it, or None in the final
# column, whose graphs never become sources.
Shelves = dict[tuple[int, int], dict[str, Candidate | None]]
Permutation = tuple[int, ...]
Shape = tuple[int, int]  # a set's (vertex count, edge count)
Site = tuple[tuple[int, ...], tuple[Edge, ...]]  # a set's vertices and edges


@dataclass(frozen=True)
class ShelfEntry:
    """A source that bridgings reads: a minimally 3-connected graph, its
    cycle set, generators of its automorphism group, each a permutation p
    that maps vertex v to p[v], and its cycle set compiled for the gate."""

    graph: Graph
    cycles: CycleSet
    gens: list[Permutation]
    table: CompiledCycles


def _orbit_representatives(g: Graph, shape: Shape, gens: list[Permutation]) -> list[Site]:
    """The first site of each orbit of g's sets of the shape under the
    group that gens generate, found by union-find over site indices.

    A site of shape (nv, ne) is ne edges and nv vertices, in combinations
    of the edges outer and of the vertices inner, where no vertex is
    adjacent to a member vertex or an end of a member edge.  Vertex v has
    id v and edge i of g.edges() id n + i, and a site's key is the bitmask
    of its members' ids, so its image's key under p is the sum of the bits
    that p maps those ids to.  The sites of an orbit bridge to isomorphic
    graphs.
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
    # The sites, each site's member ids, and each site's index by its key.
    sites, members, index = [], [], {}
    for edges, ids in zip(combinations(es, ne), combinations(range(n, n + len(es)), ne)):
        ekey = sum(map(bit, ids))
        for vs, vkey, clashes in vsets:
            if not clashes & ekey:
                index[vkey | ekey] = len(sites)
                sites.append((vs, edges))
                members.append(vs + ids)
    # A root is the least index of its set.
    parent = list(range(len(sites)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for p in gens:
        image = ([1 << v for v in p] + [1 << eid[edge(p[a], p[b])] for a, b in es]).__getitem__
        for i, site in enumerate(members):
            j = index[sum(map(image, site))]
            if j != i:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return [s for i, s in enumerate(sites) if find(i) == i]


def bridgings(src: ShelfEntry, shape: Shape) -> list[tuple[Graph, Site]]:
    """Bridge the 3-compatible sets of the shape in src's graph, one per
    orbit, each with its site: Dawes' D1 for (1, 1), D2 for (0, 2)
    (adjacent edges included) and D3 for (3, 0).

    Only pairwise non-adjacent vertices are tried, and that loses nothing:
    the source is 3-connected, so for an edge xy, x and y lie on a cycle
    of the graph minus xy, which xy chords; the edge xy is then itself a
    chording xy-path, and the gate rejects every set with an adjacent pair.

    The sites come edges outer, so the sites of one ban are consecutive
    and share one live-chord table, built per group: one per edge for
    (1, 1), one per source for (3, 0) and one per site for (0, 2).  The
    table and the pairs come from src itself, so no gate re-checks them.
    """
    g = src.graph
    out = []
    for edges, sites in groupby(_orbit_representatives(g, shape, src.gens), itemgetter(1)):
        live = live_chords(src.table, g, edges)
        for site in sites:
            if chording_free(live, compat_query(*site)):
                out.append((bridge(g, *site), site))
    return out


def source(g: Graph, cycles: CycleSet | None = None) -> ShelfEntry:
    """g as an entry that bridgings reads: with its cycle set, enumerated
    unless given and compiled once for its gates, and the generators of
    its automorphism group."""
    if cycles is None:
        cycles = enumerate_cycles_bruteforce(g)
    return ShelfEntry(g, cycles, automorphisms(g), compile_cycles(cycles, g.n))


def run_shelf(shelves: Shelves, n: int, m: int, reach: range) -> list[str]:
    """Complete shelf (n, m): return its sorted certificates, and push each
    of its graphs that feeds a column of reach into the shelves it feeds.

    The walk reaches (n, m) after (n-1, m-2), (n-1, m-3) and (n-2, m-3),
    so every candidate for it has arrived.  A graph it pushes becomes a
    source, once: its rule gives its cycle set, and bridgings bridges its
    sets of shapes (1, 1), (3, 0) and (0, 2) into (n+1, m+2), (n+1, m+3)
    and (n+2, m+3), those in reach, where only an unseen certificate's
    candidate is kept, with apply_bridge, bound to the source's cycle set
    and the bridging's site, as its rule.  A shelf whose column feeds none
    in reach keeps None for the certificate, neither graph nor rule.
    """
    found = shelves.pop((n, m), {})
    certs = sorted(found)
    feeds = [(shape, (n + dn, m + dm)) for shape, (dn, dm) in DAWES_SHAPES.items() if n + dn in reach]
    if feeds:
        for cert in certs:
            g, rule = found[cert]
            src = source(g, rule())
            for shape, key in feeds:
                shelf = shelves.setdefault(key, {})
                bind = key[0] + 1 in reach
                for g2, site in bridgings(src, shape):
                    cert2 = certificate(g2)
                    if cert2 not in shelf:
                        shelf[cert2] = (g2, partial(apply_bridge, src.cycles, g.n, *site)) if bind else None
    return certs


def _shelf_edges(n: int) -> range:
    return range((3 * n + 1) // 2, 3 * n - 8)


def _seed(cert: str) -> Candidate:
    """A graph of a start set, whose rule enumerates its cycle set."""
    g = decode_graph6(cert)
    return g, partial(enumerate_cycles_bruteforce, g)


def _last_column(resume: GeneratedSet) -> int:
    """The last column of a resumed set, which must hold exactly the non-empty
    (n, m) groups of a run up to it: every shelf's, each of which is non-empty
    up to n = 12 at least, K_{3,n-3}'s (n, 3n - 9) among them, and the wheel's."""
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


def generate_min3(max_n: int, *, progress: Progress | None = None, resume: GeneratedSet | None = None) -> GeneratedSet:
    """All minimally 3-connected graphs with 6 to max_n vertices.

    Starts from the groups up to a last column, checked by _last_column:
    resume, the result of an earlier run such as io_validate.read_outputs
    gives, or else column 6, the prism, K_{3,3} and W_5.  When max_n is past
    last, the graphs of the last two columns, less the wheels and K_{3,t},
    are decoded as the first candidates, each with a rule that enumerates
    its cycle set, and run_shelf walks the shelves column by column (n
    outer, m from ceil(3n/2) to 3n-9) from column last - 1 to max_n, making
    sources of the graphs that feed the columns after last; otherwise
    nothing is decoded.  Each shelf after last, joined by the wheel or
    K_{3,t} of its (n, m), is a group of sorted certificates, complete and
    reported to progress when run_shelf returns.  A resumed set that lacks
    a group of its columns, holds another or holds an empty one raises
    CheckpointError, and a max_n past GRAPH6_MAX_N raises ValueError before
    any work.
    """
    check_max_n("min3", max_n)
    # The graphs no shelf holds, built directly.
    direct: dict[tuple[int, int], list[str]] = {}
    for n in range(6, max_n + 1):
        direct.setdefault((n, 2 * (n - 1)), []).append(certificate(wheel(n - 1)))
        direct.setdefault((n, 3 * n - 9), []).append(certificate(complete_bipartite_3(n - 3)))
    if resume is None:
        resume = GeneratedSet("min3", {(6, 9): [certificate(prism()), *direct[(6, 9)]], (6, 10): direct[(6, 10)]})
    last = _last_column(resume)
    groups = {key: sorted(bucket) for key, bucket in resume.groups.items() if key[0] <= max_n}
    reach = range(last + 1, max_n + 1)
    shelves: Shelves = {
        (n, m): {c: _seed(c) for c in bucket if c not in direct.get((n, m), ())}
        for (n, m), bucket in groups.items()
        if n >= last - 1 and reach
    }
    for n in range(last - 1, max_n + 1):
        for m in _shelf_edges(n):
            certs = run_shelf(shelves, n, m, reach)
            if n in reach:
                bucket = sorted(certs + direct.get((n, m), []))
                if bucket:
                    groups[(n, m)] = bucket
                if progress is not None:
                    progress(f"min3 shelf n={n} m={m}: {len(bucket)} graphs")
    return GeneratedSet("min3", dict(sorted(groups.items())))


def generate_cubic(max_n: int, *, progress: Progress | None = None) -> GeneratedSet:
    """All 3-connected cubic graphs with 4 to max_n (even) vertices.

    Starting from K4, unordered pairs of distinct edges (adjacent pairs
    included) are bridged, as sets of shape (0, 2): both edges are
    subdivided and the two new vertices joined.  Of each source only one
    pair per orbit of its automorphism group is bridged, since the pairs of
    an orbit give isomorphic graphs.  A level is kept as its sorted
    certificates only, which are decoded when the next level is grown from
    them.  Cycle sets are not needed here, so none are carried.  An odd
    max_n, or one past GRAPH6_MAX_N, raises ValueError before any work.
    """
    check_max_n("cubic", max_n)
    level = [certificate(wheel(3))]
    groups = {(4, 6): level}
    for n in range(6, max_n + 1, 2):
        grown: set[str] = set()
        for g in map(decode_graph6, level):
            for site in _orbit_representatives(g, (0, 2), automorphisms(g)):
                grown.add(certificate(bridge(g, *site)))
        level = groups[(n, 3 * n // 2)] = sorted(grown)
        if progress is not None:
            progress(f"cubic n={n}: {len(level)} graphs")
    return GeneratedSet("cubic", groups)
