"""Exhaustive isomorph-free generation of minimally 3-connected graphs.

The generator grows graphs from the triangular prism along a bookshelf of
(vertex count n, edge count m) shelves with Dawes' three bridgings (Dawes,
JCTB 40, 1986).  Shelf (n, m) holds the minimally 3-connected graphs of
that size the bridgings reach from the shelves of the two previous
columns:

- d1 bridges a vertex and an edge of each graph on shelf (n-1, m-2);
- d3 joins a new vertex to three vertices of each graph on shelf (n-1, m-3);
- d2 bridges two edges of each graph on shelf (n-2, m-3).

Turned around, each graph feeds exactly three later shelves, so the walk
pushes: once a shelf is complete, each of its graphs becomes a source
once and is bridged into the shelves it feeds.  A bridging is minimally
3-connected exactly when its vertex, edge or triple set is 3-compatible in
the source, which the chording path gate decides on the source's cycle
set, compiled once per source.  Only one site per orbit of the source's
automorphism group is tried, since the sites of an orbit give isomorphic
graphs, and certificates deduplicate a shelf.  Each operation returns its
bridgings, each with its replay steps: the edge additions and
subdivisions whose rules map the source's cycle set to the bridging's, so
nothing is re-enumerated.  A candidate whose column feeds another holds
its steps, bound to the source's cycle set, as its rule, which runs when
the candidate becomes a source.  A candidate of the final column
(n = max_n) holds no rule, and so keeps no source's cycle set alive.

Wheels and K_{3,t} are the minimally 3-connected graphs that no prism-rooted
chain reaches; they are constructed directly and merged into the output.
The cubic mode is separate and far simpler: starting from K4, it bridges
one pair of distinct edges from each orbit of its source's automorphism
group on edge pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Hashable, TypeVar

from .canonical import automorphisms, certificate
from .compat import CompiledCycles, compat_query, compile_cycles, no_chording_paths
from .cycles import CycleSet, apply_add_edge, apply_subdivide_edge, enumerate_cycles_bruteforce
from .graphs import (
    Edge,
    Graph,
    add_degree3_vertex,
    bridge_edges,
    bridge_vertex_edge,
    complete_bipartite_3,
    edge,
    prism,
    wheel,
)
from .io_validate import CheckpointError, decode_graph6
from .records import GeneratedSet

# The seed's 14 cycles, under prism()'s fixed labelling.
PRISM_CYCLES: CycleSet = enumerate_cycles_bruteforce(prism())

Progress = Callable[[str], None]

# The edge rules that map a source's cycle set to its bridging's, as
# _replay applies them.
Steps = tuple[tuple[int, ...], ...]
# A candidate is its graph and its rule: the source's cycle set mapped to
# the candidate's, bound when the candidate is built and called only when
# the candidate becomes a source.  A candidate that never will, one of the
# final column, has no rule.
Rule = Callable[[], CycleSet]
Candidate = tuple[Graph, Rule | None]
# The shelves still filling, keyed by (n, m): each keeps the first
# candidate of every certificate that reaches it.
Shelves = dict[tuple[int, int], dict[str, Candidate]]
Permutation = tuple[int, ...]
Site = TypeVar("Site", bound=Hashable)


@dataclass(frozen=True)
class ShelfEntry:
    """A source that d1, d2 and d3 bridge: a minimally 3-connected graph,
    its cycle set, generators of its automorphism group, each a permutation
    p that maps vertex v to p[v], and its cycle set compiled for the gate."""

    graph: Graph
    cycles: CycleSet
    gens: list[Permutation]
    table: CompiledCycles


def _orbit_representatives(
    sites: list[Site], gens: list[Permutation], image: Callable[[Permutation, Site], Site]
) -> list[Site]:
    """The first site of each orbit of the group that gens generate.

    image(p, s) is the site the permutation p maps s to, in the form sites
    holds it.  An orbit is found by union-find over site indices under the
    generators.  Two sites of one orbit bridge to isomorphic graphs.
    """
    index = {s: i for i, s in enumerate(sites)}
    # A root is the least index of its set.
    parent = list(range(len(sites)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for p in gens:
        for i, s in enumerate(sites):
            j = index[image(p, s)]
            if j != i:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return [s for i, s in enumerate(sites) if find(i) == i]


def _vertex_edge_image(p: Permutation, site: tuple[int, Edge]) -> tuple[int, Edge]:
    x, (a, b) = site
    return p[x], edge(p[a], p[b])


def _edge_pair_image(p: Permutation, site: tuple[Edge, Edge]) -> tuple[Edge, Edge]:
    (a, b), (c, d) = site
    e, f = edge(p[a], p[b]), edge(p[c], p[d])
    return (e, f) if e < f else (f, e)


def _triple_image(p: Permutation, site: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(p[v] for v in site))


def _replay(cycles: CycleSet, *steps: tuple[int, ...]) -> CycleSet:
    """Apply the edge rules in turn: a step (a, b) adds the edge ab, and a
    step (a, b, c) subdivides ab by the new vertex c."""
    for step in steps:
        cycles = apply_add_edge(cycles, *step) if len(step) == 2 else apply_subdivide_edge(cycles, *step)
    return cycles


def d1(src: ShelfEntry) -> list[tuple[Graph, Steps]]:
    """Bridge a vertex x and an edge ab with x not on it (Dawes' D1).

    ab is subdivided by the new vertex y, and xy is added.  The gate is the
    3-compatibility of {x, ab}.
    """
    g = src.graph
    sites = [(x, e) for e in g.edges() for x in g.vertices if x not in e]
    out = []
    for x, (a, b) in _orbit_representatives(sites, src.gens, _vertex_edge_image):
        if no_chording_paths(src.table, g, *compat_query((x,), ((a, b),))):
            g2, y = bridge_vertex_edge(g, x, a, b)
            out.append((g2, ((a, b, y), (x, y))))
    return out


def d2(src: ShelfEntry) -> list[tuple[Graph, Steps]]:
    """Bridge two distinct edges ab and cd, adjacent pairs included (Dawes' D2).

    Both edges are subdivided, by the new vertices p and q, and pq is
    added.  The gate is the 3-compatibility of {ab, cd}.
    """
    g = src.graph
    sites = list(combinations(g.edges(), 2))
    out = []
    for site in _orbit_representatives(sites, src.gens, _edge_pair_image):
        if no_chording_paths(src.table, g, *compat_query((), site)):
            (a, b), (c, d) = site
            g2, p, q = bridge_edges(g, (a, b), (c, d))
            out.append((g2, ((a, b, p), (c, d, q), (p, q))))
    return out


def d3(src: ShelfEntry) -> list[tuple[Graph, Steps]]:
    """Join a new vertex w to three vertices x, y and z (Dawes' D3).

    The gate is the 3-compatibility of {x, y, z}: no chording xy-, xz- or
    yz-path.  Only pairwise non-adjacent triples are tried, and that loses
    nothing.  The source is 3-connected, so for an edge xy the graph minus
    xy is 2-connected, and x and y lie on one of its cycles.  xy chords
    that cycle and meets it only in x and y, so the edge xy is itself a
    chording xy-path, and the gate rejects every triple with an adjacent
    pair.  The rule adds xy, subdivides it by w, then adds wz.
    """
    g = src.graph
    sites = [t for t in combinations(g.vertices, 3) if not any(g.has_edge(*e) for e in combinations(t, 2))]
    out = []
    for site in _orbit_representatives(sites, src.gens, _triple_image):
        if no_chording_paths(src.table, g, *compat_query(site, ())):
            x, y, z = site
            g2, w = add_degree3_vertex(g, x, y, z)
            out.append((g2, ((x, y), (x, y, w), (w, z))))
    return out


def source(g: Graph, cycles: CycleSet | None = None) -> ShelfEntry:
    """g as an entry that d1, d2 and d3 read: with its cycle set, enumerated
    unless given and compiled once for their gates, and the generators of
    its automorphism group."""
    if cycles is None:
        cycles = enumerate_cycles_bruteforce(g)
    return ShelfEntry(g, cycles, automorphisms(g), compile_cycles(cycles, g.n))


def run_shelf(shelves: Shelves, n: int, m: int, reach: range) -> list[str]:
    """Complete shelf (n, m): return its sorted certificates, and push each
    of its graphs that feeds a column of reach into the shelves it feeds.

    The walk reaches (n, m) after (n-1, m-2), (n-1, m-3) and (n-2, m-3),
    so every candidate for it has arrived.  A graph it pushes becomes a
    source, once: its rule gives its cycle set, and d1, d3 and d2 bridge it
    into (n+1, m+2), (n+1, m+3) and (n+2, m+3), those in reach, where only
    an unseen certificate's candidate is kept.  Its rule replays the
    bridging's steps on the source's cycle set, and is bound only for a
    shelf whose column feeds one in reach.
    """
    found = shelves.pop((n, m), {})
    certs = sorted(found)
    feeds = [
        (op, key) for op, key in ((d1, (n + 1, m + 2)), (d3, (n + 1, m + 3)), (d2, (n + 2, m + 3))) if key[0] in reach
    ]
    if feeds:
        for cert in certs:
            g, rule = found[cert]
            src = source(g, rule())
            for op, key in feeds:
                shelf = shelves.setdefault(key, {})
                bind = key[0] + 1 in reach
                for g2, steps in op(src):
                    cert2 = certificate(g2)
                    if cert2 not in shelf:
                        shelf[cert2] = (g2, partial(_replay, src.cycles, *steps) if bind else None)
    return certs


def _shelf_edges(n: int) -> range:
    return range((3 * n + 1) // 2, 3 * n - 8)


def _seed(cert: str) -> Candidate:
    """A graph of a start set, whose rule enumerates its cycle set."""
    g = decode_graph6(cert)
    return g, partial(enumerate_cycles_bruteforce, g)


def _last_column(resume: GeneratedSet) -> int:
    """The last column of a resumed set, which must hold exactly the (n, m)
    groups of a run up to it: every shelf's, each of which is non-empty up
    to n = 12 at least, and the wheel's and K_{3,n-3}'s."""
    last = max((n for n, _ in resume.groups), default=0)
    if last < 6:
        stray = f", only groups at (n, m) = {sorted(resume.groups)}" if resume.groups else ""
        raise CheckpointError(f"resumed set holds no column from 6 on{stray}")
    expected = {(n, m) for n in range(6, last + 1) for m in (*_shelf_edges(n), 2 * (n - 1), 3 * n - 9)}
    if set(resume.groups) != expected:
        wrong = sorted(set(resume.groups) ^ expected)
        raise CheckpointError(f"resumed groups differ from those of columns 6 to {last} at (n, m) = {wrong}")
    return last


def generate_min3(max_n: int, *, progress: Progress | None = None, resume: GeneratedSet | None = None) -> GeneratedSet:
    """All minimally 3-connected graphs with 6 to max_n vertices.

    Starts from the groups up to a last column: the prism in column 6, or
    resume, the result of an earlier run such as io_validate.read_outputs
    gives.  When max_n is past last, the graphs of the last two columns,
    less the wheels and K_{3,t}, are decoded as the first candidates, each
    with a rule that enumerates its cycle set, and run_shelf walks the
    shelves column by column (n outer, m from ceil(3n/2) to 3n-9) from
    column last - 1 to max_n, making sources of the graphs that feed the
    columns after last; otherwise nothing is decoded.  Results are
    (n, m) groups of sorted certificates: the shelves, and the two direct
    families, wheels and K_{3,t}.  A resumed set that lacks a group of its
    columns or holds another raises CheckpointError.
    """
    if max_n < 6:
        raise ValueError("max_n must be at least 6")
    # The graphs no shelf holds, built directly.
    direct: dict[tuple[int, int], list[str]] = {}
    for n in range(6, max_n + 1):
        direct.setdefault((n, 2 * (n - 1)), []).append(certificate(wheel(n - 1)))
        direct.setdefault((n, 3 * n - 9), []).append(certificate(complete_bipartite_3(n - 3)))
    if resume is None:
        last, groups = 6, {(6, 9): [certificate(prism())]}
    else:
        last = _last_column(resume)
        groups = {key: list(bucket) for key, bucket in resume.groups.items() if key[0] <= max_n}
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
                if certs:
                    groups[(n, m)] = certs
                if progress is not None:
                    progress(f"min3 shelf n={n} m={m}: {len(certs)} graphs")
    for key, certs in direct.items():
        bucket = groups.setdefault(key, [])
        bucket += [c for c in certs if c not in bucket]
    for bucket in groups.values():
        bucket.sort()
    return GeneratedSet("min3", dict(sorted(groups.items())))


def generate_cubic(max_n: int, *, progress: Progress | None = None) -> GeneratedSet:
    """All 3-connected cubic graphs with 4 to max_n (even) vertices.

    Starting from K4, unordered pairs of distinct edges (adjacent pairs
    included) are bridged: both edges are subdivided and the two new
    vertices joined.  Of each source only one pair per orbit of its
    automorphism group is bridged, since the pairs of an orbit give
    isomorphic graphs.  A level is kept as its sorted certificates only,
    which are decoded when the next level is grown from them.  Cycle sets
    are not needed here, so none are carried.
    """
    if max_n < 4:
        raise ValueError("max_n must be at least 4")
    if max_n % 2:
        raise ValueError("cubic graphs need an even vertex count")
    level = [certificate(wheel(3))]
    groups = {(4, 6): level}
    for n in range(6, max_n + 1, 2):
        grown: set[str] = set()
        for g in map(decode_graph6, level):
            pairs = list(combinations(g.edges(), 2))
            for e, f in _orbit_representatives(pairs, automorphisms(g), _edge_pair_image):
                grown.add(certificate(bridge_edges(g, e, f)[0]))
        level = groups[(n, 3 * n // 2)] = sorted(grown)
        if progress is not None:
            progress(f"cubic n={n}: {len(level)} graphs")
    return GeneratedSet("cubic", groups)
