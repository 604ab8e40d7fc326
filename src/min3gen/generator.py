"""Exhaustive isomorph-free generation of minimally 3-connected graphs.

The generator grows graphs from the triangular prism along a bookshelf of
(edge count m, vertex count n) shelves with Dawes' three bridgings (Dawes,
JCTB 40, 1986).  Shelf (m, n) holds the minimally 3-connected graphs of
that size the bridgings reach, built from the shelves of the two previous
columns:

- d1 bridges a vertex and an edge of each graph on shelf (m-2, n-1);
- d3 joins a new vertex to three vertices of each graph on shelf (m-3, n-1);
- d2 bridges two edges of each graph on shelf (m-3, n-2).

A bridging is minimally 3-connected exactly when its vertex, edge or
triple set is 3-compatible in the source, which the chording path gate
decides on the source's cycle set.  Only one site per orbit of the
source's automorphism group is tried, since the sites of an orbit give
isomorphic graphs, and certificates deduplicate a shelf.  An entry that a
later shelf reads gets its group's generators once, when it is admitted.
Each operation hands every candidate the rule that maps its source's
cycle set to the candidate's, composed of the edge addition and
subdivision rules, so nothing is re-enumerated; only an admitted
candidate's rule runs.  The shelves of the final column (n = max_n) feed
no gate and get no cycle sets or generators at all.  A resumed run starts from the output groups of an earlier
one: the graphs of its last two columns, less the wheels and K_{3,t},
are the shelves the next column reads, with their cycle sets enumerated.

Wheels and K_{3,t} are the minimally 3-connected graphs that no prism-rooted
chain reaches; they are constructed directly and merged into the output.
The cubic mode is separate and far simpler: starting from K4, it bridges
one pair of distinct edges from each orbit of its source's automorphism
group on edge pairs.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Hashable, TypeVar

from .canonical import automorphisms, certificate
from .compat import _compile, no_chording_paths
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
from .records import GeneratedSet, Shelf, ShelfEntry

# The seed's 14 cycles, under prism()'s fixed labelling.
PRISM_CYCLES: CycleSet = enumerate_cycles_bruteforce(prism())

Progress = Callable[[str], None]

# A candidate is its graph and its rule: the source's cycle set mapped to
# the candidate's, bound when the candidate is built and called only when
# it is admitted to a shelf that is not final.
Rule = Callable[[], CycleSet]
Candidate = tuple[Graph, Rule]
Permutation = tuple[int, ...]
Site = TypeVar("Site", bound=Hashable)


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


def d1(src: ShelfEntry) -> list[Candidate]:
    """Bridge a vertex x and an edge ab with x not on it (Dawes' D1).

    ab is subdivided by the new vertex y, and xy is added.  The gate is the
    3-compatibility of {x, ab}: no chording xa- or xb-path once ab is
    deleted.
    """
    g, cycles = src.graph, src.cycles
    sites = [(x, e) for e in g.edges() for x in g.vertices if x not in e]
    out = []
    for x, (a, b) in _orbit_representatives(sites, src.gens, _vertex_edge_image):
        if no_chording_paths(cycles, g, ((x, a), (x, b)), ((a, b),)):
            g2, y = bridge_vertex_edge(g, x, a, b)
            out.append((g2, partial(_replay, cycles, (a, b, y), (x, y))))
    return out


def d2(src: ShelfEntry) -> list[Candidate]:
    """Bridge two distinct edges ab and cd, adjacent pairs included (Dawes' D2).

    Both edges are subdivided, by the new vertices p and q, and pq is
    added.  The gate is the 3-compatibility of {ab, cd}: no chording ac-,
    bc-, ad- or bd-path once both are deleted, a pair with equal ends being
    vacuous.
    """
    g, cycles = src.graph, src.cycles
    sites = list(combinations(g.edges(), 2))
    out = []
    for (a, b), (c, d) in _orbit_representatives(sites, src.gens, _edge_pair_image):
        pairs = [(u, v) for u, v in ((a, c), (b, c), (a, d), (b, d)) if u != v]
        if no_chording_paths(cycles, g, pairs, ((a, b), (c, d))):
            g2, p, q = bridge_edges(g, (a, b), (c, d))
            out.append((g2, partial(_replay, cycles, (a, b, p), (c, d, q), (p, q))))
    return out


def d3(src: ShelfEntry) -> list[Candidate]:
    """Join a new vertex w to three vertices x, y and z (Dawes' D3).

    The gate is the 3-compatibility of {x, y, z}: no chording xy-, xz- or
    yz-path.  Only pairwise non-adjacent triples are tried, and that loses
    nothing.  The source is 3-connected, so for an edge xy the graph minus
    xy is 2-connected, and x and y lie on one of its cycles.  xy chords
    that cycle and meets it only in x and y, so the edge xy is itself a
    chording xy-path, and the gate rejects every triple with an adjacent
    pair.  The rule adds xy, subdivides it by w, then adds wz.
    """
    g, cycles = src.graph, src.cycles
    sites = [t for t in combinations(g.vertices, 3) if not any(g.has_edge(*e) for e in combinations(t, 2))]
    out = []
    for x, y, z in _orbit_representatives(sites, src.gens, _triple_image):
        if no_chording_paths(cycles, g, ((x, y), (x, z), (y, z))):
            g2, w = add_degree3_vertex(g, x, y, z)
            out.append((g2, partial(_replay, cycles, (x, y), (x, y, w), (w, z))))
    return out


def source(g: Graph, cycles: CycleSet | None = None) -> ShelfEntry:
    """g as an entry that d1, d2 and d3 read: with its cycle set, enumerated
    unless given, and the generators of its automorphism group."""
    if cycles is None:
        cycles = enumerate_cycles_bruteforce(g)
    return ShelfEntry(g, cycles, automorphisms(g))


def run_shelf(state: dict[tuple[int, int], Shelf], m: int, n: int, final: bool = False) -> Shelf:
    """Produce the shelf at (m, n) from the shelves of columns n-1 and n-2 in state.

    d1 reads shelf (m-2, n-1), d3 shelf (m-3, n-1) and d2 shelf (m-3, n-2);
    sources the state does not hold contribute nothing.  One certificate
    store spans the shelf, so a graph reached twice, by whatever site or
    operation, is kept once, and only an admitted candidate's rule runs,
    giving its cycle set.  Certificates also order the entries.  A final
    shelf is one that no bridging reads: its entries get cycles=None,
    which fails loudly where an empty set would pass a gate, and
    gens=None.
    """
    found: dict[str, ShelfEntry] = {}
    for op, key in ((d1, (m - 2, n - 1)), (d3, (m - 3, n - 1)), (d2, (m - 3, n - 2))):
        for src in state[key].entries if key in state else ():
            for g, rule in op(src):
                cert = certificate(g)
                if cert not in found:
                    found[cert] = ShelfEntry(g, None, None) if final else source(g, rule())
    certs = sorted(found)
    return Shelf(m, n, [found[c] for c in certs], certs)


def _shelf_edges(n: int) -> range:
    return range((3 * n + 1) // 2, 3 * n - 8)


def _last_column(resume: GeneratedSet) -> int:
    """The last column of a resumed set, which must hold exactly the (n, m)
    groups of a run up to it: every shelf's, each of which is non-empty up
    to n = 12 at least, and the wheel's and K_{3,n-3}'s."""
    last = max((n for n, _ in resume.groups), default=0)
    expected = {(n, m) for n in range(6, last + 1) for m in (*_shelf_edges(n), 2 * (n - 1), 3 * n - 9)}
    if last < 6 or set(resume.groups) != expected:
        wrong = sorted(set(resume.groups) ^ expected)
        raise CheckpointError(f"resumed groups differ from those of columns 6 to {last} at (n, m) = {wrong}")
    return last


def generate_min3(max_n: int, *, progress: Progress | None = None, resume: GeneratedSet | None = None) -> GeneratedSet:
    """All minimally 3-connected graphs with 6 to max_n vertices.

    Walks the bookshelf column by column (n outer, m from ceil(3n/2) to
    3n-9), since shelf (m, n) reads only columns n-1 and n-2, and keeps
    only those two.  Results arrive as (n, m) groups of sorted
    certificates: the shelves, the prism seed, and the two direct
    families, wheels and K_{3,t}.  The final column (n = max_n) feeds no
    gate, so its shelves are final, with no cycle sets, and none is kept.

    resume, when given, is the result of an earlier run, such as
    io_validate.read_outputs gives, and the walk starts after its last
    column.  Its last two columns, less the wheels and K_{3,t}, are the
    shelves the next column reads, their graphs decoded and their cycle
    sets enumerated; a resumed run that already reaches max_n builds none.
    A resumed set that lacks a group of its columns or holds another
    raises CheckpointError.
    """
    if max_n < 6:
        raise ValueError("max_n must be at least 6")
    # The graphs no shelf holds, built directly.
    direct: dict[tuple[int, int], list[str]] = {}
    for n in range(6, max_n + 1):
        direct.setdefault((n, 2 * (n - 1)), []).append(certificate(wheel(n - 1)))
        direct.setdefault((n, 3 * n - 9), []).append(certificate(complete_bipartite_3(n - 3)))
    if resume is None:
        seed = Shelf(9, 6, [source(prism(), PRISM_CYCLES)], [certificate(prism())])
        state: dict[tuple[int, int], Shelf] = {(9, 6): seed}
        groups: dict[tuple[int, int], list[str]] = {(6, 9): list(seed.certs)}
        last = 6
    else:
        last = _last_column(resume)
        groups = {key: list(bucket) for key, bucket in resume.groups.items() if key[0] <= max_n}
        state = {}
        read = (last - 1, last) if last < max_n else ()
        for (n, m), bucket in groups.items():
            if n in read:
                certs = sorted(c for c in bucket if c not in direct.get((n, m), ()))
                state[(m, n)] = Shelf(m, n, [source(decode_graph6(c)) for c in certs], certs)
    for n in range(last + 1, max_n + 1):
        final = n == max_n
        for m in _shelf_edges(n):
            shelf = run_shelf(state, m, n, final)
            if not final:
                state[(m, n)] = shelf
            if shelf.certs:
                groups[(n, m)] = list(shelf.certs)
            if progress is not None:
                progress(f"min3 shelf n={n} m={m}: {len(shelf.certs)} graphs")
        # Column n + 1 reads only columns n and n - 1.
        state = {key: shelf for key, shelf in state.items() if key[1] >= n - 1}
    # No gate runs after the last column: keep no dead cycle sets alive.
    _compile.cache_clear()
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
