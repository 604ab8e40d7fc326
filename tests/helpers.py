"""Shared test utilities: random graphs, Hypothesis strategies for
2-connected and 3-connected graphs, definition-level oracles, the shelves
of a run, and sources materialised from the bridgings of an operation.

The oracles here re-derive connectivity and chording paths straight from
their definitions with plain set arithmetic, sharing no bitmask machinery
with the package, so that agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import NamedTuple

from hypothesis import strategies as st

from min3gen import (
    Graph,
    add_edge,
    apply_bridge,
    bridge,
    bridgings,
    certificate,
    chords,
    edge,
    prism,
    wheel,
)
from min3gen.canonical import automorphisms
from min3gen.cycles import PRISM_CYCLES, CycleSet, enumerate_cycles_bruteforce
from min3gen.generator import _shelf_edges
from min3gen.graphs import DAWES_SHAPES


class Derived(NamedTuple):
    """A source as bridgings reads it, with the cycle set that the paper's
    rules derive for it."""

    graph: Graph
    gens: list
    cycles: CycleSet


def derived(g: Graph, cycles: CycleSet | None = None) -> Derived:
    """g as a source, with its cycle set, enumerated unless given."""
    return Derived(g, automorphisms(g), enumerate_cycles_bruteforce(g) if cycles is None else cycles)


def materialize(shape, src):
    """The bridgings of the shape that bridgings keeps of src, each as a
    source with the cycle set that apply_bridge gives on its site; src's
    own set is enumerated unless it carries one."""
    cycles = getattr(src, "cycles", None)
    if cycles is None:
        cycles = enumerate_cycles_bruteforce(src.graph)
    return [derived(g, apply_bridge(cycles, src.graph.n, *site)) for g, site in bridgings(src, shape)]


def collect_shelves(max_n: int) -> dict[tuple[int, int], list[Derived]]:
    """Every shelf with n <= max_n, keyed by (n, m), the prism seed's
    included, walked as generate_min3 walks them: each as its sources in
    certificate order.  A shelf keeps the first bridging that reaches each
    of its classes, and derives its cycle set with apply_bridge on its site
    from its source's, so that the paper's propagation runs along the
    walk's sites; the prism's set is the enumerated PRISM_CYCLES."""
    pending = {(6, 9): {certificate(prism()): (prism(), lambda: PRISM_CYCLES)}}
    shelves = {}
    for n in range(6, max_n + 1):
        for m in _shelf_edges(n):
            shelves[(n, m)] = [derived(g, rule()) for _, (g, rule) in sorted(pending.pop((n, m), {}).items())]
            for src in shelves[(n, m)] if n < max_n else ():
                for shape, (dn, dm) in DAWES_SHAPES.items():
                    if n + dn <= max_n:
                        shelf = pending.setdefault((n + dn, m + dm), {})
                        for g, site in bridgings(src, shape):
                            shelf.setdefault(certificate(g), (g, partial(apply_bridge, src.cycles, src.graph.n, *site)))
    return shelves


def candidate_sets(g: Graph):
    """Every vertex/edge, edge/edge and vertex triple set of g, each as its
    (vertices, edges) with a thunk that bridges it (D1, D2 or D3) in g."""
    sets = [((x,), (e,)) for x in g.vertices for e in g.edges() if x not in e]
    sets += [((), pair) for pair in itertools.combinations(g.edges(), 2)]
    sets += [(triple, ()) for triple in itertools.combinations(g.vertices, 3)]
    for s in sets:
        yield s, lambda s=s: bridge(g, *s)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Erdos-Renyi graph on vertex set 0..n-1."""
    es = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, es)


@st.composite
def two_connected_graphs(draw, max_n: int = 8) -> Graph:
    """A random 2-connected graph on 4..max_n vertices: an open ear
    decomposition, extra edges, then a random relabelling."""
    n = draw(st.integers(4, max_n))
    k = draw(st.integers(3, n))
    es = {edge(i, (i + 1) % k) for i in range(k)}
    while k < n:
        inner = draw(st.integers(1, n - k))
        x, y = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        path = [x, *range(k, k + inner), y]
        es.update(edge(u, v) for u, v in zip(path, path[1:]))
        k += inner
    es.update(draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=n)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in es])


@st.composite
def three_connected_graphs(draw, max_n: int = 10) -> Graph:
    """A random 3-connected graph on 4..max_n vertices: a wheel, grown by
    D1, D2 and D3 bridgings, which keep 3-connectivity, and a few added
    edges, then a random relabelling."""
    g = wheel(draw(st.integers(3, 5)))
    while g.n < max_n and draw(st.booleans()):
        op = draw(st.sampled_from(("D1", "D2", "D3") if g.n + 2 <= max_n else ("D1", "D3")))
        if op == "D1":
            a, b = draw(st.sampled_from(g.edges()))
            x = draw(st.sampled_from([v for v in g.vertices if v not in (a, b)]))
            g = bridge(g, (x,), ((a, b),))
        elif op == "D2":
            g = bridge(g, (), draw(st.lists(st.sampled_from(g.edges()), min_size=2, max_size=2, unique=True)))
        else:
            g = bridge(g, draw(st.lists(st.sampled_from(g.vertices), min_size=3, max_size=3, unique=True)))
    missing = [e for e in itertools.combinations(g.vertices, 2) if not g.has_edge(*e)]
    if missing:
        for u, v in draw(st.sets(st.sampled_from(missing), max_size=3)):
            g = add_edge(g, u, v)
    perm = draw(st.permutations(range(g.n)))
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def permuted_copy(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def cube_graph() -> Graph:
    es = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                es.append((v, w))
    return Graph(8, es)


def _components(adj: dict[int, set[int]], vertices: set[int]) -> int:
    unseen = set(vertices)
    count = 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            v = stack.pop()
            for w in adj[v] & unseen:
                unseen.discard(w)
                stack.append(w)
    return count


def _is_connected_without(g: Graph, removed: set[int]) -> bool:
    vertices = set(g.vertices) - removed
    if not vertices:
        return True
    adj = {v: set(g.neighbors(v)) - removed for v in vertices}
    return _components(adj, vertices) == 1


def def_3_connected(g: Graph) -> bool:
    """Literal definition: n >= 4 and no vertex cut of size <= 2."""
    if g.n < 4:
        return False
    for k in (0, 1, 2):
        for cut in itertools.combinations(g.vertices, k):
            if not _is_connected_without(g, set(cut)):
                return False
    return True


def def_minimally_3_connected(g: Graph) -> bool:
    if not def_3_connected(g):
        return False
    for u, v in g.edges():
        kept = [e for e in g.edges() if e != (u, v)]
        if def_3_connected(Graph(g.n, kept)):
            return False
    return True


def def_2_connected(g: Graph) -> bool:
    if g.n < 3:
        return False
    for k in (0, 1):
        for cut in itertools.combinations(g.vertices, k):
            if not _is_connected_without(g, set(cut)):
                return False
    return True


def chording_path_oracle(g: Graph, cycles, a: int, b: int, banned=()) -> bool:
    """Exhaustive scan: some simple a..b path contains a chord uv of some
    surviving cycle and meets that cycle in exactly {u, v}.

    Banned edges are removed from the graph first; cycles that used them
    are no longer cycles and drop out of consideration.
    """
    banned_set = {edge(u, v) for u, v in banned}
    adj = {
        v: [w for w in g.neighbors(v) if edge(v, w) not in banned_set]
        for v in g.vertices
    }
    live = []
    for cyc in cycles:
        k = len(cyc)
        if all(edge(cyc[i], cyc[(i + 1) % k]) not in banned_set for i in range(k)):
            live.append(cyc)

    def path_hits(path: list[int]) -> bool:
        pv = set(path)
        path_edges = {edge(path[i], path[i + 1]) for i in range(len(path) - 1)}
        for cyc in live:
            cv = set(cyc)
            for u, w in itertools.combinations(cyc, 2):
                if edge(u, w) in path_edges and chords(cyc, u, w) and pv & cv == {u, w}:
                    return True
        return False

    found = False

    def walk(path: list[int], seen: set[int]) -> None:
        nonlocal found
        if found:
            return
        v = path[-1]
        if v == b:
            if len(path) >= 2 and path_hits(path):
                found = True
            return
        for w in adj[v]:
            if w not in seen:
                walk(path + [w], seen | {w})
                if found:
                    return

    walk([a], {a})
    return found
