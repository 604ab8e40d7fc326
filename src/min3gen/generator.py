"""Exhaustive isomorph-free generation of minimally 3-connected graphs.

The pipeline grows graphs from the triangular prism along an infinite
bookshelf of (edge count m, vertex count n) shelves.  Each shelf holds up
to five classes:

- B entries are a minimally 3-connected graph plus one edge (procedure e1);
- C entries add a second edge sharing an endpoint with the first (e2);
- A1 entries split an endpoint of a B entry's added edge (c1);
- A2 entries split the remaining endpoint of an A1 entry's edge (c2);
- A3 entries split the common endpoint of a C entry's two edges (c3).

The splits contract the pending edge additions away, so A1, A2, A3 entries
are minimally 3-connected whenever the chording path gates pass; B and C
are scaffolding for the next shelf.  Certificates deduplicate within a
shelf across all classes.  Each operation hands every candidate the rule
that maps its source's cycle set to the candidate's, the edge addition and
vertex split rules, so nothing is re-enumerated; only an admitted
candidate's rule runs.  A B or C entry shares its A-class ancestor's set,
which is all its chording path gate reads.  The shelves of the final
column (n = max_n) feed no gate and get no cycle sets at all.  Shelf files
store no cycle sets: derive_cycles enumerates a loaded A entry's set, and
a loaded B or C entry shares the set of its ancestor, which it finds among
the ancestors of shelf (m-1, n).

Wheels and K_{3,t} are the minimally 3-connected graphs that no prism-rooted
chain reaches; they are constructed directly and merged into the output.
The cubic mode is separate and far simpler: starting from K4, it bridges
one pair of distinct edges from each orbit of its source's automorphism
group on edge pairs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .canonical import automorphisms, certificate
from .compat import _compile, no_chording_paths
from .cycles import CycleSet, apply_add_edge, apply_split_vertex, enumerate_cycles_bruteforce
from .graphs import Edge, Graph, add_edge, bridge_edges, complete_bipartite_3, edge, prism, split_vertex, wheel
from .io_validate import ShelfFileError, decode_graph6, encode_graph6
from .records import A_TAGS, RESULT_TAGS, SCAFFOLD_TAGS, GeneratedSet, Provenance, Shelf, ShelfEntry

# The seed's 14 cycles, under prism()'s fixed labelling.
PRISM_CYCLES: CycleSet = enumerate_cycles_bruteforce(prism())

Progress = Callable[[str], None]

# A candidate is its graph, its provenance, and its rule: the source's
# cycle set mapped to the candidate's, bound when the candidate is built
# and called only when it is admitted to a shelf that is not final.
Rule = Callable[[], CycleSet]
Candidate = tuple[Graph, Provenance, Rule]


def _shared(cycles: CycleSet) -> CycleSet:
    """The rule of an edge addition: the child keeps its source's set."""
    return cycles


def e1(entry: ShelfEntry) -> list[Candidate]:
    """All single edge additions: one class B candidate per non-edge."""
    g = entry.graph
    rule = partial(_shared, entry.cycles)
    return [
        (add_edge(g, u, v), Provenance("B", ((u, v),)), rule)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]


def e2(entry: ShelfEntry) -> list[Candidate]:
    """Second edge additions sharing an endpoint with the first (class C)."""
    first = entry.provenance.added_edges[0]
    g = entry.graph
    rule = partial(_shared, entry.cycles)
    return [
        (add_edge(g, p, w), Provenance("C", (first, edge(p, w))), rule)
        for w in g.vertices
        for p in first
        if w != p and not g.has_edge(w, p)
    ]


def c1(entry: ShelfEntry) -> list[Candidate]:
    """Split either endpoint of a B entry's added edge (class A1).

    With added edge bc and a neighbour a of b, the gate requires no
    chording ca- or bc-path once bc and ba are deleted; then b is split so
    the new vertex x takes c and a, and the A1 entry keeps cx, what the
    split made of bc.  The symmetric half splits c instead.  The entry's
    cycles are its A-class ancestor's, the graph minus bc, and those
    avoiding ba are exactly the cycles of the edge-deleted graph.  The
    rule passes c as apply_split_vertex's w, the vertex whose edge to b it
    deletes first, so the set of the graph minus bc serves as it is.
    """
    (b, c) = entry.provenance.added_edges[0]
    g = entry.graph
    out = []
    for split_v, kept in ((b, c), (c, b)):
        for moved in g.neighbors(split_v):
            if moved != kept and no_chording_paths(
                entry.cycles,
                g,
                ((kept, moved), (split_v, kept)),
                (edge(split_v, kept), edge(split_v, moved)),
            ):
                g2, x = split_vertex(g, split_v, kept, moved)
                rule = partial(apply_split_vertex, entry.cycles, split_v, moved, kept, x)
                out.append((g2, Provenance("A1", ((kept, x),)), rule))
    return out


def c2(entry: ShelfEntry) -> list[Candidate]:
    """Split the surviving endpoint of an A1 entry's edge (class A2).

    An A1 entry holds the edge by, y its last vertex, and N(y) is b plus
    the two ends c, d of an edge cd of its A-class ancestor A: the entry is
    A with cd bridged to b.  Splitting b so that a second new vertex takes y
    and a neighbour a bridges the edges ab and cd of A, and a = d, an
    adjacent pair, is included.  The gate is their 3-compatibility in A:
    no chording ac-, bc-, ad- or bd-path once ab and y's edges are
    deleted, a pair with equal ends being vacuous.  Gate pairs and ban are
    symmetric in c and d, so their order does not matter.
    """
    ((b, y),) = entry.provenance.added_edges
    g = entry.graph
    c, d = (w for w in g.neighbors(y) if w != b)
    banned = (edge(b, y), edge(c, y), edge(d, y))
    out = []
    for a in g.neighbors(b):
        if a == y:
            continue
        pairs = [(p, q) for p, q in ((c, a), (c, b), (d, b), (d, a)) if p != q]
        if no_chording_paths(entry.cycles, g, pairs, (edge(a, b),) + banned):
            g2, x = split_vertex(g, b, y, a)
            out.append((g2, Provenance("A2"), partial(apply_split_vertex, entry.cycles, b, a, y, x)))
    return out


def c3(entry: ShelfEntry) -> list[Candidate]:
    """Split the shared endpoint of a C entry's two added edges (class A3).

    With added edges xy and xz, the gate deletes both, which leaves the
    A-class ancestor whose cycles the entry carries.  The split gives the
    new vertex y and z.  Its rule adds xy to the ancestor's set, which
    gives the set of the graph minus xz, all the split rule needs.
    """
    (e1_edge, e2_edge) = entry.provenance.added_edges
    (x_v,) = set(e1_edge) & set(e2_edge)
    y_v = e1_edge[0] if e1_edge[1] == x_v else e1_edge[1]
    z_v = e2_edge[0] if e2_edge[1] == x_v else e2_edge[1]
    g = entry.graph
    if not no_chording_paths(
        entry.cycles,
        g,
        ((x_v, y_v), (x_v, z_v), (y_v, z_v)),
        (edge(x_v, y_v), edge(x_v, z_v)),
    ):
        return []
    g2, w = split_vertex(g, x_v, z_v, y_v)
    return [(g2, Provenance("A3"), partial(_add_then_split, entry.cycles, x_v, y_v, z_v, w))]


def _add_then_split(cycles: CycleSet, x: int, y: int, z: int, w: int) -> CycleSet:
    """The rule of c3: add xy back, then split x so that w takes y and z."""
    return apply_split_vertex(apply_add_edge(cycles, x, y), x, y, z, w)


def derive_cycles(shelf: Shelf, state: dict[tuple[int, int], Shelf]) -> None:
    """Give the entries of a loaded shelf the cycle sets run_shelf stores.

    An A entry's set is enumerated from its graph.  A B or C entry's
    ancestor (ShelfEntry.ancestor), as a labelled graph, is also the
    ancestor of an entry of shelf (m-1, n) in state, whose set object it
    shares, as in a fresh run.  A B or C entry with no such ancestor is no entry a run makes,
    so it raises ShelfFileError.
    """
    prev = state.get((shelf.m - 1, shelf.n))
    ancestors = {ent.ancestor(): ent.cycles for ent in prev.entries()} if prev else {}
    for tag, bucket in shelf.classes.items():
        for i, ent in enumerate(bucket):
            if tag not in SCAFFOLD_TAGS:
                cycles = enumerate_cycles_bruteforce(ent.graph)
            elif (cycles := ancestors.get(ent.ancestor())) is None:
                raise ShelfFileError(
                    f"shelf (m, n) = {(shelf.m, shelf.n)}: {tag} entry {encode_graph6(ent.graph)} minus"
                    f" its pending edges is no entry's ancestor on shelf {(shelf.m - 1, shelf.n)}"
                )
            bucket[i] = ShelfEntry(ent.graph, cycles, ent.provenance)


def run_shelf(state: dict[tuple[int, int], Shelf], m: int, n: int, final: bool = False) -> Shelf:
    """Produce the shelf at (m, n) from the row m-1 shelves in state.

    Classes are filled in the order C, B, A1, A2, A3.  One certificate
    store spans the whole shelf, so a graph reached twice, by whatever
    chain, is kept once; only an admitted candidate's rule runs, giving its
    cycle set.  Certificates also order each class, and only those of the
    A1, A2, A3 entries are kept, as Shelf.certs.  Sources the state does
    not hold contribute nothing.  A final shelf is one whose sets nothing
    reads: its entries get cycles=None, which fails loudly where an empty
    set would pass a gate.
    """
    classes: dict[str, dict[str, ShelfEntry]] = {}
    seen: set[str] = set()

    def admit(op: Callable[[ShelfEntry], list[Candidate]], key: tuple[int, int], *tags: str) -> None:
        sources = state[key].entries(*tags) if key in state else []
        for src in sources:
            for g, prov, rule in op(src):
                cert = certificate(g)
                if cert not in seen:
                    seen.add(cert)
                    cycles = None if final else rule()
                    classes.setdefault(prov.class_tag, {})[cert] = ShelfEntry(g, cycles, prov)

    same_col = (m - 1, n)
    diag = (m - 1, n - 1)
    admit(e2, same_col, "B")
    admit(e1, same_col, *A_TAGS)
    admit(c1, diag, "B")
    admit(c2, diag, "A1")
    admit(c3, diag, "C")
    entries = {tag: [bucket[c] for c in sorted(bucket)] for tag, bucket in classes.items()}
    return Shelf(m, n, entries, sorted(c for tag in RESULT_TAGS for c in classes.get(tag, ())))


def _merge_exceptional(groups: dict, n: int, m: int, g: Graph) -> None:
    cert = certificate(g)
    bucket = groups.setdefault((n, m), [])
    if cert in bucket:
        raise RuntimeError(f"exceptional graph at n={n} m={m} collided with pipeline output")
    bucket.append(cert)


def generate_min3(
    max_n: int,
    *,
    progress: Progress | None = None,
    shelf_loader: Callable[[int, int], Shelf | None] | None = None,
    shelf_saver: Callable[[Shelf], None] | None = None,
) -> GeneratedSet:
    """All minimally 3-connected graphs with 6 to max_n vertices.

    Walks the bookshelf row by row (m outer, n from max(6, (m+9)//3) to
    min(max_n, m-4)), since shelf (m, n) reads only row m-1: shelves
    (m-1, n) and (m-1, n-1).  Only the previous row is kept, and of it only
    the shelves something reads.  Results arrive as (n, m) groups of sorted
    certificates: the shelf classes A1, A2, A3, the prism seed, and the two
    direct families, wheels and K_{3,t}.

    The final column (n = max_n) feeds no gate, so its shelves are final,
    with no cycle sets.  shelf_loader, when given, may supply a previously
    saved shelf instead of recomputing it; a loaded shelf that is not final
    gets its cycle sets from derive_cycles.  shelf_saver receives every
    shelf, loaded or computed, B and C classes included; only for a saver
    is a final shelf kept in the row, as the B and C source of the next.
    Otherwise it is dropped once its certificates are taken.
    """
    if max_n < 6:
        raise ValueError("max_n must be at least 6")
    seed_graph = prism()
    seed_entry = ShelfEntry(seed_graph, PRISM_CYCLES, Provenance("A0"))
    state: dict[tuple[int, int], Shelf] = {(9, 6): Shelf(9, 6, {"A0": [seed_entry]})}
    groups: dict[tuple[int, int], list[str]] = {(6, 9): [certificate(seed_graph)]}
    for m in range(10, 3 * max_n - 6):
        row: dict[tuple[int, int], Shelf] = {}
        for n in range(max(6, (m + 9) // 3), min(max_n, m - 4) + 1):
            final = n == max_n
            shelf = shelf_loader(m, n) if shelf_loader is not None else None
            if shelf is None:
                shelf = run_shelf(state, m, n, final)
            elif not final:
                derive_cycles(shelf, state)
            if shelf_saver is not None:
                shelf_saver(shelf)
            if not final or shelf_saver is not None:
                row[(m, n)] = shelf
            if shelf.certs:
                groups.setdefault((n, m), []).extend(shelf.certs)
            if progress is not None:
                tags = SCAFFOLD_TAGS + RESULT_TAGS
                sizes = " ".join(f"{tag}={len(shelf.classes.get(tag, ()))}" for tag in tags)
                progress(f"min3 shelf n={n} m={m}: {sizes}")
        state = row
    # No gate runs after the last row: keep no dead cycle sets alive.
    _compile.cache_clear()
    for n in range(6, max_n + 1):
        _merge_exceptional(groups, n, 2 * (n - 1), wheel(n - 1))
        _merge_exceptional(groups, n, 3 * n - 9, complete_bipartite_3(n - 3))
    for bucket in groups.values():
        bucket.sort()
    return GeneratedSet("min3", dict(sorted(groups.items())))


def _edge_pair_representatives(g: Graph) -> list[tuple[Edge, Edge]]:
    """The least unordered pair of distinct edges of each orbit of Aut(g).

    Pairs are ordered by their positions in g.edges(), and an orbit is
    found by union-find over pair indices under automorphisms(g)'s
    generators.  Two pairs of one orbit bridge to isomorphic graphs.
    """
    es = g.edges()
    m = len(es)
    index = {e: i for i, e in enumerate(es)}
    # Pair (i, j), i < j, is i * m + j; a root is the least pair of its set.
    parent = list(range(m * m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for p in automorphisms(g):
        image = [index[edge(p[u], p[v])] for u, v in es]
        for i in range(m):
            for j in range(i + 1, m):
                a, b = image[i], image[j]
                ra, rb = find(i * m + j), find(min(a, b) * m + max(a, b))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return [(es[i], es[j]) for i in range(m) for j in range(i + 1, m) if find(i * m + j) == i * m + j]


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
            for e, f in _edge_pair_representatives(g):
                grown.add(certificate(bridge_edges(g, e, f)[0]))
        level = groups[(n, 3 * n // 2)] = sorted(grown)
        if progress is not None:
            progress(f"cubic n={n}: {len(level)} graphs")
    return GeneratedSet("cubic", groups)
