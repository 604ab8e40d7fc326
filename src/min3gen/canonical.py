"""Isomorphism certificates by individualization and refinement.

certificate(g) returns a string equal for two graphs exactly when they
are isomorphic: the graph6 line of g's canonical labelling.  It refines
an ordered degree partition to equitability.  If that leaves a tied cell,
as it always does for a regular graph, each tied cell is split by a
vertex invariant (the sizes of the BFS layers around the vertex) and
refined again.  The search then branches on the smallest non-singleton
cell, compares the leaf labelings' triangle_bits, and packs the least.

Refinement counts the members of each cell against one splitter cell at a
time, taken from a queue of cells that changed, so a search node that
individualizes vertex v refines against {v} alone rather than recounting
every cell against every cell (McKay and Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014).

A partition is a vertex order plus the end of each cell, indexed by the
cell's first position, so a cell keeps its position when it splits.
Every step decides by positions and neighbour counts only, never by
vertex labels, which is what makes the least leaf canonical.

Cells whose members are pairwise twins (identical open neighbourhoods, or
identical closed neighbourhoods) are branched only once: transposing two
twins is an automorphism, so every branch of such a cell leads to the same
minimum.  This keeps twin-heavy families like complete bipartite graphs
from exploding factorially.

automorphisms(g) runs the same search and records what it meets on the
way: at a leaf whose triangle_bits equal the least so far, the map from
the least leaf's labelling to this one (best_order[k] -> order[k]), and at
a collapsed twin cell, the transposition of its first member with each
other member.  The search visits every branch but twin ones, so these
permutations generate the whole automorphism group.  certificate records
nothing.

are_isomorphic_bruteforce is the independent oracle: a direct backtracking
search for an edge-preserving bijection, sharing nothing with the
certificate machinery.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph, graph6_line, triangle_bits


def _split(order: list[int], ends: list[int], start: int, groups: dict) -> list[int]:
    """Replace the cell at start by the groups' members, in increasing key
    order, and return the start of each part."""
    starts = []
    pos = start
    for key in sorted(groups):
        end = pos + len(groups[key])
        order[pos:end] = groups[key]
        ends[pos] = end
        starts.append(pos)
        pos = end
    return starts


def _refine(
    masks: tuple[int, ...], order: list[int], ends: list[int], queue: list[int], cells: int
) -> int:
    """Split cells by neighbour counts into splitter cells until stable.

    The partition (order, ends) of the given number of cells is refined in
    place, and its new cell count is returned.  queue holds the starts of
    the splitter cells, taken first in first out; each cell's members are
    counted against one splitter at a time, and a cell with more than one
    count splits into parts in increasing count order.  The parts join the
    queue: all of them if the split cell was queued, otherwise all but the
    first largest, since counts against the whole cell already agree
    within every cell.
    """
    n = len(order)
    queued = set(queue)
    queue = deque(queue)
    while queue and cells < n:
        s = queue.popleft()
        queued.discard(s)
        smask = 0
        for v in order[s : ends[s]]:
            smask |= 1 << v
        c = 0
        while c < n:
            e = ends[c]
            if e - c > 1:
                groups: dict[int, list[int]] = {}
                for v in order[c:e]:
                    groups.setdefault((masks[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    starts = _split(order, ends, c, groups)
                    cells += len(starts) - 1
                    if c in queued:
                        fresh = starts[1:]
                    else:
                        big = 0
                        for p in starts:
                            if ends[p] - p > big:
                                big, keep = ends[p] - p, p
                        fresh = [p for p in starts if p != keep]
                    queue.extend(fresh)
                    queued.update(fresh)
            c = e
    return cells


def _layer_sizes(masks: tuple[int, ...], start: int) -> tuple[int, ...]:
    """Sizes of the BFS layers around the vertex set start, a bitmask: the
    number of vertices at distance 1 from it, 2, and so on (for one vertex,
    its degree first)."""
    sizes = []
    seen = frontier = start
    while True:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            return tuple(sizes)
        seen |= frontier
        sizes.append(frontier.bit_count())


def _is_twin_cell(masks: tuple[int, ...], cell: list[int]) -> bool:
    v0 = cell[0]
    open0 = masks[v0]
    if all(masks[v] == open0 for v in cell[1:]):
        return True
    closed0 = open0 | (1 << v0)
    return all(masks[v] | (1 << v) == closed0 for v in cell[1:])


def _least_leaf(g: Graph, gens: list[tuple[int, ...]] | None) -> int:
    """The least leaf triangle_bits of g's search tree (g.n >= 1).

    When gens is a list, every automorphism the search meets is appended
    to it as a permutation p, vertex v mapping to p[v].
    """
    n = g.n
    masks = tuple(g.neighbor_mask(v) for v in range(n))
    # One cell of all vertices, its own first splitter: counts against it
    # are degrees, so it splits into the ordered degree partition.
    order = list(range(n))
    ends = [0] * n
    ends[0] = n
    cells = _refine(masks, order, ends, [0], 1)
    if cells < n:
        # Refinement stalled: split the tied cells by the BFS layer profile.
        queue = []
        for s in [s for s in range(n) if ends[s] - s > 1]:
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in order[s : ends[s]]:
                groups.setdefault(_layer_sizes(masks, 1 << v), []).append(v)
            if len(groups) > 1:
                starts = _split(order, ends, s, groups)
                cells += len(starts) - 1
                queue += starts
        if queue:
            cells = _refine(masks, order, ends, queue, cells)
    best = -1
    best_order = order

    def search(order: list[int], ends: list[int], cells: int) -> None:
        nonlocal best, best_order
        if cells == n:
            bits = triangle_bits(masks, order)
            if best < 0 or bits < best:
                best, best_order = bits, order
            elif bits == best and gens is not None:
                perm = [0] * n
                for k in range(n):
                    perm[best_order[k]] = order[k]
                gens.append(tuple(perm))
            return
        target = -1
        for s in range(n):
            if ends[s] - s > 1 and (target < 0 or ends[s] - s < ends[target] - target):
                target = s
        end = ends[target]
        cell = order[target:end]
        if _is_twin_cell(masks, cell):
            members = cell[:1]
            if gens is not None:
                for w in cell[1:]:
                    perm = list(range(n))
                    perm[cell[0]], perm[w] = w, cell[0]
                    gens.append(tuple(perm))
        else:
            members = cell
        for v in members:
            child = order[:]
            child[target] = v
            child[target + 1 : end] = [w for w in cell if w != v]
            child_ends = ends[:]
            child_ends[target] = target + 1
            child_ends[target + 1] = end
            search(child, child_ends, _refine(masks, child, child_ends, [target], cells + 1))

    search(order, ends, cells)
    return best


def certificate(g: Graph) -> str:
    """The graph6 line of g's canonical labelling.

    certificate(g1) == certificate(g2) iff g1 and g2 are isomorphic, and
    io_validate.decode_graph6 turns a certificate into that labelling.
    graph6's short form limits inputs to n <= 62, far above anything the
    generator produces.
    """
    if g.n == 0:
        return graph6_line(0, 0)
    return graph6_line(g.n, _least_leaf(g, None))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Generators of g's automorphism group, each a permutation p that maps
    vertex v to p[v], without repeats, in the order the search found them.

    An empty list means the group is trivial.  This is certificate's
    search, recording as it goes (see the module docstring).
    """
    gens: list[tuple[int, ...]] = []
    if g.n:
        _least_leaf(g, gens)
    return list(dict.fromkeys(gens))


def are_isomorphic_bruteforce(g1: Graph, g2: Graph) -> bool:
    """Backtracking search for an isomorphism, independent of certificate.

    Maps vertices of g1 in decreasing degree order, pruning on degree and
    on adjacency with everything already mapped.  Exponential worst case;
    intended for small oracle duty.
    """
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return False
    deg1 = [g1.degree(v) for v in range(n)]
    deg2 = [g2.degree(v) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return False
    masks1 = [g1.neighbor_mask(v) for v in range(n)]
    masks2 = [g2.neighbor_mask(v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-deg1[v], v))
    image: dict[int, int] = {}
    used = [False] * n

    def place(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used[w] or deg2[w] != deg1[v]:
                continue
            if all((masks1[v] >> u & 1) == (masks2[w] >> wu & 1) for u, wu in image.items()):
                image[v] = w
                used[w] = True
                if place(k + 1):
                    return True
                del image[v]
                used[w] = False
        return False

    return place(0)
