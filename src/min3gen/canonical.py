"""Isomorphism certificates by individualization and refinement.

certificate(g) returns bytes equal for two graphs exactly when they are
isomorphic.  It refines an ordered degree partition to equitability, then
branches on the smallest non-singleton cell, and takes the lexicographically
least adjacency encoding over all explored leaf labelings.

Cells whose members are pairwise twins (identical open neighbourhoods, or
identical closed neighbourhoods) are branched only once: transposing two
twins is an automorphism, so every branch of such a cell leads to the same
minimum.  This keeps twin-heavy families like complete bipartite graphs
from exploding factorially.

are_isomorphic_bruteforce is the independent oracle: a direct backtracking
search for an edge-preserving bijection, sharing nothing with the
certificate machinery.
"""

from __future__ import annotations

from .graphs import Graph, from_triangle_bits, triangle_bits


def _refine(masks: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells by neighbour counts into other cells until stable.

    Cell order is deterministic: a split replaces a cell by its parts in
    increasing signature order, and signatures are tuples of counts against
    the current cell list.
    """
    while True:
        cellmasks = []
        for cell in cells:
            cm = 0
            for v in cell:
                cm |= 1 << v
            cellmasks.append(cm)
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                mv = masks[v]
                sig = tuple((mv & cm).bit_count() for cm in cellmasks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(sorted(groups[sig]))
        cells = out
        if not changed:
            return cells


def _is_twin_cell(masks: tuple[int, ...], cell: list[int]) -> bool:
    v0 = cell[0]
    open0 = masks[v0]
    if all(masks[v] == open0 for v in cell[1:]):
        return True
    closed0 = open0 | (1 << v0)
    return all(masks[v] | (1 << v) == closed0 for v in cell[1:])


def _encode(masks: tuple[int, ...], cells: list[list[int]]) -> bytes:
    """Triangle bits of the leaf labeling, packed 8 to a byte, zero-padded."""
    n = len(cells)
    nbits = n * (n - 1) // 2
    if nbits == 0:
        return b""
    pad = (-nbits) % 8
    acc = triangle_bits(masks, [cell[0] for cell in cells])
    return (acc << pad).to_bytes((nbits + pad) // 8, "big")


def certificate(g: Graph) -> bytes:
    """Canonical byte string: vertex count then canonical adjacency bits.

    certificate(g1) == certificate(g2) iff g1 and g2 are isomorphic.
    Single-byte count limits inputs to n <= 255, far above anything the
    generator produces.
    """
    n = g.n
    if n > 255:
        raise ValueError("certificate supports at most 255 vertices")
    if n == 0:
        return b"\x00"
    masks = tuple(g.neighbor_mask(v) for v in range(n))
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(masks[v].bit_count(), []).append(v)
    cells = _refine(masks, [by_degree[d] for d in sorted(by_degree)])
    best: bytes | None = None

    def search(cells: list[list[int]]) -> None:
        nonlocal best
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (target < 0 or len(cell) < len(cells[target])):
                target = idx
        if target < 0:
            enc = _encode(masks, cells)
            if best is None or enc < best:
                best = enc
            return
        cell = cells[target]
        members = cell[:1] if _is_twin_cell(masks, cell) else cell
        for v in members:
            rest = [w for w in cell if w != v]
            child = cells[:target] + [[v], rest] + cells[target + 1 :]
            search(_refine(masks, child))

    search(cells)
    assert best is not None
    return bytes([n]) + best


def canonical_graph(cert: bytes) -> Graph:
    """The canonical labelling a certificate encodes.

    It is isomorphic to every graph with that certificate, and
    certificate(canonical_graph(c)) == c.
    """
    if not cert:
        raise ValueError("empty certificate")
    n = cert[0]
    nbits = n * (n - 1) // 2
    size = 1 + (nbits + 7) // 8
    if len(cert) != size:
        raise ValueError(f"certificate for n={n} needs {size} bytes, got {len(cert)}")
    return from_triangle_bits(n, int.from_bytes(cert[1:], "big") >> (-nbits % 8))


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
