"""Plain data shapes shared by the generator and the serialization layer.

This module deliberately imports nothing beyond the graph type, so that
readers and writers of these records stay independent of the cycle and
compatibility machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Edge, Graph

# Construction classes.  A0 is the seed, B and C carry one and two extra
# edges, A1, A2, A3 are the minimally 3-connected results of the three
# split-based operation chains.
CLASS_TAGS = ("A0", "B", "C", "A1", "A2", "A3")
A_TAGS = ("A0", "A1", "A2", "A3")
SCAFFOLD_TAGS = ("B", "C")


@dataclass(frozen=True)
class Provenance:
    """How an entry was produced: its class and the edits that led to it.

    added_edges lists the edge additions still pending contraction (one for
    class B, two for class C, inherited by the splits that consume them).
    splits lists vertex splits as (new_vertex, new_edge) pairs in the order
    applied.
    """

    class_tag: str
    added_edges: tuple[Edge, ...] = ()
    splits: tuple[tuple[int, Edge], ...] = ()


@dataclass(frozen=True)
class ShelfEntry:
    """A graph, a maintained cycle set, its provenance, its certificate.

    For an A-class entry, cycles is the cycle set of graph.  A B or C entry
    shares its A-class ancestor's set instead: the cycles of graph minus
    the pending added edges.  An entry of a final shelf, which nothing
    reads, has cycles=None.
    """

    graph: Graph
    cycles: frozenset[tuple[int, ...]] | None
    provenance: Provenance
    cert: bytes


@dataclass
class Shelf:
    """All entries at a fixed (edge count m, vertex count n) position.

    classes maps a class tag to its certificate-sorted entries; no two
    entries of a shelf share a certificate.
    """

    m: int
    n: int
    classes: dict[str, list[ShelfEntry]] = field(default_factory=dict)

    def entries(self, *tags: str) -> list[ShelfEntry]:
        picked = tags if tags else CLASS_TAGS
        out: list[ShelfEntry] = []
        for tag in picked:
            out.extend(self.classes.get(tag, ()))
        return out


@dataclass
class GeneratedSet:
    """Output of a generation run.

    groups maps (n, m) to the sorted certificates of its isomorphism
    classes; canonical.canonical_graph turns one back into a graph.
    """

    mode: str
    groups: dict[tuple[int, int], list[bytes]]

    def count(self, n: int | None = None) -> int:
        return sum(
            len(bucket)
            for (nn, _), bucket in self.groups.items()
            if n is None or nn == n
        )
