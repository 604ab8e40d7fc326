"""Plain data shapes shared by the generator and the serialization layer.

This module deliberately imports nothing beyond the graph module, so that
readers and writers of these records stay independent of the cycle and
compatibility machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Edge, Graph, delete_edge

# Construction classes.  A0 is the seed, B and C carry one and two extra
# edges, A1, A2, A3 are the minimally 3-connected results of the three
# split-based operation chains.
CLASS_TAGS = ("A0", "B", "C", "A1", "A2", "A3")
A_TAGS = ("A0", "A1", "A2", "A3")
SCAFFOLD_TAGS = ("B", "C")
# The classes a shelf adds to the result, and so keeps certificates of.
RESULT_TAGS = ("A1", "A2", "A3")


@dataclass(frozen=True)
class Provenance:
    """How an entry was produced: its class and the edges a later operation reads.

    added_edges holds the edge additions still pending contraction, one for
    class B and two, sharing an endpoint, for class C.  An A1 entry holds
    one edge (b, y): what its split made of the B entry's pending edge,
    with y the split's new vertex, the graph's last.  c2 reads it.  A0, A2
    and A3 entries hold none.
    """

    class_tag: str
    added_edges: tuple[Edge, ...] = ()


@dataclass(frozen=True)
class ShelfEntry:
    """A graph, a maintained cycle set, and its provenance.

    For an A-class entry, cycles is the cycle set of graph.  A B or C entry
    shares its A-class ancestor's set instead: the cycles of graph minus
    the pending added edges.  An entry of a final shelf, whose set no gate
    reads, has cycles=None, and so has an entry loaded from a shelf file
    until generator.derive_cycles gives it its set.
    """

    graph: Graph
    cycles: frozenset[tuple[int, ...]] | None
    provenance: Provenance

    def ancestor(self) -> Graph:
        """The graph whose cycles the entry stores: its own graph, less the
        pending added edges of a B or C entry."""
        g = self.graph
        if self.provenance.class_tag in SCAFFOLD_TAGS:
            for u, v in self.provenance.added_edges:
                g = delete_edge(g, u, v)
        return g


@dataclass
class Shelf:
    """All entries at a fixed (edge count m, vertex count n) position.

    classes maps a class tag to its certificate-sorted entries; no two
    entries of a shelf share a certificate, but only the RESULT_TAGS
    entries keep theirs, sorted, as certs.
    """

    m: int
    n: int
    classes: dict[str, list[ShelfEntry]] = field(default_factory=dict)
    certs: list[str] = field(default_factory=list)

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
    classes.  A certificate is the graph6 line of its class's canonical
    labelling, so it is also the class's output line, and
    io_validate.decode_graph6 turns it back into a graph.
    """

    mode: str
    groups: dict[tuple[int, int], list[str]]

    def count(self, n: int | None = None) -> int:
        return sum(
            len(bucket)
            for (nn, _), bucket in self.groups.items()
            if n is None or nn == n
        )
