"""Plain data shapes shared by the generator and the serialization layer.

A shelf holds the minimally 3-connected graphs generated at one (m, n)
position, each with the cycle set and automorphism group generators that
the bridgings of it read, and a run's result holds certificates grouped by
(n, m), which is also what an output directory holds and a resume reads.  This module deliberately imports nothing
beyond the graph module, so that readers and writers of these records stay
independent of the cycle and compatibility machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph


@dataclass(frozen=True)
class ShelfEntry:
    """A minimally 3-connected graph, its cycle set, and generators of its
    automorphism group, each a permutation p that maps vertex v to p[v].

    An entry of a final shelf, which no bridging reads, has cycles=None
    and gens=None.
    """

    graph: Graph
    cycles: frozenset[tuple[int, ...]] | None
    gens: list[tuple[int, ...]] | None


@dataclass
class Shelf:
    """The graphs generated at a fixed (edge count m, vertex count n) position.

    certs holds the entries' certificates, sorted, and entries the graphs
    in the same order: no two entries of a shelf share a certificate.
    """

    m: int
    n: int
    entries: list[ShelfEntry] = field(default_factory=list)
    certs: list[str] = field(default_factory=list)


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
