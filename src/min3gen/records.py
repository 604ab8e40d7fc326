"""The plain result shape shared by the generator and the serialization layer.

A run's result holds certificates grouped by (n, m), which is also what an
output directory holds and a resume reads.  This module deliberately
imports nothing of the package, so that readers and writers of these
records stay independent of the cycle and compatibility machinery.
"""

from __future__ import annotations

from dataclasses import dataclass


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
