"""Exhaustive isomorph-free generation of minimally 3-connected graphs.

The public surface: the Graph value type with its edit operations, cycle
set maintenance, the 3-compatibility gates, isomorphism certificates and
automorphism group generators, the two generators, and graph6 output
trees, written and read back to resume from, with independent connectivity
oracles.
"""

from .canonical import are_isomorphic_bruteforce, automorphisms, certificate
from .compat import compat_query, has_chording_path, is_3_compatible
from .cycles import (
    PRISM_CYCLES,
    Cycle,
    CycleSet,
    apply_add_edge,
    apply_bridge,
    apply_split_vertex,
    apply_subdivide_edge,
    canonical_cycle,
    chords,
    enumerate_cycles_bruteforce,
    extract_pattern,
)
from .generator import (
    ShelfEntry,
    bridgings,
    generate_cubic,
    generate_min3,
    source,
)
from .graphs import (
    Edge,
    Graph,
    add_edge,
    bridge,
    complete_bipartite_3,
    delete_edge,
    delete_vertex,
    edge,
    prism,
    split_vertex,
    subdivide_edge,
    wheel,
)
from .io_validate import (
    CheckpointError,
    GeneratedSet,
    decode_graph6,
    encode_graph6,
    has_only_essential_edges,
    is_3_connected,
    is_minimally_3_connected,
    read_outputs,
    write_outputs,
)

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "CycleSet",
    "CheckpointError",
    "Edge",
    "GeneratedSet",
    "Graph",
    "PRISM_CYCLES",
    "ShelfEntry",
    "add_edge",
    "apply_add_edge",
    "apply_bridge",
    "apply_split_vertex",
    "apply_subdivide_edge",
    "are_isomorphic_bruteforce",
    "automorphisms",
    "bridge",
    "bridgings",
    "canonical_cycle",
    "certificate",
    "chords",
    "compat_query",
    "complete_bipartite_3",
    "decode_graph6",
    "delete_edge",
    "delete_vertex",
    "edge",
    "encode_graph6",
    "enumerate_cycles_bruteforce",
    "extract_pattern",
    "generate_cubic",
    "generate_min3",
    "has_chording_path",
    "has_only_essential_edges",
    "is_3_compatible",
    "is_3_connected",
    "is_minimally_3_connected",
    "prism",
    "read_outputs",
    "source",
    "split_vertex",
    "subdivide_edge",
    "wheel",
    "write_outputs",
]
