"""
Writing, reading, and validating output files
=============================================

Outputs are graph6 text, one graph per line, one file per (n, m) group,
plus a counts.tsv summary.  The validators are import-independent from
the generator: the naive oracle re-checks minimal 3-connectivity from the
definition, and the exact fast test that reading a checkpoint and
`min3gen validate` use gives the same verdicts with one 3-connectivity
check per graph, then a separator search at each edge whose ends both
have degree above 3, the search the generator keeps a bridging by.
"""

import tempfile
from pathlib import Path

from min3gen import (
    decode_graph6,
    encode_graph6,
    generate_min3,
    has_only_essential_edges,
    is_3_connected,
    is_minimally_3_connected,
    prism,
    wheel,
    write_outputs,
)

# graph6 is a printable one-line encoding; round-trips are exact.
g = prism()
line = encode_graph6(g)
print("prism in graph6:", line)
print("round-trip ok:", decode_graph6(line) == g)

out_dir = Path(tempfile.mkdtemp(prefix="min3gen_demo_"))
result = generate_min3(7)
written = write_outputs(result, out_dir)
print("\nwrote:")
for path in written:
    print("  ", path.name)
print("\ncounts.tsv:")
print((out_dir / "counts.tsv").read_text(), end="")

# Validate every emitted graph against the definition-level oracle, and
# against the fast test.
checked = 0
for path in written:
    if path.suffix != ".g6":
        continue
    for row in path.read_text().splitlines():
        g = decode_graph6(row)
        assert is_minimally_3_connected(g) and has_only_essential_edges(g)
        checked += 1
print(f"\nall {checked} emitted graphs pass is_minimally_3_connected and has_only_essential_edges")

# Both reject near misses: W5 plus one chord is 3-connected but the chord
# is removable, so it is not minimal.  The chord lifts two rim vertices to
# degree 4, so the fast test re-checks the graph less each of their edges
# that meets no vertex of degree 3.
from min3gen import add_edge

rich = add_edge(wheel(5), 1, 3)
print("\nW5+chord 3-connected:", is_3_connected(rich),
      " minimally:", is_minimally_3_connected(rich),
      " fast test:", has_only_essential_edges(rich))

# Same checks through the command line:
#   min3gen generate --mode min3 --max-n 8 --out out/
#   min3gen validate out/min3_n8_m13.g6
#   min3gen cycles out/min3_n6_m9.g6
