"""Reference data the benchmark checks outputs and counts against.

The per-(n, m) tables were pinned from the generator at the commit that
introduced this benchmark; their per-n sums must also equal the published
counts of minimally 3-connected graphs (n = 6..10) and of 3-connected
cubic graphs (n = 4..14).  Only counts are pinned: graph6, certificate and
shelf-file bytes may change by design.
"""

from __future__ import annotations

# (n, m) -> number of graphs, for every n up to the largest workload size.
MIN3_GROUPS = {
    (6, 9): 2, (6, 10): 1,
    (7, 11): 3, (7, 12): 2,
    (8, 12): 4, (8, 13): 11, (8, 14): 2, (8, 15): 1,
    (9, 14): 19, (9, 15): 30, (9, 16): 6, (9, 17): 1, (9, 18): 1,
    (10, 15): 14, (10, 16): 130, (10, 17): 108, (10, 18): 25, (10, 19): 6,
    (10, 20): 1, (10, 21): 1,
}
CUBIC_GROUPS = {(4, 6): 1, (6, 9): 2, (8, 12): 4, (10, 15): 14, (12, 18): 57, (14, 21): 341}

GROUPS = {"min3": MIN3_GROUPS, "cubic": CUBIC_GROUPS}

# Published totals per vertex count.
PUBLISHED = {
    "min3": {6: 3, 7: 5, 8: 18, 9: 57, 10: 285},
    "cubic": {4: 1, 6: 2, 8: 4, 10: 14, 12: 57, 14: 341},
}

# Exact counts of the traced run at the commit that introduced the
# benchmark.  A later change may move them on purpose (a new gate order, a
# canonical construction path), so a benchmark run reports a mismatch and
# does not fail; test_perfbench.py fails on one, and such a change updates
# this table with its reasons.
SEED_COUNTS = {
    "min3-n10": {
        "generator.e1.candidates": 1446,
        "generator.e2.candidates": 3783,
        "generator.c1.candidates": 1863,
        "generator.c2.candidates": 309,
        "generator.c3.candidates": 213,
        "generator.B.admitted": 535,
        "generator.C.admitted": 1675,
        "generator.A1.admitted": 331,
        "generator.A2.admitted": 18,
        "generator.A3.admitted": 8,
        "compat.no_chording_paths.calls": 5694,
        "compat.no_chording_paths.passed": 2385,
        "io_validate.encode_graph6.calls": 368,
    },
    "cubic-n14": {
        "canonical.certificate.calls": 10543,
        "io_validate.encode_graph6.calls": 419,
    },
    "min3-checkpoint-n9": {
        "io_validate.save_shelf.calls": 20,
        "io_validate.load_shelf.calls": 20,
    },
}
