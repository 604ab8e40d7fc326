"""Outside-in tracing of min3gen: wrap public functions, record spans.

The modules import each other by name (`from .canonical import
certificate`), so a function is wrapped in every min3gen module namespace
that holds it, which is the name each caller looks up.  Private helpers
are never wrapped; their time counts toward the public caller.  A span is
(name, start, end, parent index, run id), kept in memory and written out
once the traced call has returned.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# (module, function) pairs, named as <module>.<function> in every report.
TARGETS = (
    ("cli", "main"),
    ("generator", "generate_min3"),
    ("generator", "generate_cubic"),
    ("generator", "run_shelf"),
    ("generator", "e1"),
    ("generator", "e2"),
    ("generator", "c1"),
    ("generator", "c2"),
    ("generator", "c3"),
    ("canonical", "certificate"),
    ("compat", "no_chording_paths"),
    ("compat", "has_chording_path"),
    ("cycles", "apply_add_edge"),
    ("cycles", "apply_flip_edge"),
    ("cycles", "apply_subdivide_edge"),
    ("graphs", "add_edge"),
    ("graphs", "split_vertex"),
    ("graphs", "bridge_edges"),
    ("io_validate", "write_outputs"),
    ("io_validate", "save_shelf"),
    ("io_validate", "load_shelf"),
    ("io_validate", "encode_graph6"),
    ("io_validate", "decode_graph6"),
)

# Counts taken from return values: candidates built, cycles carried, gates passed.
RESULT_COUNTS: dict[str, tuple[str, Callable]] = {
    "generator.e1": ("candidates", len),
    "generator.e2": ("candidates", len),
    "generator.c1": ("candidates", len),
    "generator.c2": ("candidates", len),
    "generator.c3": ("candidates", len),
    "cycles.apply_add_edge": ("cycles_out", len),
    "compat.no_chording_paths": ("passed", bool),
}


class Tracer:
    def __init__(self, run_id: int = 0, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, run_id = self.spans, self.stack, self.clock, self.run_id
        count = RESULT_COUNTS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if count is not None:
                counts[f"{name}.{count[0]}"] += count[1](result)
            return result

        return traced

    def install(self, package: str = "min3gen", targets=TARGETS) -> None:
        """Wrap every target where any module of the package refers to it."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for mod_name, func in targets:
            name = f"{mod_name}.{func}"
            home = sys.modules.get(f"{package}.{mod_name}")
            fn = getattr(home, func, None)
            if func.startswith("_") or not callable(fn):
                self.absent.append(name)
                continue
            traced = self.wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run_id in filter(None, self.spans):
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The program is sequential, so children nest inside their parent and
    never overlap each other; their durations are the covered part.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer) -> dict:
    """Per-name calls and self time, the counts taken from return values,
    the (name, duration) of each top-level span and the number of spans
    never closed."""
    open_spans = tracer.spans.count(None)
    # A span still open (a wrapped call that has not returned) leaves no
    # consistent tree: report it and derive nothing from the rest.
    closed = [] if open_spans else tracer.spans
    layers: dict[str, dict] = {}
    for span, own in zip(closed, self_times(closed)):
        entry = layers.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return {
        "layers": layers,
        "counts": dict(tracer.counts),
        "absent": tracer.absent,
        "spans": len(closed),
        "open": open_spans,
        "roots": [(name, end - start) for name, start, end, parent, _ in closed if parent < 0],
    }
