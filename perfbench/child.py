"""One benchmark step in a fresh interpreter: import min3gen.cli, call main() once.

Usage: python3 child.py SPAWN_MONOTONIC SRC_DIR REQUEST_JSON

SPAWN_MONOTONIC is the parent's time.monotonic() just before it started
this process; the clock is system-wide, so the difference to the time
after the import is the set-up cost (interpreter start plus import).
SRC_DIR "-" makes a bare probe, which imports nothing: its set-up time is
the interpreter start alone.  REQUEST_JSON holds "argv" (None: only
measure set-up) and, for a traced step, "spans_out" and "run_id".  The
last stdout line is a JSON result.

Host speed.  On a shared host the speed at which Python runs drifts by
tens of percent within seconds to minutes.  So the child also times a
short fixed loop, tick(), that never changes with min3gen, every
TICK_EVERY_S seconds while main() runs, from a timer signal.  The mean tick time over an interval
tracks the host's speed over that interval; the parent divides by it.  The
mean leaves out the fastest and slowest fifth of the ticks, because a tick
that is preempted once reads several times too slow.  The garbage
collector is paused during a tick, so that a collection of min3gen's
objects is not charged to it.
The ticks taken inside main() are subtracted from main_s; in a traced
step they also fall inside whichever span is open, adding about 1% to
the self times.
"""

import gc
import signal
import sys
import time

TICK_EVERY_S = 0.2
TICK_ITEMS = 1000


def tick() -> float:
    """Seconds taken by a fixed loop of tuple sorts, frozenset hashing and dict stores.

    It keeps at most 64 sets alive, so that a tick at main()'s peak does not
    raise the peak RSS.
    """
    gc.disable()
    start = time.perf_counter()
    seen = {}
    for i in range(TICK_ITEMS):
        key = frozenset(sorted(((i * 7919) % 5003, (i * 104729) % 4001, i % 997, i % 13)))
        seen[i % 64] = key, hash(key)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and the highest fifth."""
    cut = len(values) // 5
    kept = sorted(values)[cut:len(values) - cut]
    return sum(kept) / len(kept)


def main() -> None:
    spawn = float(sys.argv[1])
    if sys.argv[2] != "-":
        sys.path.insert(0, sys.argv[2])
        import min3gen.cli

    out: dict = {"setup_s": time.monotonic() - spawn}
    import json  # after the measurement, which covers only start-up and min3gen

    request = json.loads(sys.argv[3])
    if request["argv"] is not None:
        step(min3gen.cli, request, out)
    print(json.dumps(out))


def step(cli, request: dict, out: dict) -> None:
    """Call cli.main once, recording its time, host speed, peak RSS and, if asked, its spans."""
    import resource
    import traceback

    tracer = None
    if request.get("spans_out"):
        from spans import Tracer, summarize

        tracer = Tracer(run_id=request["run_id"])
        tracer.install()
    ticks: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(tick()))
    signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
    start = time.perf_counter()
    try:
        out["rc"] = cli.main(request["argv"])
    except Exception:  # reported to the parent, which counts the step as failed
        out["rc"] = None
        out["error"] = traceback.format_exc()
    signal.setitimer(signal.ITIMER_REAL, 0)
    gross = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    inside = sum(ticks)
    if not ticks:  # a main() shorter than one interval: take one tick after it
        ticks.append(tick())
    out["gross_s"] = gross
    out["main_s"] = gross - inside
    out["tick_s"] = trimmed_mean(ticks)
    out["ticks"] = len(ticks)
    if tracer is not None:
        out["trace"] = summarize(tracer)
        tracer.write(request["spans_out"])


if __name__ == "__main__":
    main()
