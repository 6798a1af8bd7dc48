"""One pass of one workload in a fresh interpreter.

Reads ``{"workload", "ops", "trace", "setup_only"}`` as JSON on stdin and
writes one JSON object on stdout.  Module caches start cold, as in a user's
session.  ``setup_s`` runs from the start of this process's own code to the
moment the contexts are built; every operation is timed on its own.  Only
run.py is meant to start this script.

Times are also reported at nominal CPU speed.  On a shared machine the
speed one process gets swings by a quarter within seconds.  So a fixed
calibration loop runs before and after the set-up and between operations,
and, from a wall-clock timer, every TICK_S inside an untraced operation.
Each operation's time, less the loops run inside it, is rescaled by
NOMINAL_PROBE_S over the mean duration of the loops run around and inside
it.  The loop uses builtins only, so it imports nothing and shares no state
with the library.
"""

import time

NOMINAL_PROBE_S = 1e-3
TICK_S = 0.1


def probe() -> float:
    """Duration of a fixed pure-Python loop: Euclid's algorithm plus dict
    updates, the mix exact rational arithmetic is made of."""
    start = time.perf_counter()
    acc = {}
    for i in range(1, 1200):
        a, b = i * 7919, i * 104729 + 1
        while b:
            a, b = b, a % b
        key = (i % 61, a % 7)
        acc[key] = acc.get(key, 0) + a
    return time.perf_counter() - start


FIRST_PROBE = probe()
START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def nominal(seconds: float, probes: list) -> float:
    return seconds * NOMINAL_PROBE_S * len(probes) / sum(probes)


class Ticker:
    """Runs the calibration loop from SIGALRM every TICK_S of wall time and
    keeps (start, duration) of each run."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self.ticks.append((time.perf_counter(), probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, start: float, end: float) -> list[float]:
        return [d for t, d in self.ticks if start <= t < end]


def main() -> None:
    request = json.load(sys.stdin)
    import heckelink as hl

    from workloads import WORKLOADS

    _, setup, run_op, _ = WORKLOADS[request["workload"]]
    ops = request["ops"]
    ctx = setup(hl, ops)
    setup_s = time.perf_counter() - START
    probes = [probe()]
    result = {
        "setup_s": nominal(setup_s, [FIRST_PROBE, probes[0]]),
        "raw_setup_s": setup_s,
    }
    if request["setup_only"]:
        json.dump(result, sys.stdout)
        return

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # The ticker stays off in traced passes: spans would count its loops.
    ticker = Ticker()
    outputs, spans = [], []
    clock = time.perf_counter
    with ticker if tracer is None else contextlib.nullcontext():
        for op in ops:
            t0 = clock()
            try:
                out = run_op(hl, ctx, op)
            except Exception as exc:  # an operation that raises counts as failed
                out = {"error": f"{type(exc).__name__}: {exc}"}
            spans.append((t0, clock()))
            outputs.append(out)
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            probes.append(probe())
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["covered_s"] = tracer.covered_s
    raw_op_s, op_s = [], []
    for k, (t0, t1) in enumerate(spans):
        inside = ticker.inside(t0, t1)
        raw = t1 - t0 - sum(inside)
        raw_op_s.append(raw)
        op_s.append(nominal(raw, [probes[k], probes[k + 1], *inside]))
    result.update(
        wall_s=sum(op_s),
        op_s=op_s,
        raw_wall_s=sum(raw_op_s),
        raw_op_s=raw_op_s,
        outputs=outputs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
