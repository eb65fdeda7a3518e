"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--tiny]
    python3 perfbench/worker.py --import-only

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
first thing it does is time ``import tnspec`` (only ``sys`` and ``time``
are loaded before it), so that figure is the set-up cost a CLI user pays.
"""

import sys
import time

_started = time.perf_counter()
import tnspec  # noqa: E402 — timed import

SETUP_S = time.perf_counter() - _started

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from bisect import bisect_left  # noqa: E402
from pathlib import Path  # noqa: E402

SOURCE = Path(__file__).resolve().parent.parent / "src" / "tnspec"
MAX_PROBLEMS_SHOWN = 5
REFERENCE_N = 24
SETUP_REFERENCE_SAMPLES = 5
# often enough to follow the host's speed inside a long operation, rarely
# enough that the probes take a few percent of the pass
PROBE_EVERY_S = 0.1


def _reference_parts(remaining: int, max_part: int):
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, max_part), 0, -1):
        for tail in _reference_parts(remaining - first, first):
            yield (first,) + tail


def reference_ns() -> int:
    """Time of a fixed pure-Python job that shares no code with tnspec.

    The job enumerates the partitions of 24 and sums the content formula
    over them.  It gauges the host's current speed, which other tenants
    move by up to 1.7x (see README.md).  The collector is paused while it
    runs and the job frees all it allocates, so a probe taken inside an
    operation does not move that operation's garbage collections.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    total = 0
    for parts in _reference_parts(REFERENCE_N, REFERENCE_N):
        for row, part in enumerate(parts, start=1):
            total += part * (part - 2 * row + 1)
    elapsed = time.perf_counter_ns() - start
    if collecting:
        gc.enable()
    return elapsed


class ReferenceProbes:
    """Times the reference job before, during and after a pass.

    During the pass a SIGALRM interval timer runs the job every
    ``every_s`` seconds, between two bytecodes of whatever operation is
    running, so long operations are probed from inside.  ``every_s=None``
    probes only before and after.
    """

    def __init__(self, every_s: float | None) -> None:
        self.every_s = every_s
        self.starts: list[int] = []
        self.durations: list[int] = []

    def _probe(self, signum: int | None = None, frame: object = None) -> None:
        self.starts.append(time.perf_counter_ns())
        self.durations.append(reference_ns())

    def __enter__(self) -> "ReferenceProbes":
        self._probe()
        if self.every_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.every_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def calibrate(self, intervals: list[tuple[int, int]]) -> tuple[list[int], list[float]]:
        """Per operation: latency without the probes inside it, in ns, and
        its reference time in s, the mean of the probes inside it and the
        nearest probe on either side."""
        latencies, references = [], []
        for start, end in intervals:
            first = bisect_left(self.starts, start)
            stop = bisect_left(self.starts, end)
            latencies.append(end - start - sum(self.durations[first:stop]))
            window = self.durations[max(first - 1, 0):stop + 1]
            references.append(statistics.fmean(window) / 1e9)
        return latencies, references


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()

    if Path(tnspec.__file__).resolve().parent != SOURCE:
        print(f"imported {tnspec.__file__}, not the checkout's {SOURCE}", file=sys.stderr)
        return 2
    setup_reference_s = statistics.median(
        reference_ns() for _ in range(SETUP_REFERENCE_SAMPLES)
    ) / 1e9
    if args.import_only:
        print(json.dumps({"setup_s": SETUP_S, "setup_reference_s": setup_reference_s}))
        return 0

    import workloads
    from layers import layer_metrics
    from tracer import Tracer

    sizes = workloads.TINY if args.tiny else workloads.FULL
    tracer = Tracer() if args.trace else None
    # probes inside operations would land in the tracer's spans
    probes = ReferenceProbes(None if args.trace else PROBE_EVERY_S)
    if tracer is not None:
        tracer.install()
    try:
        ops = workloads.build_ops(args.workload, args.seed, sizes)
        with probes:
            intervals, results = workloads.run_ops(ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies, references = probes.calibrate(intervals)
    problems = workloads.check(args.workload, args.seed, sizes, results)
    out = {
        "setup_s": SETUP_S,
        "setup_reference_s": setup_reference_s,
        "maxrss_kb": maxrss_kb,
        "latencies_ns": latencies,
        "reference_s": references,
        "attempted": len(results),
        "failed": len(problems),
        "problems": problems[:MAX_PROBLEMS_SHOWN],
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        if args.spans_out is not None:
            tracer.write_spans(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
