"""tnspec benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify_battery --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory, never from an installed copy.  Each pass of the workload
runs in a fresh interpreter (perfbench/worker.py), so caches start cold and
peak RSS belongs to that pass alone.

--trace 0 repeats passes until --seconds have elapsed and reports medians of
the end-to-end metrics.  --trace 1 makes one untraced and one traced pass
and reports the per-layer metrics of the traced one, plus the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 means the run
completed (see "correct" for the answers); anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify_battery", "witness_queries", "gap_scan")
SETUP_SAMPLES = 5
# The whole run, set-up included, must end well inside three minutes.
RUN_LIMIT_S = 150.0
ORACLE_LIMIT_ENV_VAR = "TNSPEC_ORACLE_LIMIT"
# time of the reference job (worker.reference_ns) on an unloaded host; see README.md
REFERENCE_NOMINAL_S = 0.006


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread per process, and the same hash layout in every pass
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass {args} printed nothing")
    return json.loads(lines[-1])


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrated_ops(done: dict) -> list[float]:
    """A pass's operation latencies in seconds at the reference job's nominal speed."""
    return [
        ns / 1e9 * REFERENCE_NOMINAL_S / reference
        for ns, reference in zip(done["latencies_ns"], done["reference_s"])
    ]


def calibrated_setup(done: dict) -> float:
    return done["setup_s"] * REFERENCE_NOMINAL_S / done["setup_reference_s"]


def end_to_end(passes: list[dict], setup: list[dict]) -> tuple[dict, dict]:
    # Every pass replays the same operations, so each operation's latency is
    # its median over the passes.  A pass is their sum, and the percentiles
    # are taken over operations.
    per_op = [
        statistics.median(column)
        for column in zip(*(calibrated_ops(done) for done in passes))
    ]
    wall_s = sum(per_op)
    per_op.sort()
    p999 = percentile(per_op, 0.999)
    metrics = {
        "setup_s": statistics.median(calibrated_setup(done) for done in setup + passes),
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(done["maxrss_kb"] for done in passes) / 1024,
        "throughput_qps": len(per_op) / wall_s,
        "latency_p50_us": percentile(per_op, 0.5) * 1e6,
        "latency_p999_us": p999 * 1e6,
    }
    raw_walls = [sum(done["latencies_ns"]) / 1e9 for done in passes]
    info = {
        "passes": len(passes),
        "setup_samples": len(setup) + len(passes),
        "operations_per_pass": len(per_op),
        "operations_beyond_p999": sum(1 for seconds in per_op if seconds > p999),
        "pass_wall_s": raw_walls,
        "pass_reference_s": [statistics.median(done["reference_s"]) for done in passes],
        "uncalibrated_wall_s": statistics.median(raw_walls),
        "uncalibrated_setup_s": statistics.median(done["setup_s"] for done in setup + passes),
    }
    return metrics, info


def measure(args: argparse.Namespace, started: float) -> tuple[dict, dict, list[dict]]:
    deadline = started + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        base.append("--tiny")
    # warm-up: compiles bytecode and fills the file cache; not measured
    run_child(["--import-only"], deadline)
    if args.trace:
        plain = run_child(base, deadline)
        spans = HERE / "out" / f"spans_{args.workload}_seed{args.seed}.tsv.gz"
        traced = run_child(base + ["--trace", "--spans-out", str(spans)], deadline)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = sum(calibrated_ops(traced)) - sum(calibrated_ops(plain))
        info = {
            "passes": 2,
            "pass_wall_s": [sum(done["latencies_ns"]) / 1e9 for done in (plain, traced)],
            "spans_file": str(spans.relative_to(ROOT)),
        }
        return metrics, info, [plain, traced]
    setup = [
        run_child(["--import-only"], deadline)
        for _ in range(1 if args.tiny else SETUP_SAMPLES)
    ]
    passes: list[dict] = []
    measuring = time.monotonic()
    longest = 0.0
    while not passes or (
        time.monotonic() - measuring < args.seconds
        and time.monotonic() + longest < deadline
    ):
        pass_started = time.monotonic()
        passes.append(run_child(base, deadline))
        longest = max(longest, time.monotonic() - pass_started)
    metrics, info = end_to_end(passes, setup)
    return metrics, info, passes


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if ORACLE_LIMIT_ENV_VAR in os.environ:
        print(f"refusing to run: {ORACLE_LIMIT_ENV_VAR} changes the oracle's reach", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "tnspec" / "__init__.py").is_file():
        print(f"no tnspec sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        metrics, info, passes = measure(args, started)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(done["attempted"] for done in passes)
    failed = sum(done["failed"] for done in passes)
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_sha=git_sha(),
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        failed_frac=failed / attempted,
        problems=[problem for done in passes for problem in done["problems"]][:5],
    )
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"info": info}, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>18.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
