"""The three benchmark workloads, their pinned inputs and their output checks.

Every workload is a closed loop from one thread: each call into tnspec
starts only after the previous one returned.  A pass returns the raw
results of its calls; ``check`` re-derives correctness afterwards, outside
the timed region.

Inputs are pinned here (or generated here from the seed) rather than taken
from tnspec defaults, so a later change to the package's defaults does not
silently change the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Any

import tnspec
from tnspec import cli, partitions, segments, verify


@dataclass(frozen=True)
class Sizes:
    family_range: tuple[int, int]
    first_part_range: tuple[int, int]
    cross_check_range: tuple[int, int]
    linear_range: tuple[int, int]
    quadratic_range: tuple[int, int]
    queries: int
    # n -> (expected gap segment, values expected absent from it)
    gap_expected: dict[int, tuple[tuple[int, int], tuple[int, ...]]]


# The checks `tnspec verify` runs, at its default ranges of this version.
FULL = Sizes(
    family_range=(1, 80),
    first_part_range=(31, 80),
    cross_check_range=(2, 45),
    linear_range=(31, 80),
    quadratic_range=(48, 60),
    queries=20_000,
    # Recorded from the exhaustive oracle: the whole gap [n+1, y1-1] is present.
    gap_expected={
        48: ((49, 73), ()),
        49: ((50, 90), ()),
        50: ((51, 88), ()),
    },
)

# For the self-test only.  n = 48 keeps the quadratic rescue path (k = 413 is
# rescued with head 31), and n = 21 keeps a genuinely absent gap value.
TINY = Sizes(
    family_range=(1, 34),
    first_part_range=(31, 33),
    cross_check_range=(2, 12),
    linear_range=(31, 32),
    quadratic_range=(48, 48),
    queries=400,
    gap_expected={21: ((22, 42), (31,))},
)


def quadratic_bounds(n: int) -> tuple[int, int]:
    """[y1, y2] from the paper's closed forms, independent of tnspec."""
    y1 = (-(-n // 3) + 1) * (-(-n // 3)) // 2 - 2 * ((2 * n) // 3 - 1)
    top = (2 * n + 1) // 3
    return y1, top * (top - 1) // 2


def witness_stream(seed: int, count: int) -> list[tuple[str, int, int]]:
    """Alternating linear and quadratic point queries (kind, n, k)."""
    rng = random.Random(seed)
    queries = []
    for index in range(count):
        if index % 2 == 0:
            n = rng.randint(31, 1000)
            queries.append(("linear", n, rng.randint(-n, n)))
        else:
            n = rng.randint(100, 1000)
            y1, y2 = quadratic_bounds(n)
            queries.append(("quadratic", n, rng.randint(y1, y2) * rng.choice((1, -1))))
    return queries


def gap_order(seed: int, sizes: Sizes) -> list[int]:
    """The scanned n values in a seed-chosen order (their caches are disjoint)."""
    order = sorted(sizes.gap_expected)
    random.Random(seed).shuffle(order)
    return order


def battery_calls(sizes: Sizes) -> list[tuple[str, str, tuple]]:
    """(check id, verify function name, arguments) in `tnspec verify` order."""
    calls = [
        (f"family:{family.value}", "verify_family", (family, sizes.family_range))
        for family in tnspec.FamilyId
    ]
    calls += [
        ("first_part_bounds", "verify_first_part_bounds", (sizes.first_part_range,)),
        ("oracle_cross_check", "cross_check_oracle", (sizes.cross_check_range,)),
        ("linear_segment", "verify_linear_segment", (sizes.linear_range,)),
        ("quadratic_segment", "verify_quadratic_segment", (sizes.quadratic_range,)),
    ]
    return calls


def build_ops(workload: str, seed: int, sizes: Sizes) -> list[tuple[Any, tuple]]:
    """The pass's operations as (function, arguments), in call order.

    Functions are resolved here, so build the operations after a tracer has
    rebound them.
    """
    if workload == "verify_battery":
        return [(getattr(verify, attr), args) for _, attr, args in battery_calls(sizes)]
    if workload == "witness_queries":
        linear, quadratic = segments.linear_segment_witness, segments.quadratic_segment_witness
        return [
            (linear if kind == "linear" else quadratic, (n, k))
            for kind, n, k in witness_stream(seed, sizes.queries)
        ]
    if workload == "gap_scan":
        return [(conjecture_json, (n,)) for n in gap_order(seed, sizes)]
    raise ValueError(f"unknown workload {workload!r}")


def run_ops(ops: list[tuple[Any, tuple]]) -> tuple[list[tuple[int, int]], list[Any]]:
    """Call each operation in turn: ((start_ns, end_ns) per operation, results).

    A result is whatever the operation returned, or the exception it raised.
    """
    clock = time.perf_counter_ns
    intervals: list[tuple[int, int]] = []
    results: list[Any] = []
    for fn, args in ops:
        start = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 — a failed operation is data
            result = exc
        intervals.append((start, clock()))
        results.append(result)
    return intervals, results


def conjecture_json(n: int) -> tuple[int, str]:
    """`tnspec conjecture <n> --format json` in-process: (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(["conjecture", str(n), "--format", "json"])
    return code, buffer.getvalue()


def check(workload: str, seed: int, sizes: Sizes, results: list[Any]) -> list[str]:
    """One message per failed operation; empty when every answer is right."""
    problems: list[str] = []
    if workload == "verify_battery":
        for (name, _, _), report in zip(battery_calls(sizes), results):
            if isinstance(report, Exception):
                problems.append(f"{name}: {type(report).__name__}: {report}")
            elif not report.ok or report.cases_run == 0:
                problems.append(f"{name}: {report.cases_failed}/{report.cases_run} failed")
    elif workload == "witness_queries":
        for (kind, n, k), record in zip(witness_stream(seed, sizes.queries), results):
            problem = _witness_problem(n, k, record)
            if problem:
                problems.append(f"{kind} n={n} k={k}: {problem}")
    elif workload == "gap_scan":
        for n, outcome in zip(gap_order(seed, sizes), results):
            problem = _gap_problem(n, sizes.gap_expected[n], outcome)
            if problem:
                problems.append(f"conjecture n={n}: {problem}")
    return problems


def _witness_problem(n: int, k: int, record: Any) -> str:
    if isinstance(record, Exception):
        return f"{type(record).__name__}: {record}"
    parts = record.partition.parts
    if record.n != n or record.target != k:
        return f"record is for n={record.n} k={record.target}"
    if sum(parts) != n:
        return f"parts sum to {sum(parts)}"
    value = partitions.eigenvalue(record.partition)
    if value != k:
        return f"witness has eigenvalue {value}"
    return ""


def _gap_problem(
    n: int, expected: tuple[tuple[int, int], tuple[int, ...]], outcome: Any
) -> str:
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    code, stdout = outcome
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    (low, high), absent = expected
    if tuple(payload["segment"]) != (low, high):
        return f"segment {payload['segment']} != {[low, high]}"
    got_absent = sorted(target for target, _ in payload["failures"])
    if got_absent != sorted(absent):
        return f"absent {got_absent} != {sorted(absent)}"
    witnesses = {int(target): parts for target, parts in payload["witnesses"].items()}
    present = sorted(set(range(low, high + 1)) - set(absent))
    if sorted(witnesses) != present or payload["covered"] != len(present):
        return "present set differs from the recorded one"
    for target, parts in witnesses.items():
        if sum(parts) != n:
            return f"witness for {target} sums to {sum(parts)}"
        value = partitions.eigenvalue(partitions.make_partition(parts))
        if value != target:
            return f"witness for {target} has eigenvalue {value}"
    return ""
