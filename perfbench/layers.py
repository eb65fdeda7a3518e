"""Per-layer metrics derived from a traced pass.

Counts and self times come from the tracer's spans.  Everything else is
derived from outside the package: spectrum cache keys from the call
arguments, quadratic witness paths from each record's family chain, and the
oracle's partition space from a restricted-partition-count DP that lives
here, not in tnspec.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Any

from tnspec import segments

from catalog import PER_LAYER
from tracer import Tracer


def bracket_head(n: int, k: int) -> int | None:
    """Smallest admissible leading part whose head interval holds k."""
    low, high = segments.head_range(n)
    for first in range(low, high + 1):
        interval_low, interval_high = segments.head_interval(n, first)
        if interval_low <= k <= interval_high:
            return first
    return None


def quadratic_path(record: Any) -> str:
    """Path a positive-target quadratic witness took, read from its chain.

    The chain starts with ``head=F`` and continues with ``oracle`` or a
    family name.  A head other than the bracketing one means the rescue
    scan chose it.
    """
    head = int(record.family_chain[0].removeprefix("head="))
    if head != bracket_head(record.n, record.target):
        return "rescue"
    return "oracle_tail" if record.family_chain[1] == "oracle" else "linear_tail"


def spectrum_key(args: tuple, kwargs: dict) -> tuple[int, int, int]:
    """(n, first-part cap, length cap) that a spectrum call enumerates."""
    n = args[0]
    constraints = args[1] if len(args) > 1 else kwargs.get("constraints")
    max_first, max_length = n, n
    if constraints is not None:
        if constraints.max_first_part is not None:
            max_first = max(0, min(constraints.max_first_part, n))
        if constraints.max_length is not None:
            max_length = max(0, min(constraints.max_length, n))
    return n, max_first, max_length


@lru_cache(maxsize=None)
def restricted_count(m: int, max_part: int, max_parts: int) -> int:
    """Partitions of m into at most max_parts parts, each at most max_part.

    Either no part equals max_part, or removing one part of that size leaves
    a partition of m - max_part under the same caps with one part fewer.
    """
    if m == 0:
        return 1
    if m < 0 or max_part <= 0 or max_parts <= 0:
        return 0
    return restricted_count(m, max_part - 1, max_parts) + restricted_count(
        m - max_part, max_part, max_parts - 1
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s, which needs two runs."""
    totals = tracer.aggregate()
    keys = {spectrum_key(args, kwargs) for args, kwargs in tracer.spectrum_args}
    spectrum_calls = len(tracer.spectrum_args)
    spectrum_self = totals["oracle.spectrum"]["self_s"]
    space = sum(restricted_count(*key) for key in keys)
    paths = Counter(quadratic_path(record) for record in tracer.quadratic_records)
    metrics: dict[str, float] = {
        "oracle.spectrum.calls": spectrum_calls,
        "oracle.spectrum.distinct_keys": len(keys),
        "oracle.spectrum.hit_ratio": (
            (spectrum_calls - len(keys)) / spectrum_calls if spectrum_calls else 0.0
        ),
        "oracle.spectrum.max_n": max((key[0] for key in keys), default=0),
        "oracle.partition_space": space,
        "oracle.us_per_partition": spectrum_self * 1e6 / space if space else 0.0,
        "segments.quadratic.path_linear_tail": paths["linear_tail"],
        "segments.quadratic.path_oracle_tail": paths["oracle_tail"],
        "segments.quadratic.path_rescue": paths["rescue"],
        "verify.cases_run": sum(report.cases_run for report in tracer.verify_reports),
        "trace.spans": len(tracer.span_name),
    }
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name not in metrics and span in totals:
            metrics[name] = totals[span][field]
    return metrics
