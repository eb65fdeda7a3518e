"""Span tracing at tnspec's module boundaries, installed from outside.

The tracer wraps a fixed list of public functions and rebinds each name in
every tnspec module that holds it, so calls made inside the package (for
example ``segments.spectrum`` or ``verify.spectrum``) are caught as well as
calls from the benchmark.  ``eigenvalue_of_parts`` is deliberately not
wrapped: the enumerator calls it about a million times per large spectrum
and that cost stays in oracle self time.

Spans live in flat in-memory arrays while the workload runs; nothing is
written until ``write_spans`` is called after the timed region.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# (module, function, span name); the span name is the layer metric prefix.
TRACED = (
    ("partitions", "eigenvalue", "partitions.eigenvalue"),
    ("partitions", "conjugate", "partitions.conjugate"),
    ("partitions", "expand", "partitions.expand"),
    ("families", "build_family", "families.build_family"),
    ("families", "make_witness", "families.make_witness"),
    ("oracle", "spectrum", "oracle.spectrum"),
    ("oracle", "cayley_spectrum", "oracle.cayley_spectrum"),
    ("segments", "linear_segment_witness", "segments.linear_segment_witness"),
    ("segments", "quadratic_segment_witness", "segments.quadratic_segment_witness"),
    ("segments", "conjecture_scan", "segments.conjecture_scan"),
    ("verify", "verify_family", "verify.family_sweeps"),
    ("verify", "verify_first_part_bounds", "verify.first_part_bounds"),
    ("verify", "cross_check_oracle", "verify.oracle_cross_check"),
    ("verify", "verify_linear_segment", "verify.linear_segment"),
    ("verify", "verify_quadratic_segment", "verify.quadratic_segment"),
    ("cli", "run", "cli.run"),
)
LAYER_MODULES = ("partitions", "families", "oracle", "segments", "verify", "cli")


class Tracer:
    """Records one span per wrapped call: name, start, end and parent span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        # wrapped-call arguments and results kept for post-run derivations
        self.spectrum_args: list[tuple[tuple, dict]] = []
        self.quadratic_records: list[Any] = []
        self.verify_reports: list[Any] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, keep: Callable | None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[index] = start
                span_end[index] = end
            if keep is not None:
                keep(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function and rebind it wherever tnspec holds it."""
        package = importlib.import_module("tnspec")
        holders = [package] + [
            importlib.import_module(f"tnspec.{module}") for module in LAYER_MODULES
        ]
        keepers = {
            "oracle.spectrum": lambda a, k, r: self.spectrum_args.append((a, k)),
            "segments.quadratic_segment_witness": self._keep_quadratic,
            "verify.family_sweeps": self._keep_report,
            "verify.first_part_bounds": self._keep_report,
            "verify.oracle_cross_check": self._keep_report,
            "verify.linear_segment": self._keep_report,
            "verify.quadratic_segment": self._keep_report,
        }
        for module, function, name in TRACED:
            original = getattr(importlib.import_module(f"tnspec.{module}"), function)
            wrapped = self._wrap(name, original, keepers.get(name))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
                        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _keep_quadratic(self, args: tuple, kwargs: dict, record: Any) -> None:
        # a negative target recurses once on the positive one; count that inner
        # call only, so each witness is classified exactly once
        if record.target > 0:
            self.quadratic_records.append(record)

    def _keep_report(self, args: tuple, kwargs: dict, report: Any) -> None:
        self.verify_reports.append(report)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time (span minus child spans)."""
        count = len(self.span_name)
        child_ns = [0] * count
        for index in range(count):
            parent = self.span_parent[index]
            if parent >= 0:
                child_ns[parent] += self.span_end[index] - self.span_start[index]
        totals = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for index in range(count):
            entry = totals[self.names[self.span_name[index]]]
            entry["calls"] += 1
            own = self.span_end[index] - self.span_start[index] - child_ns[index]
            entry["self_s"] += own / 1e9
        return totals

    def write_spans(self, path: Path) -> None:
        """Dump spans as gzipped TSV: index, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index in range(len(self.span_name)):
                out.write(
                    f"{index}\t{self.names[self.span_name[index]]}\t"
                    f"{self.span_start[index]}\t{self.span_end[index]}\t"
                    f"{self.span_parent[index]}\n"
                )
