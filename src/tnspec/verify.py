"""Mechanical re-verification sweeps with machine-readable reports.

Every check walks a visible case list and re-derives each case from
scratch (eigenvalue formula, closed-form polynomials, oracle spectra),
counting failures instead of stopping, and keeps at most ten failure
samples — the smallest cases first, since iteration is ascending.

Reports serialize deterministically: the canonical JSON excludes the
elapsed time, so two runs over the same code and ranges are byte-identical
and can be diffed in CI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from .errors import InvalidArgumentError, TnSpecError
from .families import (
    FAMILY_REGISTRY,
    FamilyId,
    build_family,
    family_spec,
    family_targets,
    group_bound_doubled,
)
from .oracle import CAYLEY_MAX_N, cayley_spectrum, spectrum
from .partitions import (
    choose2,
    compact_eigenvalue,
    conjugate,
    eigenvalue,
    eigenvalue_of_parts,
    expand,
)
from .segments import (
    LINEAR_MIN_N,
    QUADRATIC_MIN_N,
    head_interval,
    head_range,
    linear_segment_cover,
    quadratic_segment_bounds,
    quadratic_segment_cover,
)

MAX_FAILURE_SAMPLES = 10

# (inputs, ok, expected, got) — one verified case
CaseOutcome = tuple[str, bool, str, str]


@dataclass(frozen=True)
class FailureSample:
    inputs: str
    expected: str
    got: str

    def to_json_dict(self) -> dict:
        return {"inputs": self.inputs, "expected": self.expected, "got": self.got}


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    n_range: tuple[int, int]
    cases_run: int
    cases_failed: int
    failure_samples: tuple[FailureSample, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.cases_failed == 0

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        payload = {
            "check_id": self.check_id,
            "n_range": list(self.n_range),
            "cases_run": self.cases_run,
            "cases_failed": self.cases_failed,
            "failure_samples": [sample.to_json_dict() for sample in self.failure_samples],
        }
        if include_elapsed:
            payload["elapsed"] = self.elapsed
        return payload

    def canonical_json(self) -> str:
        """Deterministic serialization (timing excluded)."""
        return json.dumps(self.to_json_dict(include_elapsed=False), sort_keys=True)


def _collect(
    check_id: str, n_range: tuple[int, int], outcomes: Iterable[CaseOutcome]
) -> VerificationReport:
    started = time.perf_counter()
    cases_run = 0
    cases_failed = 0
    samples: list[FailureSample] = []
    for inputs, ok, expected, got in outcomes:
        cases_run += 1
        if not ok:
            cases_failed += 1
            if len(samples) < MAX_FAILURE_SAMPLES:
                samples.append(FailureSample(inputs, expected, got))
    elapsed = time.perf_counter() - started
    return VerificationReport(
        check_id, n_range, cases_run, cases_failed, tuple(samples), elapsed
    )


def _guarded(
    cases: Iterable[tuple[str, str, tuple]], problems: Callable[..., list[str]]
) -> Iterator[CaseOutcome]:
    """One outcome per (inputs, expected, args) case from problems(*args),
    which lists what is wrong; an exception it raises becomes a failed case
    with "<ExcType>: <message>" as got."""
    for inputs, expected, args in cases:
        try:
            found = problems(*args)
        except Exception as exc:  # noqa: BLE001 — failures become data
            yield inputs, False, expected, f"{type(exc).__name__}: {exc}"
        else:
            yield inputs, not found, expected, "; ".join(found) or "ok"


def verify_family(
    family: FamilyId | str, n_range: tuple[int, int]
) -> VerificationReport:
    """Rebuild every (n, target) instance of one family and re-check it.

    Per case: the expansion is a partition of n; the eigenvalue formula
    gives the target; the run-length evaluation agrees; and, where the
    family publishes closed-form polynomials for the head eigenvalue and
    the tail deduction, both polynomials match the actual values.
    """
    low, high = n_range
    spec = family_spec(family)
    family = spec.family

    def problems(n: int, lam: int) -> list[str]:
        compact = build_family(family, n, lam)
        partition = expand(compact)
        found = []
        if partition.n != n:
            found.append(f"parts sum to {partition.n}")
        actual = eigenvalue(partition)
        if actual != lam:
            found.append(f"eigenvalue {actual}")
        if compact_eigenvalue(compact) != lam:
            found.append("run-length evaluation disagrees")
        forms = spec.closed_forms(n, lam)
        if forms is not None:
            want_head, want_deduction = forms
            head_eig = eigenvalue_of_parts(compact.head)
            if head_eig != want_head:
                found.append(f"head eigenvalue {head_eig} != polynomial {want_head}")
            if head_eig - actual != want_deduction:
                found.append(
                    f"deduction {head_eig - actual} != polynomial {want_deduction}"
                )
        return found

    cases = (
        (f"n={n} target={lam}", f"partition of {n} with eigenvalue {lam}", (n, lam))
        for n in range(low, high + 1)
        for lam in family_targets(family, n)
    )
    return _collect(f"family:{family.value}", n_range, _guarded(cases, problems))


def verify_first_part_bounds(n_range: tuple[int, int]) -> VerificationReport:
    """First parts of all family witnesses stay within the group bounds.

    S1 (with Zero) stays within (n+1)/2, S2 and A1 within (n+2)/2, A2
    within (n+3)/2; the witness length obeys the same bound, so the
    conjugated witness's first part does too.  Checked as one case per
    (family, n, target).
    """
    low, high = n_range

    def problems(family: FamilyId, n: int, lam: int, doubled: int) -> list[str]:
        partition = expand(build_family(family, n, lam))
        found = []
        if 2 * partition.first_part > doubled:
            found.append(f"first part {partition.first_part}")
        if 2 * len(partition) > doubled:
            found.append(f"length {len(partition)}")
        return found

    def cases() -> Iterator[tuple[str, str, tuple]]:
        for n in range(max(low, LINEAR_MIN_N), high + 1):
            for family, spec in FAMILY_REGISTRY.items():
                doubled = group_bound_doubled(spec.group, n)
                for lam in family_targets(family, n):
                    yield (
                        f"family={family.value} n={n} target={lam}",
                        f"first part and length <= {doubled}/2",
                        (family, n, lam, doubled),
                    )

    return _collect("first_part_bounds", n_range, _guarded(cases(), problems))


def cross_check_oracle(n_range: tuple[int, int]) -> VerificationReport:
    """The oracle's spectra versus everything else.

    Per n: the spectrum is symmetric about zero with extremes at
    +-C(n, 2); for n <= 6 the Cayley graph's exact eigenvalues agree;
    for n >= 31 every k in [-n, n] is in the spectrum; for n >= 48 every
    k in [y1, y2] is.  The two theorems are read off the table's bits
    alone, one case per target; no witness is built, so a fault in the
    constructive covers cannot hide one here.  Cover failures are reported
    by linear_segment and quadratic_segment.  The oracle's table stops at
    TABLE_MAX_N = 200, so an n above it is one failed case.
    """
    low, high = n_range

    def outcomes() -> Iterator[CaseOutcome]:
        for n in range(max(low, 1), high + 1):
            try:
                full = spectrum(n)
            except TnSpecError as exc:
                yield f"n={n}", False, "spectrum within the oracle bound", str(exc)
                continue
            negated = tuple(sorted(-value for value in full.values))
            top = choose2(n)
            ok = negated == full.values and full.values[0] == -top and full.values[-1] == top
            yield (
                f"n={n} symmetry",
                ok,
                f"values symmetric with extremes +-{top}",
                "ok" if ok else f"extremes ({full.values[0]}, {full.values[-1]})",
            )
            if n <= CAYLEY_MAX_N:
                cayley = cayley_spectrum(n)
                ok = cayley.values == full.values
                yield (
                    f"n={n} cayley",
                    ok,
                    "matrix spectrum equals partition spectrum",
                    "ok" if ok else f"{cayley.values} != {full.values}",
                )
            claims = []
            if n >= LINEAR_MIN_N:
                claims.append(("linear", range(-n, n + 1)))
            if n >= QUADRATIC_MIN_N:
                bounds = quadratic_segment_bounds(n)
                claims.append(("quadratic", range(bounds.y1, bounds.y2 + 1)))
            for label, targets in claims:
                for k in targets:
                    ok = k in full
                    yield (
                        f"n={n} k={k} {label}",
                        ok,
                        "witness value in oracle spectrum",
                        "ok" if ok else "missing",
                    )

    return _collect("oracle_cross_check", n_range, outcomes())


def verify_linear_segment(n_range: tuple[int, int]) -> VerificationReport:
    """Every k in [-n, n] gets a verified witness, first parts bounded.

    One case per target plus one per n for the largest registry group
    bound, (n+3)/2, on the first part across the whole cover.
    """
    low, high = n_range

    def outcomes() -> Iterator[CaseOutcome]:
        for n in range(max(low, LINEAR_MIN_N), high + 1):
            cover = linear_segment_cover(n)
            for record in cover.records:
                yield f"n={n} k={record.target}", True, "verified witness", "ok"
            for target, message in cover.failures:
                yield f"n={n} k={target}", False, "verified witness", message
            doubled = max(
                group_bound_doubled(spec.group, n) for spec in FAMILY_REGISTRY.values()
            )
            ok = 2 * cover.max_first_part <= doubled
            yield (
                f"n={n} max first part",
                ok,
                f"<= {doubled}/2",
                str(cover.max_first_part),
            )

    return _collect("linear_segment", n_range, outcomes())


def verify_quadratic_segment(n_range: tuple[int, int]) -> VerificationReport:
    """Every k with y1 <= |k| <= y2 gets a verified witness (both signs).

    The positive side runs the full driver; the negative side conjugates
    each record, which re-verifies the mirrored eigenvalue from scratch.
    Adds one case per n for the head-interval overlap invariant that makes
    the head choice total.
    """
    low, high = n_range

    def outcomes() -> Iterator[CaseOutcome]:
        for n in range(max(low, QUADRATIC_MIN_N), high + 1):
            bounds = quadratic_segment_bounds(n)
            overlap_ok = True
            detail = "ok"
            low_head, high_head = head_range(n)
            for first in range(low_head, high_head):
                if head_interval(n, first + 1)[0] > head_interval(n, first)[1] + 1:
                    overlap_ok = False
                    detail = f"gap after leading part {first}"
                    break
            yield (
                f"n={n} head intervals",
                overlap_ok,
                "consecutive intervals overlap or adjoin",
                detail,
            )
            cover = quadratic_segment_cover(n)
            for record in cover.records:
                yield f"n={n} k={record.target}", True, "verified witness", "ok"
                try:
                    mirrored = record.conjugated()
                    yield f"n={n} k={mirrored.target}", True, "verified witness", "ok"
                except TnSpecError as exc:
                    yield f"n={n} k={-record.target}", False, "verified witness", str(exc)
            for target, message in cover.failures:
                yield f"n={n} k={target}", False, "verified witness", message
            expected_targets = bounds.y2 - bounds.y1 + 1
            ok = cover.covered + len(cover.failures) == expected_targets
            yield (
                f"n={n} completeness",
                ok,
                f"{expected_targets} targets accounted for",
                str(cover.covered + len(cover.failures)),
            )

    return _collect("quadratic_segment", n_range, outcomes())


# --- check registry and orchestration --------------------------------------

CheckRunner = Callable[[tuple[int, int]], VerificationReport]

# The default n range of every check lives here only.
DEFAULT_CHECKS: dict[str, tuple[tuple[int, int], CheckRunner]] = {
    **{
        f"family:{family.value}": ((1, 80), partial(verify_family, family))
        for family in FamilyId
    },
    "first_part_bounds": ((31, 80), verify_first_part_bounds),
    "oracle_cross_check": ((2, 45), cross_check_oracle),
    "linear_segment": ((31, 80), verify_linear_segment),
    "quadratic_segment": ((48, 60), verify_quadratic_segment),
}


def run_checks(
    check_ids: Iterable[str] | None = None,
    n_min: int | None = None,
    n_max: int | None = None,
) -> list[VerificationReport]:
    """Run the named checks (all, by default) over clamped default ranges;
    a clamped range that is empty raises before any check runs."""
    selected = list(check_ids) if check_ids is not None else list(DEFAULT_CHECKS)
    plan = []
    for check_id in selected:
        if check_id not in DEFAULT_CHECKS:
            raise InvalidArgumentError(
                f"unknown check {check_id!r}; known: {', '.join(DEFAULT_CHECKS)}"
            )
        (default_low, default_high), runner = DEFAULT_CHECKS[check_id]
        low = default_low if n_min is None else max(default_low, n_min)
        high = default_high if n_max is None else min(default_high, n_max)
        plan.append((check_id, low, high, runner))
    empty = [f"{name} ({low}..{high})" for name, low, high, _ in plan if low > high]
    if empty:
        raise InvalidArgumentError(f"the n range leaves no n for: {', '.join(empty)}")
    return [runner((low, high)) for _, low, high, runner in plan]


def summary_dict(reports: Iterable[VerificationReport]) -> dict:
    reports = list(reports)
    return {
        "reports": [report.to_json_dict() for report in reports],
        "total_cases": sum(report.cases_run for report in reports),
        "total_failed": sum(report.cases_failed for report in reports),
        "ok": all(report.ok for report in reports),
    }


def format_table(reports: Iterable[VerificationReport]) -> str:
    """Human-readable fixed-width summary, one line per check."""
    lines = [f"{'check':<28} {'n range':>10} {'cases':>8} {'failed':>7} {'time':>8}"]
    for report in reports:
        n_range = f"{report.n_range[0]}..{report.n_range[1]}"
        lines.append(
            f"{report.check_id:<28} {n_range:>10} {report.cases_run:>8} "
            f"{report.cases_failed:>7} {report.elapsed:>7.2f}s"
        )
        for sample in report.failure_samples:
            lines.append(f"    FAIL {sample.inputs}: expected {sample.expected}, got {sample.got}")
    return "\n".join(lines)
