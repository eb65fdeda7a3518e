"""Segment coverage drivers: explicit witnesses for whole runs of integers.

Two constructive results are implemented:

* linear segment — for n >= 31, every integer k in [-n, n] is an
  eigenvalue of T_n.  A nonnegative target goes to the first registry
  family whose target set contains it, in the single priority order
  declared with the registry in families.py; negative targets take the
  conjugate of the witness for -k.  Below n = 31 a single witness is read
  from the oracle's spectrum table instead.

* quadratic segment — for n >= 48, every integer k with y1 <= |k| <= y2
  is an eigenvalue, where

      y1 = C(ceil(n/3) + 1, 2) - 2*(floor(2n/3) - 1)
      y2 = C(floor((2n+1)/3), 2)

  The witness takes the smallest leading part n1 with
  C(n1,2) - 2(n - n1) <= k <= C(n1,2); the residual target then lies in
  [-(n - n1), n - n1] and is produced by the linear driver when
  n - n1 >= 31 or by the oracle's spectrum of the (first-part-bounded)
  residual partitions otherwise.  Consecutive head intervals overlap
  throughout the head range, so a target with no head is a bug, not a gap.

Inside the drivers a witness is a plain (partition, chain) pair, built by
_linear_parts or _quadratic_parts.  Both handle the sign the same way: a
negative target conjugates the pair for -k and appends "conjugate" to its
chain.  Each public driver checks n and the segment once, then checks the
one partition it returns, once, with make_witness (the flat eigenvalue
formula); neither a linear tail nor the pair for -k is checked on its own.
linear_segment_cover builds the pair for each |k| once and gives -k its
conjugate.  quadratic_segment_cover checks n and the segment once and
walks the heads in ascending order, asking the oracle for each oracle-tail
head's capped spectrum once; only a target that head cannot serve goes
through _quadratic_parts.  Both covers still check each record on its own.

The gap between the two segments, [n+1, y1-1], is conjectured but not
proven to be covered; conjecture_scan reports oracle membership for each
value in it without asserting anything.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterable

from .errors import (
    BelowConstructiveRangeError,
    HeadTooSmallError,
    InvalidArgumentError,
    NoHeadFitsError,
    TargetOutOfSegmentError,
    TnSpecError,
    WitnessNotFoundError,
)
from .families import LINEAR_MIN_N, WitnessRecord, _dispatch_witness, make_witness
from .oracle import EnumerationConstraints, SpectrumSet, spectrum
from .partitions import Partition, check_formula_n, choose2, conjugate, with_head

QUADRATIC_MIN_N = 48


@dataclass(frozen=True)
class SegmentBounds:
    """Endpoints of the quadratic segment [y1, y2] (and its mirror)."""

    n: int
    y1: int
    y2: int

    def to_json_dict(self) -> dict:
        return {"n": self.n, "y1": self.y1, "y2": self.y2}


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of trying to witness every target in a segment.

    covered + len(failures) always equals the number of targets, so a
    report is complete by construction.  records holds one verified
    WitnessRecord per covered target, in target order; histogram counts
    records per family chain.
    """

    n: int
    segment: tuple[int, int]
    covered: int
    failures: tuple[tuple[int, str], ...]
    histogram: dict[str, int]
    max_first_part: int
    records: tuple[WitnessRecord, ...]

    def to_json_dict(self, with_witnesses: bool = False) -> dict:
        payload = {
            "n": self.n,
            "segment": list(self.segment),
            "covered": self.covered,
            "failures": [[target, message] for target, message in self.failures],
            "histogram": dict(sorted(self.histogram.items())),
            "max_first_part": self.max_first_part,
        }
        if with_witnesses:
            payload["witnesses"] = {
                str(record.target): list(record.partition.parts)
                for record in self.records
            }
        return payload

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["target", "status", "family", "partition", "detail"]]
        by_target: dict[int, list[str]] = {}
        for record in self.records:
            by_target[record.target] = [
                str(record.target),
                "covered",
                record.family,
                str(record.partition),
                "",
            ]
        for target, message in self.failures:
            by_target[target] = [str(target), "failed", "", "", message]
        for target in sorted(by_target):
            rows.append(by_target[target])
        return rows


def _run_cover(
    n: int,
    segment: tuple[int, int],
    targets: Iterable[int],
    witness_fn: Callable[[int], WitnessRecord],
) -> CoverageReport:
    check_formula_n(n)  # one error for the whole cover, not one per target
    records: list[WitnessRecord] = []
    failures: list[tuple[int, str]] = []
    histogram: Counter[str] = Counter()
    max_first_part = 0
    for target in targets:
        try:
            record = witness_fn(target)
        except TnSpecError as exc:
            failures.append((target, str(exc)))
            continue
        records.append(record)
        histogram[record.family] += 1
        max_first_part = max(max_first_part, record.partition.first_part)
    return CoverageReport(
        n,
        segment,
        len(records),
        tuple(failures),
        dict(sorted(histogram.items())),
        max_first_part,
        tuple(records),
    )


def linear_segment_witness(n: int, k: int) -> WitnessRecord:
    """A verified partition of n with eigenvalue k, for any |k| <= n.

    Constructive for n >= 31.  Below that the closed-form families carry
    no guarantee, so the witness is read from the oracle's spectrum table
    instead, with chain ("oracle",); a genuine hole of the small spectrum
    (T_18 misses +-4) raises WitnessNotFoundError.
    """
    _check_witness_n(n)
    if abs(k) > n:
        raise TargetOutOfSegmentError(
            f"target {k} is outside the linear segment [-n, n] at n = {n}"
        )
    return make_witness(n, k, *_linear_parts(n, k))


def _check_witness_n(n: int) -> None:
    """Refuse n < 1 and n above MAX_FORMULA_N before looking at the target."""
    if n < 1:
        raise InvalidArgumentError(f"a witness needs n >= 1, not n = {n}")
    check_formula_n(n)


def _linear_parts(n: int, k: int) -> tuple[Partition, tuple[str, ...]]:
    """(partition, chain) for |k| <= n, not yet verified."""
    if n < LINEAR_MIN_N:
        witness = spectrum(n).witness(k)
        if witness is None:
            raise WitnessNotFoundError(
                f"no partition of {n} has eigenvalue {k} (so the segment "
                f"[-n, n] genuinely has holes below n = {LINEAR_MIN_N})"
            )
        return witness, ("oracle",)
    if k < 0:
        partition, chain = _linear_parts(n, -k)
        return conjugate(partition), chain + ("conjugate",)
    return _dispatch_witness(n, k)


def linear_segment_cover(n: int) -> CoverageReport:
    """Witness every k in [-n, n]; per-target errors become report entries.

    Records, order and failure messages are those of linear_segment_witness
    target by target, but each |k| is dispatched, and its family built,
    once: the pair for -k is the conjugate of the unchecked pair for k, as
    _linear_parts makes it.  Every record still gets its own make_witness.
    """
    if n < LINEAR_MIN_N:
        raise BelowConstructiveRangeError(
            f"linear segment coverage is constructive for n >= {LINEAR_MIN_N}"
        )
    check_formula_n(n)  # before the first build
    pairs: list[tuple[Partition, tuple[str, ...]] | TnSpecError] = []
    for k in range(n + 1):
        try:
            pairs.append(_dispatch_witness(n, k))
        except TnSpecError as exc:
            pairs.append(exc)

    def witness(target: int) -> WitnessRecord:
        pair = pairs[abs(target)]
        if isinstance(pair, TnSpecError):
            raise pair
        partition, chain = pair
        if target < 0:
            partition, chain = conjugate(partition), chain + ("conjugate",)
        return make_witness(n, target, partition, chain)

    return _run_cover(n, (-n, n), range(-n, n + 1), witness)


def quadratic_segment_bounds(n: int) -> SegmentBounds:
    """The quadratic segment endpoints for n >= 48."""
    if n < QUADRATIC_MIN_N:
        raise BelowConstructiveRangeError(
            f"quadratic segment coverage starts at n = {QUADRATIC_MIN_N}"
        )
    low_head, high_head = head_range(n)
    y1 = choose2(low_head) - 2 * (n - low_head)
    y2 = choose2(high_head)
    return SegmentBounds(n, y1, y2)


def head_range(n: int) -> tuple[int, int]:
    """Admissible leading parts for the quadratic construction."""
    return -(-n // 3) + 1, (2 * n + 1) // 3


def head_interval(n: int, first: int) -> tuple[int, int]:
    """Targets reachable with leading part `first` and a residual in
    [-(n - first), n - first]: the interval [C(first,2) - 2(n - first),
    C(first,2)]."""
    return choose2(first) - 2 * (n - first), choose2(first)


def _joined(first: int, tail: Partition) -> Partition:
    """The partition (first, *tail)."""
    if tail.first_part > first:
        raise HeadTooSmallError(
            f"residual witness {tail} starts above the leading part {first}"
        )
    return with_head(first, tail)


def quadratic_segment_witness(n: int, k: int) -> WitnessRecord:
    """A verified partition of n with eigenvalue k, y1 <= |k| <= y2.

    Primary path: the smallest admissible leading part n1 whose interval
    brackets |k|, so the residual target lies in [-(n-n1), n-n1]; the
    residual witness comes from the linear driver when n-n1 >= 31, and
    from the oracle's spectrum of first-part-capped partitions otherwise
    (the top few leading parts always land below 31, so the oracle is
    part of the normal path, not an escape hatch).

    A residual below size 31 may genuinely lack the bracketed target
    (small spectra have holes — T_18 misses +-4 and +-16).  The head
    intervals overlap, so such targets are rescued by scanning the other
    admissible leading parts, cheapest residual first, for one whose
    (out-of-bracket) residual target the oracle can witness.  A negative
    target takes the conjugate of the witness for -k.
    """
    _check_witness_n(n)
    bounds = quadratic_segment_bounds(n)
    if not bounds.y1 <= abs(k) <= bounds.y2:
        raise TargetOutOfSegmentError(
            f"target {k} is outside the quadratic segment "
            f"[{bounds.y1}, {bounds.y2}] (and its mirror) at n = {n}"
        )
    return make_witness(n, k, *_quadratic_parts(n, k))


def _quadratic_parts(n: int, k: int) -> tuple[Partition, tuple[str, ...]]:
    """(partition, chain) for y1 <= |k| <= y2, not yet verified."""
    if k < 0:
        partition, chain = _quadratic_parts(n, -k)
        return conjugate(partition), chain + ("conjugate",)
    low_head, high_head = head_range(n)
    # smallest f with C(f, 2) >= k; both ends of head_interval grow with f,
    # so the smallest admissible head at or above it is the only candidate
    first = (isqrt(8 * k + 1) + 1) // 2
    if choose2(first) < k:
        first += 1
    first = max(low_head, first)
    if first > high_head or head_interval(n, first)[0] > k:
        raise NoHeadFitsError(
            f"no leading part in [{low_head}, {high_head}] brackets target {k} "
            f"at n = {n} (head intervals should tile [y1, y2])"
        )
    residual_n = n - first
    residual_target = k - choose2(first) + residual_n
    if residual_n >= LINEAR_MIN_N:
        tail, chain = _linear_parts(residual_n, residual_target)
        return _joined(first, tail), (f"head={first}",) + chain
    pair = _oracle_tail(n, first, k)
    if pair is not None:
        return pair
    # The rescue: other leading parts reach k with a residual target outside
    # [-(n-n1), n-n1] but well inside the residual spectrum's actual range.
    for head in range(high_head, low_head - 1, -1):
        if head != first:
            pair = _oracle_tail(n, head, k)
            if pair is not None:
                return pair
    raise WitnessNotFoundError(
        f"no admissible leading part yields a residual witness for "
        f"n = {n}, k = {k} (bracketing part {first} lacked eigenvalue "
        f"{residual_target} in its residual spectrum)"
    )


def _oracle_tail(
    n: int, head: int, k: int, tails: SpectrumSet | None = None
) -> tuple[Partition, tuple[str, ...]] | None:
    """(partition, chain) for k with this leading part and the residual
    read from the oracle's spectrum of parts <= head, or None.  tails is
    that spectrum when the caller already holds it."""
    rest = n - head
    target = k - choose2(head) + rest
    if abs(target) > choose2(rest):
        return None
    if tails is None:
        tails = spectrum(rest, EnumerationConstraints(max_first_part=head))
    tail = tails.witness(target)
    return None if tail is None else (_joined(head, tail), (f"head={head}", "oracle"))


def quadratic_segment_cover(n: int) -> CoverageReport:
    """Witness every k in [y1, y2] (the mirror follows by conjugation).

    Records, order and failure messages are those of
    quadratic_segment_witness target by target, but n and the segment are
    checked once, and the heads are walked in ascending order: head f
    serves the targets in (C(f-1, 2), C(f, 2)], the lowest head also those
    from y1 up, and a head with a residual below 31 asks the oracle for
    its capped spectrum once.  A target its head cannot serve (a hole in
    that spectrum, or no bracketing head at all) goes to _quadratic_parts,
    which rescues it or raises the per-target error.  Every record still
    gets its own make_witness.
    """
    bounds = quadratic_segment_bounds(n)
    head = head_range(n)[0]
    tails: SpectrumSet | None = None  # the current head's, once asked for

    def witness(k: int) -> WitnessRecord:
        nonlocal head, tails
        while choose2(head) < k:
            head, tails = head + 1, None
        if head_interval(n, head)[0] > k:
            return make_witness(n, k, *_quadratic_parts(n, k))  # raises NoHeadFitsError
        rest = n - head
        if rest >= LINEAR_MIN_N:
            tail, chain = _linear_parts(rest, k - choose2(head) + rest)
            return make_witness(n, k, _joined(head, tail), (f"head={head}",) + chain)
        if tails is None:
            tails = spectrum(rest, EnumerationConstraints(max_first_part=head))
        pair = _oracle_tail(n, head, k, tails) or _quadratic_parts(n, k)
        return make_witness(n, k, *pair)

    segment = (bounds.y1, bounds.y2)
    return _run_cover(n, segment, range(bounds.y1, bounds.y2 + 1), witness)


def conjecture_scan(n: int) -> CoverageReport:
    """Report-only oracle scan of the unproven gap above the linear segment.

    For n >= 48 the gap is [n+1, y1-1]; below 48 there is no quadratic
    segment yet and the scan covers [n+1, 2n] instead.  Values absent from
    the spectrum are listed as failures with an "absent" message — that is
    a finding about T_n, not an error in the scan.
    """
    if n < 1:
        raise InvalidArgumentError("scan needs n >= 1")
    if n >= QUADRATIC_MIN_N:
        gap_top = quadratic_segment_bounds(n).y1 - 1
    else:
        gap_top = 2 * n
    found = spectrum(n)

    def lookup(target: int) -> WitnessRecord:
        witness = found.witness(target)
        if witness is None:
            raise WitnessNotFoundError(f"{target} is absent from the T_{n} spectrum")
        return make_witness(n, target, witness, ("oracle",))

    return _run_cover(n, (n + 1, gap_top), range(n + 1, gap_top + 1), lookup)
