"""Closed-form witness families for small nonnegative eigenvalues of T_n.

Each family is a parametrized partition shape whose eigenvalue is known in
closed form.  Together (and with conjugation for negative targets) they
cover every integer target k in [0, n]:

* Zero        — a self-conjugate shape with eigenvalue exactly 0;
* S1 families — targets in [1, ~n/2]; split into "low" and "mid" ranges
  with one special shape at the crossover value, per residue of n mod 4;
* S2 families — targets from ~n/2 up to n-1; four cases by the parities
  of n and of the target;
* A1 rows     — the three targets straddling n/2;
* A2 rows     — the top seven targets n-6 .. n.

FAMILY_REGISTRY is the only description of which family serves which
target.  Some target sets overlap, so the linear driver takes the first
family, in one fixed priority order declared next to the registry rows,
whose targets contain k; for n >= 31 that tiles [0, n].  A query does not
scan the families for that: it bisects a table of cells over k whose
starts are affine in n, derived on first use from the registry's range
endpoints; the ordered scan stays as the table's reference.

Every builder checks the run-length evaluation of its shape against the
target, which costs O(head).  The flat eigenvalue formula re-checks each
witness once, in make_witness, where a public driver returns it; so a
range-bookkeeping bug surfaces as an error rather than a wrong witness.
For the S2/A1/A2 rows the head eigenvalue and the tail deduction are also
known as quadratic polynomials in (n, target); the verifier checks those
too (see verify.verify_family).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .errors import (
    OutOfFamilyRangeError,
    ParityViolationError,
    TnSpecError,
    WitnessVerificationError,
)
from .partitions import (
    CompactPartition,
    Partition,
    compact_eigenvalue,
    conjugate,
    eigenvalue,
    expand,
)

# From this n on, the families in dispatch order tile [0, n].
LINEAR_MIN_N = 31


class FamilyId(str, enum.Enum):
    """Tags naming the family (and case/row) a witness came from."""

    ZERO = "Zero"
    S1_LOW_ODD = "S1_low_odd"
    S1_ONE_EVEN = "S1_one_even"
    S1_LOW_EVEN = "S1_low_even"
    S1_MID_ODD = "S1_mid_odd"
    S1_MID_EVEN = "S1_mid_even"
    S1_SPECIAL_MOD0 = "S1_special_mod0"
    S1_SPECIAL_MOD1 = "S1_special_mod1"
    S1_SPECIAL_MOD2 = "S1_special_mod2"
    S1_SPECIAL_MOD3 = "S1_special_mod3"
    S2_CASE1 = "S2_case1"
    S2_CASE2 = "S2_case2"
    S2_CASE3 = "S2_case3"
    S2_CASE4 = "S2_case4"
    A1_ROW1_ODD = "A1_row1_odd"
    A1_ROW2_ODD = "A1_row2_odd"
    A1_ROW3_ODD = "A1_row3_odd"
    A1_ROW1_EVEN = "A1_row1_even"
    A1_ROW2_EVEN = "A1_row2_even"
    A1_ROW3_EVEN = "A1_row3_even"
    A2_ROW_N_ODD = "A2_row_n_odd"
    A2_ROW_N1_ODD = "A2_row_n-1_odd"
    A2_ROW_N2_ODD = "A2_row_n-2_odd"
    A2_ROW_N3_ODD = "A2_row_n-3_odd"
    A2_ROW_N4_ODD = "A2_row_n-4_odd"
    A2_ROW_N5_ODD = "A2_row_n-5_odd"
    A2_ROW_N6_ODD = "A2_row_n-6_odd"
    A2_ROW_N_EVEN = "A2_row_n_even"
    A2_ROW_N1_EVEN = "A2_row_n-1_even"
    A2_ROW_N2_EVEN = "A2_row_n-2_even"
    A2_ROW_N3_EVEN = "A2_row_n-3_even"
    A2_ROW_N4_EVEN = "A2_row_n-4_even"
    A2_ROW_N5_EVEN = "A2_row_n-5_even"
    A2_ROW_N6_EVEN = "A2_row_n-6_even"


@dataclass(frozen=True)
class WitnessRecord:
    """A verified witness: partition of n with eigenvalue == target.

    family_chain records how it was produced, outermost step last, e.g.
    ("S1_mid_odd",) or ("S1_mid_odd", "conjugate") or ("head=17",
    "S1_mid_odd").  Records are built only by make_witness, which checks the
    whole partition with the flat formula; the pieces a driver assembles
    along the way are plain (partition, chain) pairs and are not checked
    on their own.  ``verified`` is always True; it is carried explicitly so
    serialized records are self-describing.
    """

    n: int
    target: int
    partition: Partition
    family_chain: tuple[str, ...]
    verified: bool

    @property
    def family(self) -> str:
        return "+".join(self.family_chain)

    def conjugated(self) -> "WitnessRecord":
        """The record for -target via the transposed Young diagram."""
        return make_witness(
            self.n,
            -self.target,
            conjugate(self.partition),
            self.family_chain + ("conjugate",),
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "target": self.target,
            "family": self.family,
            "family_chain": list(self.family_chain),
            "partition": list(self.partition.parts),
            "verified": self.verified,
        }


def make_witness(
    n: int, target: int, partition: Partition, family_chain: tuple[str, ...]
) -> WitnessRecord:
    """Re-check and wrap a constructed witness; raises on any mismatch."""
    if partition.n != n:
        raise WitnessVerificationError(
            f"{family_chain}: partition {partition} sums to {partition.n}, not {n}"
        )
    actual = eigenvalue(partition)
    if actual != target:
        raise WitnessVerificationError(
            f"{family_chain}: partition {partition} has eigenvalue {actual}, "
            f"not the target {target}"
        )
    return WitnessRecord(n, target, partition, family_chain, True)


# --- family shapes ---------------------------------------------------------
#
# Builders assume (n, lam) already admissible (build_family checks); they
# use floor division only where the admissibility conditions make the
# division exact.


def _zero(n: int, lam: int) -> CompactPartition:
    if n % 2:
        if n == 1:
            return CompactPartition((), 0, 1)
        return CompactPartition(((n + 1) // 2,), 0, (n - 1) // 2)
    return CompactPartition((n // 2,), 1, (n - 4) // 2)


def _s1_low_odd(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        ((n - 2 * lam + 1) // 2, lam + 2), lam - 1, (n - 4 * lam - 1) // 2
    )


def _s1_one_even(n: int, lam: int) -> CompactPartition:
    return CompactPartition(((n - 6) // 2, 4, 4), 1, (n - 14) // 2)


def _s1_low_even(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        ((n - 2 * lam) // 2, lam + 2, 3), lam - 2, (n - 4 * lam - 2) // 2
    )


def _s1_mid_odd(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        (lam + 1, (n + 3 - 2 * lam) // 2), (n - 1) // 2 - lam, (4 * lam - n - 3) // 2
    )


def _s1_mid_even(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        (lam + 1, (n + 2 - 2 * lam) // 2, 3),
        (n - 4) // 2 - lam,
        (4 * lam - n - 2) // 2,
    )


def _s1_special_mod0(n: int, lam: int) -> CompactPartition:
    return CompactPartition((n // 4, n // 4, 5, 4), (n - 20) // 4, 1)


def _s1_special_mod1(n: int, lam: int) -> CompactPartition:
    return CompactPartition(((n + 3) // 4, (n + 3) // 4, 4), (n - 13) // 4, 1)


def _s1_special_mod2(n: int, lam: int) -> CompactPartition:
    return CompactPartition(((n + 2) // 4, (n - 2) // 4, 5, 4), (n - 22) // 4, 2)


def _s1_special_mod3(n: int, lam: int) -> CompactPartition:
    return CompactPartition(((n + 1) // 4, (n + 1) // 4, 5, 3), (n - 19) // 4, 1)


def _s2_case1(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        ((lam + 3) // 2, (n + 2 - lam) // 2, 3),
        (n - 4 - lam) // 2,
        lam - (n + 3) // 2,
    )


def _s2_case2(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        (lam // 2, (n + 3 - lam) // 2, 5), (n - 3 - lam) // 2, lam - (n + 7) // 2
    )


def _s2_case3(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        ((lam + 3) // 2, (n + 3 - lam) // 2), (n - 1 - lam) // 2, lam - (n + 4) // 2
    )


def _s2_case4(n: int, lam: int) -> CompactPartition:
    return CompactPartition(
        (lam // 2 + 1, (n + 2 - lam) // 2, 4), (n - 4 - lam) // 2, lam - (n + 4) // 2
    )


# --- admissible target sets ------------------------------------------------
#
# Target sets are ranges, so membership is O(1) and costs no allocation.

_NO_TARGETS = range(0)


def _parity_range(lo: int, hi: int, parity: int) -> range:
    """Integers of the given parity in [lo, hi]."""
    start = lo if lo % 2 == parity else lo + 1
    return range(start, hi + 1, 2)


def _targets_zero(n: int) -> range:
    if n % 2 == 1 or n >= 4:
        return range(0, 1)
    return _NO_TARGETS


def _targets_s1_low_odd(n: int) -> range:
    return range(1, (n - 3) // 4 + 1)


def _targets_s1_low_even(n: int) -> range:
    return range(2, (n - 4) // 4 + 1)


def _targets_s1_mid_odd(n: int) -> range:
    return range(-(-(n + 3) // 4), (n - 1) // 2 + 1)


def _targets_s1_mid_even(n: int) -> range:
    return range(-(-(n + 2) // 4), (n - 4) // 2 + 1)


def _special_target(residue: int) -> Callable[[int], range]:
    """The single crossover target, admissible only when n % 4 == residue."""

    def targets(n: int) -> range:
        if n % 4 != residue:
            return _NO_TARGETS
        crossover = (n - 3) // 4 + 1
        return range(crossover, crossover + 1)

    return targets


def _eighth(value: int) -> int:
    quotient, rem = divmod(value, 8)
    if rem:
        raise ParityViolationError(f"polynomial value {value} is not divisible by 8")
    return quotient


def _s2_forms(
    head_n: int, head_nl: int, head_c: int, head_l: int
) -> Callable[[int, int], tuple[int, int]]:
    """Closed forms for an S2 case, as eighths of quadratics in (n, lam).

    head = (n^2 + head_nl*n*lam + head_n*n + 2*lam^2 + head_l*lam + head_c)/8
    and f = head - lam (so both are pinned by one coefficient set).
    """

    def forms(n: int, lam: int) -> tuple[int, int]:
        head = _eighth(
            n * n + head_nl * n * lam + head_n * n + 2 * lam * lam + head_l * lam + head_c
        )
        return head, head - lam

    return forms


def _row_forms(
    head_b: int, head_c: int, f_b: int, f_c: int
) -> Callable[[int, int], tuple[int, int]]:
    """Closed forms for an A1/A2 row: eighths of quadratics in n alone."""

    def forms(n: int, lam: int) -> tuple[int, int]:
        head = _eighth(n * n + head_b * n + head_c)
        deduction = _eighth(n * n + f_b * n + f_c)
        return head, deduction

    return forms


@dataclass(frozen=True)
class FamilySpec:
    """Registry entry: admissibility data plus the shape builder."""

    family: FamilyId
    group: str  # "S1", "S2", "A1", "A2" (Zero counts as S1 for bounds)
    n_parity: int | None  # 0 even, 1 odd, None either
    n_min: int
    targets: Callable[[int], range]
    build: Callable[[int, int], CompactPartition]
    closed_forms: Callable[[int, int], tuple[int, int]] | None = None


def _head_row(
    parts_fn: Callable[[int], tuple[int, ...]], ones_fn: Callable[[int], int]
) -> Callable[[int, int], CompactPartition]:
    def build(n: int, lam: int) -> CompactPartition:
        return CompactPartition(parts_fn(n), 0, ones_fn(n))

    return build


def _const_target(target_fn: Callable[[int], int]) -> Callable[[int], range]:
    def targets(n: int) -> range:
        target = target_fn(n)
        return range(target, target + 1)

    return targets


_REGISTRY_ROWS: tuple[FamilySpec, ...] = (
    FamilySpec(FamilyId.ZERO, "S1", None, 1, _targets_zero, _zero),
    FamilySpec(FamilyId.S1_LOW_ODD, "S1", 1, 7, _targets_s1_low_odd, _s1_low_odd),
    FamilySpec(
        FamilyId.S1_ONE_EVEN, "S1", 0, 14, lambda n: range(1, 2), _s1_one_even
    ),
    FamilySpec(FamilyId.S1_LOW_EVEN, "S1", 0, 12, _targets_s1_low_even, _s1_low_even),
    FamilySpec(FamilyId.S1_MID_ODD, "S1", 1, 5, _targets_s1_mid_odd, _s1_mid_odd),
    FamilySpec(FamilyId.S1_MID_EVEN, "S1", 0, 10, _targets_s1_mid_even, _s1_mid_even),
    FamilySpec(
        FamilyId.S1_SPECIAL_MOD0, "S1", 0, 20, _special_target(0), _s1_special_mod0
    ),
    FamilySpec(
        FamilyId.S1_SPECIAL_MOD1, "S1", 1, 13, _special_target(1), _s1_special_mod1
    ),
    FamilySpec(
        FamilyId.S1_SPECIAL_MOD2, "S1", 0, 22, _special_target(2), _s1_special_mod2
    ),
    FamilySpec(
        FamilyId.S1_SPECIAL_MOD3, "S1", 1, 19, _special_target(3), _s1_special_mod3
    ),
    FamilySpec(
        FamilyId.S2_CASE1,
        "S2",
        1,
        11,
        lambda n: _parity_range((n + 3) // 2, n - 4, 1),
        _s2_case1,
        _s2_forms(-2, -2, -29, 6),
    ),
    FamilySpec(
        FamilyId.S2_CASE2,
        "S2",
        1,
        21,
        lambda n: _parity_range((n + 7) // 2, n - 7, 0),
        _s2_case2,
        _s2_forms(0, -2, -9, -2),
    ),
    FamilySpec(
        FamilyId.S2_CASE3,
        "S2",
        0,
        6,
        lambda n: _parity_range((n + 4) // 2, n - 1, 1),
        _s2_case3,
        _s2_forms(0, -2, -6, 4),
    ),
    FamilySpec(
        FamilyId.S2_CASE4,
        "S2",
        0,
        16,
        lambda n: _parity_range((n + 4) // 2, n - 6, 0),
        _s2_case4,
        _s2_forms(-2, -2, -24, 4),
    ),
    FamilySpec(
        FamilyId.A1_ROW1_ODD,
        "A1",
        1,
        25,
        _const_target(lambda n: (n + 1) // 2),
        _head_row(lambda n: ((n - 11) // 2, 7, 4, 3, 3), lambda n: (n - 23) // 2),
        _row_forms(-24, 119, -28, 115),
    ),
    FamilySpec(
        FamilyId.A1_ROW2_ODD,
        "A1",
        1,
        9,
        _const_target(lambda n: (n + 3) // 2),
        _head_row(lambda n: ((n - 1) // 2, 4), lambda n: (n - 7) // 2),
        _row_forms(-4, 19, -8, 7),
    ),
    FamilySpec(
        FamilyId.A1_ROW3_ODD,
        "A1",
        1,
        13,
        _const_target(lambda n: (n + 5) // 2),
        _head_row(lambda n: ((n - 3) // 2, 5, 2), lambda n: (n - 11) // 2),
        _row_forms(-8, 31, -12, 11),
    ),
    FamilySpec(
        FamilyId.A1_ROW1_EVEN,
        "A1",
        0,
        32,
        _const_target(lambda n: (n - 2) // 2),
        _head_row(lambda n: ((n - 16) // 2, 8, 5, 4, 3, 3), lambda n: (n - 30) // 2),
        _row_forms(-34, 232, -38, 240),
    ),
    FamilySpec(
        FamilyId.A1_ROW2_EVEN,
        "A1",
        0,
        2,
        _const_target(lambda n: n // 2),
        _head_row(lambda n: ((n + 2) // 2,), lambda n: (n - 2) // 2),
        _row_forms(2, 0, -2, 0),
    ),
    FamilySpec(
        FamilyId.A1_ROW3_EVEN,
        "A1",
        0,
        28,
        _const_target(lambda n: (n + 2) // 2),
        _head_row(lambda n: ((n - 12) // 2, 8, 3, 3, 3, 2), lambda n: (n - 26) // 2),
        _row_forms(-26, 112, -30, 104),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N_ODD,
        "A2",
        1,
        3,
        _const_target(lambda n: n),
        _head_row(lambda n: ((n + 3) // 2,), lambda n: (n - 3) // 2),
        _row_forms(4, 3, -4, 3),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N1_ODD,
        "A2",
        1,
        7,
        _const_target(lambda n: n - 1),
        _head_row(lambda n: ((n + 1) // 2, 3), lambda n: (n - 7) // 2),
        _row_forms(0, -1, -8, 7),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N2_ODD,
        "A2",
        1,
        11,
        _const_target(lambda n: n - 2),
        _head_row(lambda n: ((n - 1) // 2, 4, 2), lambda n: (n - 11) // 2),
        _row_forms(-4, -5, -12, 11),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N3_ODD,
        "A2",
        1,
        9,
        _const_target(lambda n: n - 3),
        _head_row(lambda n: ((n + 1) // 2, 2, 2), lambda n: (n - 9) // 2),
        _row_forms(0, -33, -8, -9),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N4_ODD,
        "A2",
        1,
        11,
        _const_target(lambda n: n - 4),
        _head_row(lambda n: ((n - 1) // 2, 3, 3), lambda n: (n - 11) // 2),
        _row_forms(-4, -21, -12, 11),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N5_ODD,
        "A2",
        1,
        19,
        _const_target(lambda n: n - 5),
        _head_row(lambda n: ((n - 7) // 2, 5, 5, 3), lambda n: (n - 19) // 2),
        _row_forms(-16, 55, -24, 95),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N6_ODD,
        "A2",
        1,
        13,
        _const_target(lambda n: n - 6),
        _head_row(lambda n: ((n - 1) // 2, 3, 2, 2), lambda n: (n - 13) // 2),
        _row_forms(-4, -61, -12, -13),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N_EVEN,
        "A2",
        0,
        8,
        _const_target(lambda n: n),
        _head_row(lambda n: (n // 2, 4), lambda n: (n - 8) // 2),
        _row_forms(-2, 16, -10, 16),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N1_EVEN,
        "A2",
        0,
        6,
        _const_target(lambda n: n - 1),
        _head_row(lambda n: ((n + 2) // 2, 2), lambda n: (n - 6) // 2),
        _row_forms(2, -8, -6, 0),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N2_EVEN,
        "A2",
        0,
        20,
        _const_target(lambda n: n - 2),
        _head_row(lambda n: ((n - 8) // 2, 6, 5, 3), lambda n: (n - 20) // 2),
        _row_forms(-18, 104, -26, 120),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N3_EVEN,
        "A2",
        0,
        10,
        _const_target(lambda n: n - 3),
        _head_row(lambda n: (n // 2, 3, 2), lambda n: (n - 10) // 2),
        _row_forms(-2, -24, -10, 0),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N4_EVEN,
        "A2",
        0,
        16,
        _const_target(lambda n: n - 4),
        _head_row(lambda n: ((n - 4) // 2, 5, 3, 2), lambda n: (n - 16) // 2),
        _row_forms(-10, 0, -18, 32),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N5_EVEN,
        "A2",
        0,
        14,
        _const_target(lambda n: n - 5),
        _head_row(lambda n: ((n - 2) // 2, 4, 2, 2), lambda n: (n - 14) // 2),
        _row_forms(-6, -40, -14, 0),
    ),
    FamilySpec(
        FamilyId.A2_ROW_N6_EVEN,
        "A2",
        0,
        12,
        _const_target(lambda n: n - 6),
        _head_row(lambda n: (n // 2, 2, 2, 2), lambda n: (n - 12) // 2),
        _row_forms(-2, -72, -10, -24),
    ),
)

FAMILY_REGISTRY: dict[FamilyId, FamilySpec] = {
    row.family: row for row in _REGISTRY_ROWS
}


def _group(group: str) -> tuple[FamilyId, ...]:
    return tuple(row.family for row in _REGISTRY_ROWS if row.group == group)


# Linear-segment dispatch: a target k in [0, n] goes to the first family
# here whose targets contain it.  For n >= 31 only the S2 ranges overlap
# other families, and the order settles each overlap:
# * A1 wins over S2_case1 at (n+3)/2 and (n+5)/2 for odd n;
# * A2 wins over S2 at n-6 and n-4 for odd n, and at n-5, n-3 and n-1
#   for even n;
# * S2 keeps n-6 for even n, so A2_row_n-6_even comes last.
_DISPATCH_ORDER: tuple[FamilyId, ...] = (
    *_group("S1"),
    *_group("A1"),
    *(family for family in _group("A2") if family is not FamilyId.A2_ROW_N6_EVEN),
    *_group("S2"),
    FamilyId.A2_ROW_N6_EVEN,
)

# The same order without the families of the other parity of n, for which
# family_targets returns an empty range: the reference scan and the
# derivation of the dispatch cells below read only these.
_DISPATCH_BY_PARITY: tuple[tuple[FamilyId, ...], ...] = tuple(
    tuple(
        family
        for family in _DISPATCH_ORDER
        if FAMILY_REGISTRY[family].n_parity in (None, parity)
    )
    for parity in (0, 1)
)


def _spec_targets(spec: FamilySpec, n: int) -> range:
    if n < spec.n_min:
        return _NO_TARGETS
    if spec.n_parity is not None and n % 2 != spec.n_parity:
        return _NO_TARGETS
    return spec.targets(n)


def family_targets(family: FamilyId, n: int) -> range:
    """Eigenvalue targets the family covers at this n (may be empty)."""
    return _spec_targets(FAMILY_REGISTRY[family], n)


def build_family(family: FamilyId, n: int, lam: int) -> CompactPartition:
    """Build the family's shape after checking (n, lam) admissibility."""
    spec = FAMILY_REGISTRY[family]
    if lam not in _spec_targets(spec, n):
        raise OutOfFamilyRangeError(
            f"{family.value} does not cover target {lam} at n = {n}"
        )
    return spec.build(n, lam)


def _family_partition(family: FamilyId, n: int, lam: int) -> Partition:
    """The family's expanded witness for lam; the caller verifies it."""
    compact = build_family(family, n, lam)
    # the run-length evaluation must agree with the target (O(head) work)
    if compact_eigenvalue(compact) != lam:
        raise WitnessVerificationError(
            f"{family.value}: compact evaluation disagrees at n={n}, target={lam}"
        )
    return expand(compact)


def _dispatch_ranges(n: int) -> list[tuple[FamilyId, range]]:
    """(family, targets at n) for n's parity, in dispatch order."""
    return [
        (family, family_targets(family, n)) for family in _DISPATCH_BY_PARITY[n % 2]
    ]


def _first_covering(
    ranges: list[tuple[FamilyId, range]], lam: int
) -> FamilyId | None:
    for family, targets in ranges:
        if lam in targets:
            return family
    return None


def _scan_family(n: int, lam: int) -> FamilyId | None:
    """The reference dispatch: the first family in dispatch order whose
    targets at n contain lam, or None."""
    return _first_covering(_dispatch_ranges(n), lam)


# --- dispatch cells ----------------------------------------------------------
#
# Fix the class (n mod 8, lam mod 2).  Every range endpoint is a floor
# quotient (n + c) // d with d in {1, 2, 4}, so within the class each
# endpoint, and with it each point where the first covering family
# changes, is affine in n.  The targets of one parity therefore split into
# cells [start_i, start_{i+1}) with one owner each and starts affine in n,
# and a query is a bisect over the starts.  The cells are read off the
# range endpoints at two sample n per class and checked there against each
# other; tests compare the bisect with the reference scan.

_CELL_PERIOD = 8

# (n0, starts, steps, owners): at n = n0 + 8m, n >= n0, cell i starts at
# starts[i] + steps[i]*m and is served by owners[i] (None: no family).
_Cells = tuple[int, tuple[int, ...], tuple[int, ...], tuple[FamilyId | None, ...]]


def _cells_at(
    ranges: list[tuple[FamilyId, range]], n: int, parity: int
) -> tuple[list[int], list[FamilyId | None]]:
    """(starts, owners) of the cells of the targets of this parity at n,
    given _dispatch_ranges(n).

    The owner can change only where some range gains or loses its targets
    of this parity: at its first target, or just past its last, each moved
    up to this parity.  The last cell starts above n and has no owner.
    """
    candidates = {parity, n + 1}
    for _, targets in ranges:
        if targets:
            candidates.update((targets[0], targets[-1] + 1))
    starts: list[int] = []
    owners: list[FamilyId | None] = []
    for lam in sorted({c + (c - parity) % 2 for c in candidates}):
        owner = _first_covering(ranges, lam)
        if not owners or owner is not owners[-1]:
            starts.append(lam)
            owners.append(owner)
    return starts, owners


def _derive_cells(residue: int) -> tuple[_Cells, _Cells]:
    """The cells of n = residue (mod 8), for even and for odd targets."""
    n0 = LINEAR_MIN_N + (residue - LINEAR_MIN_N) % _CELL_PERIOD
    samples = [(n, _dispatch_ranges(n)) for n in (n0, n0 + _CELL_PERIOD)]
    cells: list[_Cells] = []
    for parity in (0, 1):
        (starts, owners), (later_starts, later_owners) = (
            _cells_at(ranges, n, parity) for n, ranges in samples
        )
        steps = tuple(later - start for start, later in zip(starts, later_starts))
        # the same owners at both samples, and no cell shrinking as n grows:
        # then the starts stay in order, and every cell nonempty, for n >= n0
        if later_owners != owners or any(b < a for a, b in zip(steps, steps[1:])):
            raise TnSpecError(
                f"dispatch cells at n = {residue} mod {_CELL_PERIOD}, target "
                f"parity {parity} are not affine in n"
            )
        cells.append((n0, tuple(starts), steps, tuple(owners)))
    return cells[0], cells[1]


@cache
def _dispatch_cells() -> tuple[tuple[_Cells, _Cells], ...]:
    """The cells of every class, indexed by n mod 8, then lam mod 2.

    Built on the first dispatch (about 1.5 ms), so that importing the
    package, and every command that never dispatches, does not pay for it.
    """
    return tuple(_derive_cells(residue) for residue in range(_CELL_PERIOD))


def _table_family(n: int, lam: int) -> FamilyId | None:
    """The family the reference scan picks, for n >= LINEAR_MIN_N."""
    n0, starts, steps, owners = _dispatch_cells()[n % _CELL_PERIOD][lam % 2]
    m = (n - n0) // _CELL_PERIOD
    cell = bisect_right([start + step * m for start, step in zip(starts, steps)], lam)
    return owners[cell - 1] if cell else None


def _dispatch_witness(n: int, lam: int) -> tuple[Partition, tuple[str, ...]]:
    """(partition, chain) from the first family in dispatch order that
    covers lam, not yet verified."""
    if n >= LINEAR_MIN_N:
        family = _table_family(n, lam)
    else:
        family = _scan_family(n, lam)
    if family is None:
        raise OutOfFamilyRangeError(f"no family covers target {lam} at n = {n}")
    return _family_partition(family, n, lam), (family.value,)


def zero_witness(n: int) -> Partition:
    """A self-conjugate partition of n with eigenvalue 0.

    Exists for every n >= 1 except n = 2 (T_2 = K_2 has spectrum {-1, 1}).
    """
    if not family_targets(FamilyId.ZERO, n):
        raise OutOfFamilyRangeError(f"no zero eigenvalue witness at n = {n}")
    partition = _family_partition(FamilyId.ZERO, n, 0)
    return make_witness(n, 0, partition, (FamilyId.ZERO.value,)).partition


def group_bound_doubled(group: str, n: int) -> int:
    """Twice the proven first-part bound for witnesses of a group.

    Doubling keeps the comparison in integers: first_part <= bound/2 is
    checked as 2*first_part <= this value.  Conjugated witnesses obey the
    same bound on their *length*, which is the conjugate's first part.
    """
    offsets = {"S1": 1, "S2": 2, "A1": 2, "A2": 3}
    return n + offsets[group]
