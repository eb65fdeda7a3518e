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
target: a row's targets(n) is its whole admissibility.  Every row is a
FamilySpec of plain data: within its class of n, from its n_min on, each
part count of its shape is (a*n + b*k + c)/d and each end of its target
range is (a*n + c)/d.  The methods targets, build and closed_forms read
those fields, and build refuses inexact divisions; Zero alone overrides
targets and build by hand.  Some target sets overlap, so the linear driver
takes the first family, in one fixed priority order declared next to the
registry rows, whose targets contain k; for n >= 31 that tiles [0, n].  It
reaches that family by one path, a bisect over a table of cells whose
starts are affine in n, derived on first use from the affine range
endpoints; the ordered scan is the tests' reference.  Below n = 31 the
drivers read the oracle instead.

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
from dataclasses import dataclass, field
from functools import cache

from .errors import (
    InvalidArgumentError,
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

# Target sets are ranges, so membership is O(1) and costs no allocation.
_NO_TARGETS = range(0)

# A shape entry: a constant, or (a, b, c, d) for (a*n + b*lam + c)/d.
_Entry = int | tuple[int, int, int, int]
# A target-range end: (a, c, d) for (a*n + c)/d.
_End = tuple[int, int, int]


def _exact(value: int, divisor: int) -> int:
    quotient, rem = divmod(value, divisor)
    if rem:
        raise ParityViolationError(
            f"polynomial value {value} is not divisible by {divisor}"
        )
    return quotient


@dataclass(frozen=True)
class FamilySpec:
    """A registry row, as plain data that its methods read.

    With n_class = (modulus, residue), the family serves n = residue (mod
    modulus) from n_min on.  targets(n), its whole admissibility, runs
    from low, rounded up, to high, rounded down, keeping only lam =
    lam_parity (mod 2) if that is given.  build(n, lam) is its shape,
    CompactPartition(head, twos, ones) with every entry evaluated at
    (n, lam); an entry that does not divide exactly raises
    ParityViolationError.  forms, if given, are the coefficients of
    closed_forms(n, lam).
    """

    family: FamilyId
    group: str  # "S1", "S2", "A1", "A2" (Zero counts as S1 for bounds)
    n_class: tuple[int, int]
    n_min: int
    low: _End
    high: _End
    head: tuple[_Entry, ...]
    twos: _Entry
    ones: _Entry
    lam_parity: int | None = None
    forms: tuple[int, int, int, int] | None = None
    # every shape entry as (a, b, c, d), normalised once, not on each build
    _coefficients: tuple[tuple[int, int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        coefficients = tuple(
            (0, 0, entry, 1) if isinstance(entry, int) else entry
            for entry in (*self.head, self.twos, self.ones)
        )
        object.__setattr__(self, "_coefficients", coefficients)

    def targets(self, n: int) -> range:
        """The targets the family covers at n (may be empty)."""
        modulus, residue = self.n_class
        if n < self.n_min or n % modulus != residue:
            return _NO_TARGETS
        (low_a, low_c, low_d), (high_a, high_c, high_d) = self.low, self.high
        start = -(-(low_a * n + low_c) // low_d)
        stop = (high_a * n + high_c) // high_d + 1
        if self.lam_parity is None:
            return range(start, stop)
        return range(start + (start - self.lam_parity) % 2, stop, 2)

    def build(self, n: int, lam: int) -> CompactPartition:
        """The shape at (n, lam); the caller has checked lam in targets(n)."""
        values: list[int] = []
        for a, b, c, d in self._coefficients:
            value = a * n + b * lam + c
            if value % d:
                i, heads = len(values), len(self.head)
                name = f"head[{i}]" if i < heads else ("twos", "ones")[i - heads]
                raise ParityViolationError(
                    f"{self.family.value}: {name} = ({a}n + {b}lam + {c})/{d} "
                    f"is not an integer at n = {n}, target {lam}"
                )
            values.append(value // d)
        return CompactPartition(tuple(values[:-2]), values[-2], values[-1])

    def closed_forms(self, n: int, lam: int) -> tuple[int, int] | None:
        """(head eigenvalue, tail deduction) as eighths of quadratics, or
        None for a row that publishes no forms.

        An S2 row's forms (h_n, h_nl, h_c, h_l) give head = (n^2 + h_nl*n*lam
        + h_n*n + 2*lam^2 + h_l*lam + h_c)/8 and deduction = head - lam; an
        A1/A2 row's (h_n, h_c, f_n, f_c) give head = (n^2 + h_n*n + h_c)/8
        and deduction = (n^2 + f_n*n + f_c)/8.
        """
        if self.forms is None:
            return None
        if self.group == "S2":
            h_n, h_nl, h_c, h_l = self.forms
            head = _exact(
                n * n + h_nl * n * lam + h_n * n + 2 * lam * lam + h_l * lam + h_c, 8
            )
            return head, head - lam
        h_n, h_c, f_n, f_c = self.forms
        return _exact(n * n + h_n * n + h_c, 8), _exact(n * n + f_n * n + f_c, 8)


class _Zero(FamilySpec):
    """Zero, by hand: no n = 2 (T_2 has no eigenvalue 0), its shape
    switches on the parity of n, and at n = 1 it is (1), which a head
    cannot hold.  Its fields hold target 0 and the shape of odd n >= 3."""

    def targets(self, n: int) -> range:
        return _NO_TARGETS if n == 2 else super().targets(n)

    def build(self, n: int, lam: int) -> CompactPartition:
        if n % 2 == 0:
            return CompactPartition((n // 2,), 1, (n - 4) // 2)
        if n == 1:
            return CompactPartition((), 0, 1)
        return super().build(n, lam)


_ODD = (2, 1)
_EVEN = (2, 0)


def _row(
    family: FamilyId,
    group: str,
    parity: int,
    n_min: int,
    target: _End,
    head: tuple[_Entry, ...],
    ones: _Entry,
    forms: tuple[int, int, int, int],
) -> FamilySpec:
    """An A1/A2 row of odd or even n: one target, a shape in n, no 2-run."""
    return FamilySpec(
        family, group, (2, parity), n_min, target, target, head, 0, ones, forms=forms
    )


F = FamilyId
_REGISTRY_ROWS: tuple[FamilySpec, ...] = (
    _Zero(
        F.ZERO, "S1", (1, 0), 1, (0, 0, 1), (0, 0, 1),
        ((1, 0, 1, 2),), 0, (1, 0, -1, 2),
    ),
    # S1 low and mid: the targets below and above the crossover
    # (n - 3)//4 + 1; on even n, S1_one_even takes target 1
    FamilySpec(
        F.S1_LOW_ODD, "S1", _ODD, 7, (0, 1, 1), (1, -3, 4),
        ((1, -2, 1, 2), (0, 1, 2, 1)), (0, 1, -1, 1), (1, -4, -1, 2),
    ),
    FamilySpec(
        F.S1_ONE_EVEN, "S1", _EVEN, 14, (0, 1, 1), (0, 1, 1),
        ((1, 0, -6, 2), 4, 4), 1, (1, 0, -14, 2),
    ),
    FamilySpec(
        F.S1_LOW_EVEN, "S1", _EVEN, 12, (0, 2, 1), (1, -4, 4),
        ((1, -2, 0, 2), (0, 1, 2, 1), 3), (0, 1, -2, 1), (1, -4, -2, 2),
    ),
    FamilySpec(
        F.S1_MID_ODD, "S1", _ODD, 5, (1, 3, 4), (1, -1, 2),
        ((0, 1, 1, 1), (1, -2, 3, 2)), (1, -2, -1, 2), (-1, 4, -3, 2),
    ),
    FamilySpec(
        F.S1_MID_EVEN, "S1", _EVEN, 10, (1, 2, 4), (1, -4, 2),
        ((0, 1, 1, 1), (1, -2, 2, 2), 3), (1, -2, -4, 2), (-1, 4, -2, 2),
    ),
    # S1 special: the crossover target alone, one shape per n mod 4
    FamilySpec(
        F.S1_SPECIAL_MOD0, "S1", (4, 0), 20, (1, 0, 4), (1, 0, 4),
        ((1, 0, 0, 4), (1, 0, 0, 4), 5, 4), (1, 0, -20, 4), 1,
    ),
    FamilySpec(
        F.S1_SPECIAL_MOD1, "S1", (4, 1), 13, (1, -1, 4), (1, -1, 4),
        ((1, 0, 3, 4), (1, 0, 3, 4), 4), (1, 0, -13, 4), 1,
    ),
    FamilySpec(
        F.S1_SPECIAL_MOD2, "S1", (4, 2), 22, (1, -2, 4), (1, -2, 4),
        ((1, 0, 2, 4), (1, 0, -2, 4), 5, 4), (1, 0, -22, 4), 2,
    ),
    FamilySpec(
        F.S1_SPECIAL_MOD3, "S1", (4, 3), 19, (1, 1, 4), (1, 1, 4),
        ((1, 0, 1, 4), (1, 0, 1, 4), 5, 3), (1, 0, -19, 4), 1,
    ),
    # S2: one case per parity of n and of the target
    FamilySpec(
        F.S2_CASE1, "S2", _ODD, 11, (1, 3, 2), (1, -4, 1),
        ((0, 1, 3, 2), (1, -1, 2, 2), 3), (1, -1, -4, 2), (-1, 2, -3, 2),
        lam_parity=1, forms=(-2, -2, -29, 6),
    ),
    FamilySpec(
        F.S2_CASE2, "S2", _ODD, 21, (1, 7, 2), (1, -7, 1),
        ((0, 1, 0, 2), (1, -1, 3, 2), 5), (1, -1, -3, 2), (-1, 2, -7, 2),
        lam_parity=0, forms=(0, -2, -9, -2),
    ),
    FamilySpec(
        F.S2_CASE3, "S2", _EVEN, 6, (1, 4, 2), (1, -1, 1),
        ((0, 1, 3, 2), (1, -1, 3, 2)), (1, -1, -1, 2), (-1, 2, -4, 2),
        lam_parity=1, forms=(0, -2, -6, 4),
    ),
    FamilySpec(
        F.S2_CASE4, "S2", _EVEN, 16, (1, 4, 2), (1, -6, 1),
        ((0, 1, 2, 2), (1, -1, 2, 2), 4), (1, -1, -4, 2), (-1, 2, -4, 2),
        lam_parity=0, forms=(-2, -2, -24, 4),
    ),
    # A1: the three targets straddling n/2
    _row(F.A1_ROW1_ODD, "A1", 1, 25, (1, 1, 2), ((1, 0, -11, 2), 7, 4, 3, 3),
         (1, 0, -23, 2), (-24, 119, -28, 115)),
    _row(F.A1_ROW2_ODD, "A1", 1, 9, (1, 3, 2), ((1, 0, -1, 2), 4),
         (1, 0, -7, 2), (-4, 19, -8, 7)),
    _row(F.A1_ROW3_ODD, "A1", 1, 13, (1, 5, 2), ((1, 0, -3, 2), 5, 2),
         (1, 0, -11, 2), (-8, 31, -12, 11)),
    _row(F.A1_ROW1_EVEN, "A1", 0, 32, (1, -2, 2), ((1, 0, -16, 2), 8, 5, 4, 3, 3),
         (1, 0, -30, 2), (-34, 232, -38, 240)),
    _row(F.A1_ROW2_EVEN, "A1", 0, 2, (1, 0, 2), ((1, 0, 2, 2),),
         (1, 0, -2, 2), (2, 0, -2, 0)),
    _row(F.A1_ROW3_EVEN, "A1", 0, 28, (1, 2, 2), ((1, 0, -12, 2), 8, 3, 3, 3, 2),
         (1, 0, -26, 2), (-26, 112, -30, 104)),
    # A2: the top seven targets n - 6 .. n
    _row(F.A2_ROW_N_ODD, "A2", 1, 3, (1, 0, 1), ((1, 0, 3, 2),),
         (1, 0, -3, 2), (4, 3, -4, 3)),
    _row(F.A2_ROW_N1_ODD, "A2", 1, 7, (1, -1, 1), ((1, 0, 1, 2), 3),
         (1, 0, -7, 2), (0, -1, -8, 7)),
    _row(F.A2_ROW_N2_ODD, "A2", 1, 11, (1, -2, 1), ((1, 0, -1, 2), 4, 2),
         (1, 0, -11, 2), (-4, -5, -12, 11)),
    _row(F.A2_ROW_N3_ODD, "A2", 1, 9, (1, -3, 1), ((1, 0, 1, 2), 2, 2),
         (1, 0, -9, 2), (0, -33, -8, -9)),
    _row(F.A2_ROW_N4_ODD, "A2", 1, 11, (1, -4, 1), ((1, 0, -1, 2), 3, 3),
         (1, 0, -11, 2), (-4, -21, -12, 11)),
    _row(F.A2_ROW_N5_ODD, "A2", 1, 19, (1, -5, 1), ((1, 0, -7, 2), 5, 5, 3),
         (1, 0, -19, 2), (-16, 55, -24, 95)),
    _row(F.A2_ROW_N6_ODD, "A2", 1, 13, (1, -6, 1), ((1, 0, -1, 2), 3, 2, 2),
         (1, 0, -13, 2), (-4, -61, -12, -13)),
    _row(F.A2_ROW_N_EVEN, "A2", 0, 8, (1, 0, 1), ((1, 0, 0, 2), 4),
         (1, 0, -8, 2), (-2, 16, -10, 16)),
    _row(F.A2_ROW_N1_EVEN, "A2", 0, 6, (1, -1, 1), ((1, 0, 2, 2), 2),
         (1, 0, -6, 2), (2, -8, -6, 0)),
    _row(F.A2_ROW_N2_EVEN, "A2", 0, 20, (1, -2, 1), ((1, 0, -8, 2), 6, 5, 3),
         (1, 0, -20, 2), (-18, 104, -26, 120)),
    _row(F.A2_ROW_N3_EVEN, "A2", 0, 10, (1, -3, 1), ((1, 0, 0, 2), 3, 2),
         (1, 0, -10, 2), (-2, -24, -10, 0)),
    _row(F.A2_ROW_N4_EVEN, "A2", 0, 16, (1, -4, 1), ((1, 0, -4, 2), 5, 3, 2),
         (1, 0, -16, 2), (-10, 0, -18, 32)),
    _row(F.A2_ROW_N5_EVEN, "A2", 0, 14, (1, -5, 1), ((1, 0, -2, 2), 4, 2, 2),
         (1, 0, -14, 2), (-6, -40, -14, 0)),
    _row(F.A2_ROW_N6_EVEN, "A2", 0, 12, (1, -6, 1), ((1, 0, 0, 2), 2, 2, 2),
         (1, 0, -12, 2), (-2, -72, -10, -24)),
)
del F

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
#   for even n.
# A2_row_n-6_even is left out: for every even n >= 16 S2_case4 covers n-6,
# so it would never serve a query.  It stays in the registry and is swept.
_DISPATCH_ORDER: tuple[FamilyId, ...] = (
    *_group("S1"),
    *_group("A1"),
    *(family for family in _group("A2") if family is not FamilyId.A2_ROW_N6_EVEN),
    *_group("S2"),
)


def family_spec(family: FamilyId | str) -> FamilySpec:
    """The registry row of a FamilyId or of its value; any other name
    raises InvalidArgumentError."""
    if type(family) is not FamilyId:
        try:
            family = FamilyId(family)
        except ValueError:
            raise InvalidArgumentError(f"unknown family {family!r}") from None
    return FAMILY_REGISTRY[family]


def family_targets(family: FamilyId | str, n: int) -> range:
    """Eigenvalue targets the family covers at this n (may be empty)."""
    return family_spec(family).targets(n)


def build_family(family: FamilyId | str, n: int, lam: int) -> CompactPartition:
    """Build the family's shape after checking (n, lam) admissibility."""
    spec = family_spec(family)
    if lam not in spec.targets(n):
        raise OutOfFamilyRangeError(
            f"{spec.family.value} does not cover target {lam} at n = {n}"
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
    """(family, targets at n) in dispatch order."""
    return [(family, FAMILY_REGISTRY[family].targets(n)) for family in _DISPATCH_ORDER]


def _first_covering(
    ranges: list[tuple[FamilyId, range]], lam: int
) -> FamilyId | None:
    for family, targets in ranges:
        if lam in targets:
            return family
    return None


def _scan_family(n: int, lam: int) -> FamilyId | None:
    """The reference the tests hold the table to: the first family in
    dispatch order whose targets at n contain lam, or None."""
    return _first_covering(_dispatch_ranges(n), lam)


# --- dispatch cells ----------------------------------------------------------
#
# Fix the class (n mod 8, lam mod 2).  Every range endpoint is a rounded
# quotient (a*n + c)/d with d in {1, 2, 4}: the registry rows are affine by
# construction, and Zero's endpoints are constant.  The cell derivation
# relies on that: within the class each endpoint, and with it each point
# where the first covering family changes, is affine in n.  The targets of
# one parity therefore split into cells [start_i, start_{i+1}) with one
# owner each and starts affine in n, and a query is a bisect over the
# starts.  The cells are read off the range endpoints at two sample n per
# class and checked there against each other; tests compare the bisect
# with the reference scan.

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
    """(partition, chain), not yet verified, from the first family in
    dispatch order that covers lam.  Requires n >= LINEAR_MIN_N."""
    family = _table_family(n, lam)
    if family is None:
        raise OutOfFamilyRangeError(f"no family covers target {lam} at n = {n}")
    return _family_partition(family, n, lam), (family.value,)


def zero_witness(n: int) -> Partition:
    """A self-conjugate partition of n with eigenvalue 0.

    Exists for every n >= 1 except n = 2 (T_2 = K_2 has spectrum {-1, 1}).
    """
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
