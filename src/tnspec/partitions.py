"""Integer partitions and the eigenvalues of the transposition graph.

The transposition graph T_n is the Cayley graph of the symmetric group
Sym(n) generated by all n(n-1)/2 transpositions.  Its eigenvalues are
integers indexed by the partitions of n: the partition
p = (n_1, n_2, ..., n_k) contributes

    eig(p) = sum_j n_j * (n_j - 2j + 1) / 2

This module implements that formula with exact integer arithmetic, plus
the two identities everything else is built on:

* conjugation (transposing the Young diagram) negates the eigenvalue, so
  the spectrum is symmetric about zero and self-conjugate partitions land
  exactly on 0;
* splitting off the first part n_1 gives
  eig((n_1, p_1)) = C(n_1, 2) + eig(p_1) - (n - n_1)
  whenever p_1 is a partition of n - n_1 with first part at most n_1.

A run-length "compact" form (head, number of 2s, number of 1s) is provided
for families whose members end in long 2- and 1-tails; its eigenvalue
reduces to the head's eigenvalue minus an explicit deduction, evaluated
without ever expanding the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    FormulaOverflowError,
    HeadTooSmallError,
    NonPositivePartError,
    NotNonincreasingError,
    ParityViolationError,
    PartitionError,
    SumMismatchError,
)

# Eigenvalue formulas are exact at any size (Python integers), but inputs
# beyond this bound are rejected so that downstream consumers may assume
# values fit comfortably in signed 64 bits.
MAX_FORMULA_N = 100_000


def check_formula_n(n: int) -> None:
    """Refuse n above MAX_FORMULA_N with FormulaOverflowError."""
    if n > MAX_FORMULA_N:
        raise FormulaOverflowError(
            f"n = {n} exceeds the configured bound {MAX_FORMULA_N}"
        )


def choose2(m: int) -> int:
    """Binomial coefficient C(m, 2) = m(m-1)/2, the largest eigenvalue of T_m."""
    return m * (m - 1) // 2


def _exact_half(value: int) -> int:
    """value / 2 when value is even; raises instead of truncating."""
    half, rem = divmod(value, 2)
    if rem:
        raise ParityViolationError(f"expression {value} is not divisible by 2")
    return half


@dataclass(frozen=True)
class Partition:
    """A partition: a nonincreasing tuple of positive integers.

    The empty partition (of n = 0) is allowed so that degenerate tails in
    recursive decompositions have a value; ``make_partition`` is stricter
    and rejects it for user-facing input.
    """

    parts: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        previous = None
        for part in parts:
            if part <= 0:
                raise NonPositivePartError(f"part {part} is not positive")
            if previous is not None and part > previous:
                raise NotNonincreasingError(
                    f"parts {parts} are not nonincreasing (no implicit sorting)"
                )
            previous = part
        object.__setattr__(self, "n", sum(parts))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, index: int) -> int:
        return self.parts[index]

    @property
    def first_part(self) -> int:
        """Largest part; 0 for the empty partition."""
        return self.parts[0] if self.parts else 0

    def __str__(self) -> str:
        return " ".join(str(part) for part in self.parts) if self.parts else "()"


EMPTY_PARTITION = Partition(())


def make_partition(parts: Iterable[int]) -> Partition:
    """Validate user input as a nonempty partition.

    Parts must already be nonincreasing and positive; nothing is sorted or
    dropped on the caller's behalf.  A sum above MAX_FORMULA_N raises
    FormulaOverflowError, so no CLI command builds an oversized partition.
    """
    partition = Partition(tuple(parts))
    if not partition.parts:
        raise PartitionError("a partition needs at least one part")
    check_formula_n(partition.n)
    return partition


def eigenvalue_of_parts(parts: Sequence[int]) -> int:
    """Eigenvalue formula on a raw part sequence (no validation).

    For callers whose parts are nonincreasing by construction, such as
    tests that walk enumerated tuples, where wrapping each tuple in a
    Partition would dominate the running time.
    """
    doubled = 0
    for j, part in enumerate(parts, start=1):
        doubled += part * (part - 2 * j + 1)
    return _exact_half(doubled)


def eigenvalue(p: Partition) -> int:
    """The T_n eigenvalue attached to p: sum_j n_j (n_j - 2j + 1) / 2.

    The sum of n_j(n_j - 2j + 1) is always even, so the division is exact;
    a remainder would mean the formula was applied to corrupt data and
    raises ParityViolationError rather than rounding.
    """
    check_formula_n(p.n)
    return eigenvalue_of_parts(p.parts)


def conjugate(p: Partition) -> Partition:
    """Conjugate partition (transpose of the Young diagram).

    Row j of the conjugate has length |{i : n_i >= j}|.  Conjugation is an
    involution and negates the eigenvalue: eig(conjugate(p)) = -eig(p).
    """
    if not p.parts:
        return EMPTY_PARTITION
    rows = []
    for j in range(1, p.parts[0] + 1):
        count = 0
        for part in p.parts:
            if part >= j:
                count += 1
            else:
                break
        rows.append(count)
    return Partition(tuple(rows))


def eigenvalue_via_head(first: int, tail: Partition, n: int) -> int:
    """Eigenvalue of (first, *tail) computed from the tail's eigenvalue.

    Requires first + sum(tail) == n and tail.first_part <= first, i.e.
    prepending ``first`` must again be a partition.  Then

        eig((first, tail)) = C(first, 2) + eig(tail) - (n - first).

    The tail may be empty (n = first), in which case this is C(n, 2).
    """
    if first <= 0:
        raise NonPositivePartError(f"leading part {first} is not positive")
    if first + tail.n != n:
        raise SumMismatchError(
            f"leading part {first} plus tail sum {tail.n} is not n = {n}"
        )
    if tail.first_part > first:
        raise HeadTooSmallError(
            f"leading part {first} is smaller than tail first part {tail.first_part}"
        )
    check_formula_n(n)
    return choose2(first) + eigenvalue(tail) - (n - first)


@dataclass(frozen=True)
class CompactPartition:
    """Run-length form (head, twos, ones) for partitions with long tails.

    ``head`` holds the parts that are at least 2, followed by ``twos``
    copies of 2 and ``ones`` copies of 1.  The head itself may contain 2s
    (the split between head and the 2-run is not unique and never matters
    for the eigenvalue); it must be nonincreasing with every entry >= 2 so
    the expansion is automatically a valid partition.
    """

    head: tuple[int, ...]
    twos: int = 0
    ones: int = 0

    def __post_init__(self) -> None:
        head = tuple(self.head)
        object.__setattr__(self, "head", head)
        previous = None
        for part in head:
            if part < 2:
                raise PartitionError(
                    f"head entry {part} is below 2; route 1s through `ones`"
                )
            if previous is not None and part > previous:
                raise NotNonincreasingError(f"head {head} is not nonincreasing")
            previous = part
        if self.twos < 0 or self.ones < 0:
            raise PartitionError("tail multiplicities must be nonnegative")

    @property
    def n(self) -> int:
        return sum(self.head) + 2 * self.twos + self.ones

    @property
    def head_length(self) -> int:
        return len(self.head)


def expand(compact: CompactPartition) -> Partition:
    """Materialize the compact form as an explicit Partition."""
    return Partition(compact.head + (2,) * compact.twos + (1,) * compact.ones)


def compact_eigenvalue(compact: CompactPartition) -> int:
    """Eigenvalue of the expansion, without expanding.

    With l = len(head), t2 = twos, t1 = ones, appending the tail shifts the
    head contribution not at all and contributes in closed form:

        eig = eig(head) + 3*t2 + t1 - (2l + t2 + 1)*t2
                        - (2l + 2*t2 + t1 + 1)*t1 / 2

    The t1 term is even for every integer t1 (it is t1 times an integer of
    opposite-parity offset), so the division is exact.
    """
    head = Partition(compact.head)
    check_formula_n(compact.n)
    l = compact.head_length
    t2 = compact.twos
    t1 = compact.ones
    tail_shift = (
        3 * t2
        + t1
        - (2 * l + t2 + 1) * t2
        - _exact_half((2 * l + 2 * t2 + t1 + 1) * t1)
    )
    return eigenvalue(head) + tail_shift
