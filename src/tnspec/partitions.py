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

Witnesses of the segment theorems are a short head followed by long runs
of 2s and 1s, so a Partition with RUN_PATH_MIN_PARTS parts or more holds
only its runs of equal parts, and validation, the flat formula and
conjugation step once per run rather than once per part: their Python
work is O(runs), and whatever O(n) work is left runs inside builtins.
Below RUN_PATH_MIN_PARTS a Partition holds its tuple, and validation and
the flat formula use the per-part loops, which are cheaper there;
conjugation reads runs at every length.  Both forms are the actual
partition, never a CompactPartition, so compact_eigenvalue stays an
independent second evaluation.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import groupby
from operator import mul
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

# From this many parts on, a Partition holds its runs of equal parts, and
# validation and the flat formula step once per run.  On witness shapes (a short head, then runs of 2s and 1s)
# the two paths cross near 24 parts: below, groupby's per-run objects cost
# more than the per-part loops save; above, the run path wins by a margin
# that grows with length (about 4x for the flat formula at 500 parts).
RUN_PATH_MIN_PARTS = 24


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


class Partition:
    """A partition: a nonincreasing tuple of positive integers.

    The empty partition (of n = 0) is allowed so that degenerate tails in
    recursive decompositions have a value; ``make_partition`` is stricter
    and rejects it for user-facing input.

    Below RUN_PATH_MIN_PARTS parts the partition holds its tuple.  From
    there on it holds only its runs of equal parts, as a flat tuple
    (value, count, value, count, ...), and ``parts`` rebuilds the tuple on
    each access.  A witness for n = 1000 is then a few integers, not a
    tuple of about a thousand.  That matters to callers that keep many
    witnesses: CPython's cyclic garbage collector walks every slot of each
    new tuple once, so each collection of its youngest generation would
    walk the parts of the last hundred-odd witnesses, and the call it lands
    in would take several times its usual time.  Which form is held depends
    only on the length; equality, hashing and repr are those of the tuple.
    """

    __slots__ = ("_parts", "_runs", "n")

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        if len(parts) < RUN_PATH_MIN_PARTS:
            runs = None
            steps: Iterable[int] = parts
        else:
            # a run of equal parts is valid iff its first part is, so the
            # long path checks one part per run and names the same part
            runs = _runs_of(parts)
            steps = runs[::2]
        previous = None
        for part in steps:
            if part <= 0:
                raise NonPositivePartError(f"part {part} is not positive")
            if previous is not None and part > previous:
                raise NotNonincreasingError(
                    f"parts {parts} are not nonincreasing (no implicit sorting)"
                )
            previous = part
        _set(self, "_parts", parts if runs is None else None)
        _set(self, "_runs", runs)
        _set(self, "n", sum(parts))

    @property
    def parts(self) -> tuple[int, ...]:
        runs = self._runs
        if runs is None:
            return self._parts
        return _parts_of(zip(runs[::2], runs[1::2]))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[tuple[int, ...]]]:
        return Partition, (self.parts,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Partition:
            return NotImplemented
        if (self._runs is None) is (other._runs is None):
            return self._runs == other._runs and self._parts == other._parts
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts, self.n))

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r}, n={self.n!r})"

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        if self._runs is None:
            return len(self._parts)
        return sum(self._runs[1::2])

    def __getitem__(self, index: int) -> int:
        return self.parts[index]

    @property
    def first_part(self) -> int:
        """Largest part; 0 for the empty partition."""
        if self._runs is not None:
            return self._runs[0]
        return self._parts[0] if self._parts else 0

    def __str__(self) -> str:
        runs = self._runs
        if runs is None:
            return " ".join(str(part) for part in self._parts) if self.n else "()"
        # one join per run, not one generator step per part
        pairs = zip(runs[::2], runs[1::2])
        return " ".join([" ".join([str(value)] * count) for value, count in pairs])


_new = object.__new__
_set = object.__setattr__


def _runs_of(parts: Iterable[int]) -> tuple[int, ...]:
    """(value, count, value, count, ...) for the runs of equal consecutive
    parts, in order."""
    runs: list[int] = []
    for value, run in groupby(parts):
        runs += (value, len(list(run)))
    return tuple(runs)


def _from_runs(pairs: list[tuple[int, int]]) -> Partition:
    """The Partition whose parts are `count` (>= 0) copies of each `value`,
    in order, built in O(runs): adjacent equal values merge and empty runs
    drop out.  Anything Partition would reject goes through Partition, so
    the error is the one the tuple raises."""
    runs: list[int] = []
    for value, count in pairs:
        if not count:
            continue
        if value <= 0 or (runs and value > runs[-2]):
            return Partition(_parts_of(pairs))
        if runs and value == runs[-2]:
            runs[-1] += count
        else:
            runs += (value, count)
    values, counts = runs[::2], runs[1::2]
    partition = _new(Partition)
    if sum(counts) < RUN_PATH_MIN_PARTS:
        _set(partition, "_parts", _parts_of(zip(values, counts)))
        _set(partition, "_runs", None)
    else:
        _set(partition, "_parts", None)
        _set(partition, "_runs", tuple(runs))
    _set(partition, "n", sum(map(mul, values, counts)))
    return partition


def _parts_of(pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The parts: `count` copies of each `value`, in order."""
    parts: list[int] = []
    for value, count in pairs:
        parts += (value,) * count
    return tuple(parts)


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

    From RUN_PATH_MIN_PARTS parts on, the sum of n_j(n_j - 2j + 1) is taken
    per run of equal consecutive parts: a run of `size` copies of v starting
    at position j contributes size*v*(v - 2j - size + 2) in closed form.
    The runs are those of the sequence as given, so the result equals the
    per-part sum for any sequence.
    """
    if len(parts) < RUN_PATH_MIN_PARTS:
        doubled = 0
        for j, part in enumerate(parts, start=1):
            doubled += part * (part - 2 * j + 1)
        return _exact_half(doubled)
    return _exact_half(_runs_doubled(_runs_of(parts)))


def _runs_doubled(runs: tuple[int, ...]) -> int:
    """sum_j n_j (n_j - 2j + 1) over the parts with these runs, per run."""
    doubled = 0
    j = 1
    for value, size in zip(runs[::2], runs[1::2]):
        doubled += size * value * (value - 2 * j - size + 2)
        j += size
    return doubled


def eigenvalue(p: Partition) -> int:
    """The T_n eigenvalue attached to p: sum_j n_j (n_j - 2j + 1) / 2.

    The sum of n_j(n_j - 2j + 1) is always even, so the division is exact;
    a remainder would mean the formula was applied to corrupt data and
    raises ParityViolationError rather than rounding.
    """
    check_formula_n(p.n)
    if p._runs is None:
        return eigenvalue_of_parts(p._parts)
    return _exact_half(_runs_doubled(p._runs))


def conjugate(p: Partition) -> Partition:
    """Conjugate partition (transpose of the Young diagram).

    Row j of the conjugate has length |{i : n_i >= j}|.  Conjugation is an
    involution and negates the eigenvalue: eig(conjugate(p)) = -eig(p).

    A partition below RUN_PATH_MIN_PARTS parts is read run by run: when
    a run of value v follows `count` larger parts of smallest value
    `previous`, rows v+1 .. previous all have length `count`, so each run
    emits the block (count, previous - v) of rows, shortest rows first,
    and the blocks are reversed and joined by _from_runs, never expanded
    into rows.  A longer partition holds its runs, and the conjugate's
    runs are read off them in the same way: with values v_1 > ... > v_r
    holding c_1, ..., c_r parts, rows v_(i+1) + 1 .. v_i all have length
    c_1 + ... + c_i.  Either result is validated like any other Partition.
    """
    if p._runs is None:
        pairs: list[tuple[int, int]] = []
        count = 0
        previous = p.first_part
        for value, run in groupby(p._parts):
            pairs.append((count, previous - value))
            count += len(list(run))
            previous = value
        pairs.append((count, previous))
        pairs.reverse()
        return _from_runs(pairs)
    runs = p._runs
    blocks: list[tuple[int, int]] = []
    length = sum(runs[1::2])
    below = 0
    for value, count in zip(reversed(runs[::2]), reversed(runs[1::2])):
        blocks.append((length, value - below))
        length -= count
        below = value
    return _from_runs(blocks)


def with_head(first: int, tail: Partition) -> Partition:
    """The partition (first, *tail), validated like any other: a first
    part below the tail's raises NotNonincreasingError.  A tail below
    RUN_PATH_MIN_PARTS parts is joined as a tuple; a longer one through
    its runs, in O(runs)."""
    runs = tail._runs
    if runs is None:
        return Partition((first,) + tail._parts)
    return _from_runs([(first, 1), *zip(runs[::2], runs[1::2])])


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
    """Materialize the compact form as an explicit Partition.  From
    RUN_PATH_MIN_PARTS parts on, it is built from the runs in O(head),
    without a tuple of its parts."""
    if compact.head_length + compact.twos + compact.ones < RUN_PATH_MIN_PARTS:
        return Partition(compact.head + (2,) * compact.twos + (1,) * compact.ones)
    pairs = [(value, len(list(run))) for value, run in groupby(compact.head)]
    pairs += ((2, compact.twos), (1, compact.ones))
    return _from_runs(pairs)


def compact_eigenvalue(compact: CompactPartition) -> int:
    """Eigenvalue of the expansion, without expanding.

    With l = len(head), t2 = twos, t1 = ones, appending the tail shifts the
    head contribution not at all and contributes in closed form:

        eig = eig(head) + 3*t2 + t1 - (2l + t2 + 1)*t2
                        - (2l + 2*t2 + t1 + 1)*t1 / 2

    The t1 term is even for every integer t1 (it is t1 times an integer of
    opposite-parity offset), so the division is exact.
    """
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
    return eigenvalue_of_parts(compact.head) + tail_shift
