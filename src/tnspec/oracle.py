"""Ground truth for T_n spectra.

The working oracle is one table of bitsets over (m, max part), built from
the head identity of partitions.py: for a partition p of m - f with parts
at most f,

    eig((f, p)) = C(f, 2) + eig(p) - (m - f).

Entry S[m][f] is a Python int whose bit e + C(m, 2) is set when some
partition of m with parts at most f has eigenvalue e.  Since
C(m, 2) = C(f, 2) + C(m - f, 2) + f(m - f), the identity moves every bit
of S[m - f][min(f, m - f)] up by exactly (f - 1) * m, so

    S[m][f] = S[m][f - 1] | (S[m - f][min(f, m - f)] << (f - 1) * m).

One table, grown on demand to the largest n asked for, serves every
spectrum(n, max_first_part).  A witness is read by walking the table back,
taking at each step the largest head whose remainder still has the needed
bit: that is the lexicographically largest partition with the eigenvalue,
the first one in reverse-lexicographic order.  Witnesses are walked only
when asked for.  The table's memory grows like N^4 (2.4 MiB at N = 100,
37 MiB at N = 200, 186 MiB at N = 300), so the oracle answers only
n <= TABLE_MAX_N = 200.

Two checks share no code with the table:

* enumerate_partitions, which yields the partitions of n themselves in
  reverse-lexicographic order (and whose count partition_count checks by
  Euler's pentagonal recurrence); the tests compare its first witness per
  eigenvalue with the table's;
* cayley_spectrum, which multiplies real permutations by transpositions
  and certifies the eigenvalues of T_n in exact integers, independent of
  all partition formulas: one product prod_e (A - e) delta_id certifies
  that every eigenvalue is an integer, and the moments
  m_j = (A^j delta_id)[id], computed once, decide each candidate by a dot
  product; it walks all n! permutations, so it stops at n = 6.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator

from .errors import (
    IntegerRoundingError,
    InvalidArgumentError,
    SizeLimitError,
)
from .partitions import Partition, choose2

# The oracle's one bound, on the table and the enumerator alike: at 200 the
# table holds 37 MiB of bitsets and builds in ~0.05 s; at 300 it would hold
# 186 MiB.
TABLE_MAX_N = 200
CAYLEY_MAX_N = 6
PARTITION_COUNT_MAX_N = 10_000


@dataclass(frozen=True)
class EnumerationConstraints:
    """Optional caps on partitions.

    max_first_part bounds every part; None means unconstrained.  No oracle
    supports a length cap: spectrum and enumerate_partitions refuse a
    max_length below n.  The field stays because callers key their caches
    on it.
    """

    max_first_part: int | None = None
    max_length: int | None = None


@dataclass(frozen=True)
class SpectrumSet:
    """Distinct eigenvalues of (possibly constrained) partitions of n.

    bits has bit e + C(n, 2) set for each eigenvalue e; values lists them
    ascending.  walk_back maps a value in the set to its witness, the first
    partition attaining it in reverse-lexicographic order; None means the
    source knows no partitions (the Cayley operator).
    """

    n: int
    bits: int = field(repr=False)
    walk_back: Callable[[int], Partition] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def values(self) -> tuple[int, ...]:
        offset = choose2(self.n)
        digits = bin(self.bits)[:1:-1]  # digits[i] is bit i
        return tuple(i - offset for i, digit in enumerate(digits) if digit == "1")

    @cached_property
    def witnesses(self) -> dict[int, Partition] | None:
        if self.walk_back is None:
            return None
        return {value: self.walk_back(value) for value in self.values}

    def __contains__(self, value: int) -> bool:
        index = value + choose2(self.n)
        return index >= 0 and self.bits >> index & 1 == 1

    def witness(self, value: int) -> Partition | None:
        if self.walk_back is None or value not in self:
            return None
        return self.walk_back(value)

    def to_json_dict(self, with_witnesses: bool = True) -> dict:
        payload: dict = {"n": self.n, "values": list(self.values)}
        if with_witnesses and self.witnesses is not None:
            payload["witnesses"] = {
                str(value): list(partition.parts)
                for value, partition in sorted(self.witnesses.items())
            }
        return payload


_pcount_cache: list[int] = [1]
# _table[m][f] is S[m][f] of the module docstring, for f = 0..m; row 0
# holds the empty partition.  Rows are only appended, whole and under
# _cache_lock, and clear_caches rebinds the name, so a reader that finds
# its row needs no lock and a SpectrumSet's walk_back keeps reading the
# rows it was built from.
_table: list[list[int]] = [[1]]
_cache_lock = threading.Lock()


def partition_count(n: int) -> int:
    """Number of partitions of n, by Euler's pentagonal-number recurrence.

    p(n) = sum_{k >= 1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]

    Exact integers throughout; results are cached.  This is the
    independent check on enumeration counts (it shares no code with the
    enumerator).
    """
    if n < 0:
        raise InvalidArgumentError("partition_count is defined for nonnegative n")
    if n > PARTITION_COUNT_MAX_N:
        raise SizeLimitError(f"n = {n} exceeds supported bound {PARTITION_COUNT_MAX_N}")
    with _cache_lock:
        while len(_pcount_cache) <= n:
            m = len(_pcount_cache)
            total = 0
            k = 1
            while True:
                gen1 = k * (3 * k - 1) // 2
                if gen1 > m:
                    break
                sign = 1 if k % 2 else -1
                total += sign * _pcount_cache[m - gen1]
                gen2 = k * (3 * k + 1) // 2
                if gen2 <= m:
                    total += sign * _pcount_cache[m - gen2]
                k += 1
            _pcount_cache.append(total)
        return _pcount_cache[n]


def _iter_parts(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples summing to `remaining`, reverse-lexicographic."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, max_part), 0, -1):
        for tail in _iter_parts(remaining - first, first):
            yield (first,) + tail


def _checked_caps(n: int, constraints: EnumerationConstraints | None) -> int:
    """The first-part cap clipped to n, once n and the caps pass.

    n must lie in 1..TABLE_MAX_N; above it SizeLimitError.  The bound also
    keeps the enumerator's recursion, n levels deep, far below Python's
    limit.  A first-part cap below 1 admits no partition of n >= 1, so it
    is rejected rather than answered with an empty result; a length cap
    below n is rejected because no oracle supports one.
    """
    if n < 1:
        raise InvalidArgumentError(f"the oracle needs n >= 1, got {n}")
    if n > TABLE_MAX_N:
        raise SizeLimitError(f"n = {n} exceeds the oracle bound {TABLE_MAX_N}")
    if constraints is None:
        return n
    cap = constraints.max_first_part
    if cap is not None and cap < 1:
        raise InvalidArgumentError(f"max_first_part must be at least 1, got {cap}")
    if constraints.max_length is not None and constraints.max_length < n:
        raise InvalidArgumentError("length caps are not supported")
    return n if cap is None else min(cap, n)


def enumerate_partitions(
    n: int, constraints: EnumerationConstraints | None = None
) -> Iterator[Partition]:
    """Yield every partition of n (within constraints), largest-first.

    Order is reverse-lexicographic: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    It walks all p(n) partitions, so it serves as the table's independent
    check on small n; like the table, it refuses n > TABLE_MAX_N.
    """
    for parts in _iter_parts(n, _checked_caps(n, constraints)):
        yield Partition(parts)


def _grown_table(n: int) -> list[list[int]]:
    """The shared table, with rows 0..n built.

    A table that already holds row n is read without the lock: rows are
    appended whole, and clear_caches rebinds the name instead of emptying
    the list.
    """
    table = _table
    if len(table) > n:
        return table
    with _cache_lock:
        table = _table
        for m in range(len(table), n + 1):
            row = [0]
            for head in range(1, m + 1):
                rest = m - head
                row.append(row[-1] | table[rest][min(head, rest)] << (head - 1) * m)
            table.append(row)
        return table


def _walk_back(table: list[list[int]], n: int, max_part: int, value: int) -> Partition:
    """Lexicographically largest partition of n, parts <= max_part, with
    eigenvalue `value`; the caller has checked that one exists."""
    parts = []
    m, head, bit = n, max_part, value + choose2(n)
    while m:
        # A head above bit // m + 1 would need a negative remainder bit.
        # Since bit <= m(m - 1), that bound also keeps the head <= m.
        head = min(head, bit // m + 1)
        bit -= (head - 1) * m
        while True:
            rest = m - head
            if table[rest][head if head < rest else rest] >> bit & 1:
                break
            head -= 1
            bit += m
        parts.append(head)
        m = rest
    return Partition(tuple(parts))


def spectrum(
    n: int, constraints: EnumerationConstraints | None = None
) -> SpectrumSet:
    """Spectrum of T_n restricted to partitions with parts <= max_first_part.

    Read from the shared table, which is grown to n on first use; values
    and witnesses are derived from it only when asked for.  The witness of
    a value is the first partition attaining it in reverse-lexicographic
    order, the one enumerate_partitions would reach first.  n above
    TABLE_MAX_N raises SizeLimitError, and a length cap below n
    InvalidArgumentError.
    """
    max_first = _checked_caps(n, constraints)
    table = _grown_table(n)
    return SpectrumSet(n, table[n][max_first], partial(_walk_back, table, n, max_first))


def contains(n: int, value: int) -> tuple[bool, Partition | None]:
    """Is `value` an eigenvalue of T_n?  Returns (answer, witness or None).

    One bit test in the shared table, plus one walk back when the value is
    present.
    """
    witness = spectrum(n).witness(value)
    return witness is not None, witness


def clear_caches() -> None:
    """Drop the spectrum table and the partition counts (for tests and
    memory control)."""
    global _table
    with _cache_lock:
        _table = [[1]]
        del _pcount_cache[1:]


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation of range(len(perm)), nonincreasing."""
    lengths, seen = [], set()
    for point in perm:
        length = 0
        while point not in seen:
            seen.add(point)
            point, length = perm[point], length + 1
        lengths.append(length)
    return tuple(sorted(filter(None, lengths), reverse=True))


def _class_operator(n: int) -> list[list[int]]:
    """A on class functions of S_n: rows[i] lists, per transposition (a b),
    the class of g * (a b) for one g of class i.  Class 0 is the identity."""
    # permutations() yields the identity first, so class 0 is the identity
    representatives = {_cycle_type(g): g for g in itertools.permutations(range(n))}
    index = {cycle_type: i for i, cycle_type in enumerate(representatives)}
    return [
        [
            index[_cycle_type(g[:a] + (g[b],) + g[a + 1 : b] + (g[a],) + g[b + 1 :])]
            for a, b in itertools.combinations(range(n), 2)
        ]
        for g in representatives.values()
    ]


def _shifted(rows: list[list[int]], vector: list[int], e: int) -> list[int]:
    """(A - e) vector."""
    return [sum(vector[j] for j in row) - e * x for row, x in zip(rows, vector)]


def _identity_moments(rows: list[list[int]], count: int) -> list[int]:
    """m_j = (A^j delta_id)[id], the closed walks of length j at the
    identity, for j < count."""
    vector = [1] + [0] * (len(rows) - 1)
    moments = []
    for _ in range(count):
        moments.append(vector[0])
        vector = _shifted(rows, vector, 0)
    return moments


def _identity_entries(rows: list[list[int]], candidates: range) -> list[int]:
    """Per candidate e, the identity entry of prod_{e' != e} (A - e') delta_id,
    with e' over candidates: sum_j q_j m_j, for the coefficients q_j of
    q(x) = f(x) / (x - e) and f(x) = prod_{e'} (x - e')."""
    size = len(candidates)
    moments = _identity_moments(rows, size)
    # f[i] is the coefficient of x^i in f
    f = [1]
    for e in candidates:
        f = [lower - e * upper for lower, upper in zip([0] + f, f + [0])]
    entries = []
    for e in candidates:
        # synthetic division: q_{j-1} = f_j + e q_j, from q_{size-1} = f_size
        entry = coefficient = 0
        for j in range(size, 0, -1):
            coefficient = f[j] + e * coefficient
            entry += coefficient * moments[j - 1]
        entries.append(entry)
    return entries


def cayley_spectrum(n: int) -> SpectrumSet:
    """Distinct eigenvalues of the T_n adjacency operator A, in exact
    integers, from real permutations and no partition formula.

    The transpositions are closed under conjugation, so A maps class
    functions to class functions: one permutation per cycle type, times
    each of the C(n, 2) transpositions, gives A on vectors of length p(n).
    With top = C(n, 2), prod_{e=-top..top} (A - e) delta_id = 0 certifies
    that every eigenvalue is an integer in [-top, top]; otherwise
    IntegerRoundingError.  A candidate e is an eigenvalue exactly when the
    identity entry of prod_{e' != e} (A - e') delta_id is nonzero, and that
    entry is one dot product with the moments m_j = (A^j delta_id)[id],
    computed once (_identity_entries): about 2K products of A with a vector
    for the K = 2 top + 1 candidates, not K^2.  No witnesses: the operator
    knows no partitions.
    """
    if n < 1:
        raise InvalidArgumentError("Cayley graph needs n >= 1")
    if n > CAYLEY_MAX_N:  # it walks all n! permutations
        raise SizeLimitError(f"Cayley computation is limited to n <= {CAYLEY_MAX_N}")
    rows = _class_operator(n)
    top = choose2(n)
    candidates = range(-top, top + 1)
    vector = [1] + [0] * (len(rows) - 1)
    for e in candidates:
        vector = _shifted(rows, vector, e)
    if any(vector):
        raise IntegerRoundingError(f"T_{n} has an eigenvalue not in -{top}..{top}")
    # T_n is vertex-transitive, so every eigenspace projector has diagonal
    # mult / n! > 0: the identity entry of prod_{e' != e} (A - e') delta_id,
    # mult(e) / n! * prod_{e' != e} (e - e'), is nonzero iff e is an eigenvalue.
    bits = 0
    for e, entry in zip(candidates, _identity_entries(rows, candidates)):
        if entry:
            bits |= 1 << (e + top)
    return SpectrumSet(n, bits)
