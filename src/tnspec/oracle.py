"""Brute-force ground truth for T_n spectra.

Two independent oracles live here:

* exhaustive enumeration of partitions of n (reverse-lexicographic) with
  the eigenvalue formula applied to each — the working oracle, feasible
  to n around 50..66 on a desktop (p(50) = 204226, p(66) = 2323520);
* the dense Cayley-graph adjacency matrix of T_n with a numeric
  eigensolver — independent of all partition formulas, feasible only to
  n = 6 (720 x 720), used to certify the formula-based path end to end.

Enumeration order is deterministic, so the first witness recorded for
each eigenvalue is reproducible run to run.
"""

from __future__ import annotations

import itertools
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    IntegerRoundingError,
    InvalidArgumentError,
    OracleLimitError,
    SizeLimitError,
)
from .partitions import Partition, eigenvalue_of_parts

DEFAULT_ORACLE_LIMIT = 50
ORACLE_LIMIT_ENV_VAR = "TNSPEC_ORACLE_LIMIT"
CAYLEY_MAX_N = 6
ROUNDING_TOLERANCE = 1e-6
PARTITION_COUNT_MAX_N = 10_000


def resolve_oracle_limit() -> int:
    """Effective enumeration limit: the environment variable
    TNSPEC_ORACLE_LIMIT, else the default (50).

    This is the only place the setting is read.  A value that is not an
    integer, or is below 1, raises OracleLimitError naming the variable.
    Raising it to ~66 keeps runs in the minutes range; beyond that the
    partition count (and memory for witnesses) grows quickly.
    """
    from_env = os.environ.get(ORACLE_LIMIT_ENV_VAR)
    if from_env is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        limit = int(from_env)
    except ValueError:
        raise OracleLimitError(
            f"{ORACLE_LIMIT_ENV_VAR} must be an integer, got {from_env!r}"
        ) from None
    if limit < 1:
        raise OracleLimitError(
            f"{ORACLE_LIMIT_ENV_VAR} must be at least 1, got {from_env!r}"
        )
    return limit


def _check_oracle_limit(n: int) -> None:
    """Refuse enumeration above the effective oracle limit."""
    limit = resolve_oracle_limit()
    if n > limit:
        raise OracleLimitError(
            f"n = {n} exceeds the oracle limit {limit}; "
            f"raise it via {ORACLE_LIMIT_ENV_VAR}"
        )


@dataclass(frozen=True)
class EnumerationConstraints:
    """Optional caps on enumerated partitions.

    max_first_part bounds every part; max_length bounds the number of
    parts.  None means unconstrained.
    """

    max_first_part: int | None = None
    max_length: int | None = None


@dataclass(frozen=True)
class SpectrumSet:
    """Distinct eigenvalues of (possibly constrained) partitions of n.

    values are sorted ascending.  witnesses map each value to the first
    partition encountered in enumeration order that attains it; None means
    the source knows no partitions (the Cayley matrix).
    """

    n: int
    values: tuple[int, ...]
    witnesses: dict[int, Partition] | None = None

    def __contains__(self, value: int) -> bool:
        index = bisect_left(self.values, value)
        return index < len(self.values) and self.values[index] == value

    def witness(self, value: int) -> Partition | None:
        if self.witnesses is None:
            return None
        return self.witnesses.get(value)

    def to_json_dict(self) -> dict:
        payload: dict = {"n": self.n, "values": list(self.values)}
        if self.witnesses is not None:
            payload["witnesses"] = {
                str(value): list(partition.parts)
                for value, partition in sorted(self.witnesses.items())
            }
        return payload


_pcount_cache: list[int] = [1]
_spectrum_cache: dict[tuple[int, int, int | None], SpectrumSet] = {}
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


def _iter_parts(
    remaining: int, max_part: int, slots: int | None
) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples summing to `remaining`, reverse-lexicographic."""
    if remaining == 0:
        yield ()
        return
    if slots is not None and slots <= 0:
        return
    for first in range(min(remaining, max_part), 0, -1):
        if slots is not None and first * slots < remaining:
            # parts below `first` only shrink; no way to reach the target
            break
        rest = None if slots is None else slots - 1
        for tail in _iter_parts(remaining - first, first, rest):
            yield (first,) + tail


def _normalized_key(
    n: int, constraints: EnumerationConstraints | None
) -> tuple[int, int, int | None]:
    max_first = n
    max_length = None
    if constraints is not None:
        if constraints.max_first_part is not None:
            max_first = max(0, min(constraints.max_first_part, n))
        if constraints.max_length is not None:
            max_length = max(0, min(constraints.max_length, n))
    return n, max_first, max_length


def enumerate_partitions(
    n: int, constraints: EnumerationConstraints | None = None
) -> Iterator[Partition]:
    """Yield every partition of n (within constraints), largest-first.

    Order is reverse-lexicographic: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    Enumeration is refused above the oracle limit — the point of the limit
    is to keep "exhaustive" honest about what it can exhaust.
    """
    if n < 1:
        raise InvalidArgumentError("enumeration needs n >= 1")
    _check_oracle_limit(n)
    _, max_first, max_length = _normalized_key(n, constraints)
    for parts in _iter_parts(n, max_first, max_length):
        yield Partition(parts)


def spectrum(
    n: int, constraints: EnumerationConstraints | None = None
) -> SpectrumSet:
    """Exhaustive spectrum of T_n restricted to the constrained partitions.

    Witness per value is the first partition attaining it in enumeration
    order; the result always carries witnesses.  Full results (per
    distinct constraint set) are memoized, so repeated membership queries
    share one enumeration; the cache is thread-safe.
    """
    if n < 1:
        raise InvalidArgumentError("spectrum needs n >= 1")
    _check_oracle_limit(n)
    key = _normalized_key(n, constraints)
    with _cache_lock:
        cached = _spectrum_cache.get(key)
    if cached is not None:
        return cached

    found: dict[int, tuple[int, ...]] = {}
    _, max_first, max_length = key
    for parts in _iter_parts(n, max_first, max_length):
        value = eigenvalue_of_parts(parts)
        if value not in found:
            found[value] = parts
    result = SpectrumSet(
        n,
        tuple(sorted(found)),
        {value: Partition(parts) for value, parts in found.items()},
    )
    with _cache_lock:
        _spectrum_cache[key] = result
    return result


def contains(n: int, value: int) -> tuple[bool, Partition | None]:
    """Is `value` an eigenvalue of T_n?  Returns (answer, witness or None).

    Backed by the memoized full spectrum, so the first call per n pays for
    the enumeration and later calls are lookups.
    """
    spec = spectrum(n)
    if value in spec:
        return True, spec.witness(value)
    return False, None


def clear_caches() -> None:
    """Drop memoized spectra and counts (for tests and memory control)."""
    with _cache_lock:
        _spectrum_cache.clear()
        del _pcount_cache[1:]


def cayley_adjacency(n: int) -> np.ndarray:
    """Dense adjacency matrix of T_n on all n! permutations.

    Vertices are permutations of range(n) in lexicographic order; two are
    adjacent when they differ by one transposition (swap of two positions).
    Hard-limited to n <= 6: n = 7 would need a 5040 x 5040 dense matrix
    and is past the point of this sanity check's usefulness.
    """
    if n < 1:
        raise InvalidArgumentError("Cayley graph needs n >= 1")
    if n > CAYLEY_MAX_N:
        raise SizeLimitError(f"dense Cayley computation is limited to n <= {CAYLEY_MAX_N}")
    perms = list(itertools.permutations(range(n)))
    index = {perm: i for i, perm in enumerate(perms)}
    size = len(perms)
    adjacency = np.zeros((size, size), dtype=np.float64)
    for i, perm in enumerate(perms):
        mutable = list(perm)
        for a in range(n - 1):
            for b in range(a + 1, n):
                mutable[a], mutable[b] = mutable[b], mutable[a]
                adjacency[i, index[tuple(mutable)]] = 1.0
                mutable[a], mutable[b] = mutable[b], mutable[a]
    return adjacency


def cayley_spectrum(n: int) -> SpectrumSet:
    """Distinct eigenvalues of the T_n adjacency matrix, as exact integers.

    The numeric eigenvalues must each sit within 1e-6 of an integer;
    anything worse raises IntegerRoundingError instead of silently
    rounding.  No witnesses: the matrix knows nothing about partitions.
    """
    adjacency = cayley_adjacency(n)
    numeric = np.linalg.eigvalsh(adjacency)
    rounded = np.rint(numeric)
    worst = float(np.max(np.abs(numeric - rounded))) if numeric.size else 0.0
    if worst > ROUNDING_TOLERANCE:
        raise IntegerRoundingError(
            f"eigenvalue {worst:.3e} away from an integer (tolerance {ROUNDING_TOLERANCE})"
        )
    values = tuple(sorted({int(v) for v in rounded}))
    return SpectrumSet(n, values, None)
