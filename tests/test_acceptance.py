"""Acceptance gate: every shipped claim, one pass/fail line each.

Each test exercises one end-to-end claim at its stated tolerance and time
budget, prints a single ``PASS:``/``FAIL:`` line for the run log, and fails
loudly if the claim or its budget is violated.  Budgets are wall-clock and
assume a cold oracle cache (cleared once at module start).
"""

import json
import time

import numpy as np
import pytest

from tnspec.cli import run
from tnspec.families import FAMILY_REGISTRY, FamilyId
from tnspec.oracle import (
    cayley_spectrum,
    clear_caches,
    enumerate_partitions,
    partition_count,
    spectrum,
)
from tnspec.partitions import (
    conjugate,
    eigenvalue,
    eigenvalue_of_parts,
    make_partition,
)
from tnspec.segments import (
    linear_segment_cover,
    quadratic_segment_bounds,
    quadratic_segment_cover,
)
from tnspec.verify import verify_family


@pytest.fixture(scope="module", autouse=True)
def cold_cache():
    clear_caches()
    yield


def report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"{status}: criterion {number} — {description} "
        f"({elapsed:.3f}s, budget {budget:.0f}s)"
    )
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, (
        f"criterion {number} exceeded budget: {elapsed:.3f}s >= {budget}s"
    )


def test_criterion_1_eigenvalue_ground_truth(capsys):
    start = time.perf_counter()
    code_hook = run(["eig", "4", "1", "1"])
    out_hook = capsys.readouterr().out
    code_rect = run(["eig", "3", "3"])
    out_rect = capsys.readouterr().out
    ok = code_hook == 0 and out_hook == "3\n"
    ok = ok and code_rect == 0 and out_rect == "3\n"
    # the formula itself must be sub-millisecond
    t0 = time.perf_counter()
    for _ in range(1000):
        value = eigenvalue_of_parts((4, 1, 1))
    per_call = (time.perf_counter() - t0) / 1000
    ok = ok and value == 3 and per_call < 1e-3
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(1, "eigenvalue formula ground truth", ok, elapsed, 5.0)


def test_criterion_2_dual_oracle_integrality(capsys, cayley_matrix):
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        cayley = cayley_spectrum(n)
        exact = spectrum(n)
        ok = ok and cayley.values == exact.values
        raw = np.linalg.eigvalsh(cayley_matrix(n))
        residual = float(np.max(np.abs(raw - np.rint(raw))))
        ok = ok and residual < 1e-6
        numeric = tuple(sorted({int(value) for value in np.rint(raw)}))
        ok = ok and numeric == cayley.values
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(2, "exact and numeric Cayley spectra equal partition spectra, n <= 6",
               ok, elapsed, 60.0)


def test_criterion_3_linear_segment_reproof(capsys):
    start = time.perf_counter()
    ok = True
    total = 0
    for n in range(31, 81):
        cover = linear_segment_cover(n)
        ok = ok and cover.failures == () and cover.covered == 2 * n + 1
        ok = ok and 2 * cover.max_first_part <= n + 3
        total += cover.covered
    ok = ok and total == sum(2 * n + 1 for n in range(31, 81))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(3, f"linear segment [-n, n] covered for n in [31, 80] "
                  f"({total} witnesses, first parts <= (n+3)/2)",
               ok, elapsed, 10.0)


def test_criterion_4_quadratic_segment_reproof(capsys):
    start = time.perf_counter()
    bounds48 = quadratic_segment_bounds(48)
    # hand-expanded binomials: ceil(48/3)+1 = 17 heads give 17*16/2 = 136,
    # minus 2*(floor(96/3)-1) = 62, and the top head 32 gives 32*31/2
    ok = bounds48.y1 == (17 * 16) // 2 - 2 * (32 - 1) == 74
    ok = ok and bounds48.y2 == (32 * 31) // 2 == 496
    total = 0
    for n in range(48, 61):
        cover = quadratic_segment_cover(n)
        ok = ok and cover.failures == ()
        for record in cover.records:
            mirrored = conjugate(record.partition)
            ok = ok and eigenvalue(mirrored) == -record.target
        total += 2 * cover.covered
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(4, f"quadratic segment y1 <= |k| <= y2 covered for n in "
                  f"[48, 60] ({total} cases, n=48 bounds 74/496)",
               ok, elapsed, 30.0)


def test_criterion_5_oracle_containment_n48(capsys):
    start = time.perf_counter()
    count = sum(1 for _ in enumerate_partitions(48))
    ok = count == partition_count(48) == 147273
    full = spectrum(48)
    ok = ok and all(k in full for k in range(74, 497))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(5, f"all {count} partitions of 48 enumerated; [74, 496] "
                  f"contained in the spectrum",
               ok, elapsed, 60.0)


def test_criterion_6_family_sweeps(capsys):
    start = time.perf_counter()
    ok = True
    for family in FamilyId:
        result = verify_family(family, n_range=(1, 80))
        ok = ok and result.ok
    # spot-check the published polynomial shape for one row: the first
    # odd-n head eigenvalue is n^2/8 - 3n + 119/8
    spec = FAMILY_REGISTRY[FamilyId.A1_ROW1_ODD]
    for n in (25, 31, 79):
        lam = (n + 1) // 2
        forms = spec.closed_forms(n, lam)
        ok = ok and forms is not None and forms[0] == (n * n - 24 * n + 119) // 8
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(6, "every witness family verifies to n = 80 including "
                  "closed-form polynomials",
               ok, elapsed, 10.0)


def test_criterion_7_conjugation_antisymmetry(capsys):
    start = time.perf_counter()
    ok = True
    for n in range(1, 13):
        for partition in enumerate_partitions(n):
            ok = ok and eigenvalue(conjugate(partition)) == -eigenvalue(partition)
    for n in range(1, 31):
        values = spectrum(n).values
        ok = ok and tuple(sorted(-v for v in values)) == values
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(7, "conjugation negates eigenvalues (n <= 12 exhaustive); "
                  "spectra closed under negation (n <= 30)",
               ok, elapsed, 10.0)


def test_criterion_8_conjecture_scan(capsys):
    start = time.perf_counter()
    code_first = run(["conjecture", "48", "--format", "json"])
    first = capsys.readouterr().out
    clear_caches()
    code_second = run(["conjecture", "48", "--format", "json"])
    second = capsys.readouterr().out
    ok = code_first == 0 and code_second == 0 and first == second
    payload = json.loads(first)
    reported = {int(key) for key in payload["witnesses"]}
    ok = ok and reported == set(range(49, 74))
    for key, parts in payload["witnesses"].items():
        witness = make_partition(parts)
        ok = ok and eigenvalue(witness) == int(key)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(8, "conjecture gap [49, 73] at n = 48 reported completely "
                  "and deterministically",
               ok, elapsed, 60.0)
