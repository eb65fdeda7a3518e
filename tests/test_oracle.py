"""Enumeration oracle, partition counting, and the exact Cayley cross-check."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from tnspec import oracle, partitions
from tnspec.errors import (
    IntegerRoundingError,
    SizeLimitError,
    TnSpecError,
)
from tnspec.families import build_family, family_targets
from tnspec.oracle import (
    EnumerationConstraints,
    _iter_parts,
    cayley_spectrum,
    clear_caches,
    contains,
    enumerate_partitions,
    partition_count,
    spectrum,
)
from tnspec.partitions import choose2, eigenvalue, eigenvalue_of_parts
from tnspec.segments import conjecture_scan
from tnspec.verify import run_checks, verify_family


@pytest.mark.parametrize(
    "call",
    [
        lambda: partition_count(-1),
        lambda: partition_count(10_001),
        lambda: list(enumerate_partitions(0)),
        lambda: list(enumerate_partitions(201)),
        lambda: spectrum(0),
        lambda: spectrum(201),
        lambda: spectrum(6, EnumerationConstraints(max_first_part=0)),
        lambda: spectrum(6, EnumerationConstraints(max_length=3)),
        lambda: list(enumerate_partitions(6, EnumerationConstraints(max_length=0))),
        lambda: cayley_spectrum(0),
        lambda: conjecture_scan(0),
        lambda: run_checks(["bogus"]),
        lambda: family_targets("bogus", 5),
        lambda: build_family("bogus", 5, 0),
        lambda: verify_family("bogus", (1, 5)),
    ],
    ids=[
        "partition_count(-1)",
        "partition_count(10_001)",
        "enumerate_partitions(0)",
        "enumerate_partitions(201)",
        "spectrum(0)",
        "spectrum(201)",
        "spectrum(6, max_first_part=0)",
        "spectrum(6, max_length=3)",
        "enumerate_partitions(6, max_length=0)",
        "cayley_spectrum(0)",
        "conjecture_scan(0)",
        "run_checks(bogus)",
        "family_targets(bogus)",
        "build_family(bogus)",
        "verify_family(bogus)",
    ],
)
def test_rejected_input_is_typed(call):
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, TnSpecError)


class TestEnumeration:
    def test_reverse_lexicographic_order(self):
        parts = [p.parts for p in enumerate_partitions(4)]
        assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_single(self):
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]

    def test_max_first_part(self):
        constrained = EnumerationConstraints(max_first_part=2)
        parts = [p.parts for p in enumerate_partitions(5, constrained)]
        assert parts == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]

    def test_deterministic(self):
        first = [p.parts for p in enumerate_partitions(9)]
        second = [p.parts for p in enumerate_partitions(9)]
        assert first == second

    def test_count_agreement_with_recurrence(self):
        for n in range(1, 41):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

    def test_limit_enforced(self):
        # TABLE_MAX_N bounds the enumerator and the table alike
        assert next(enumerate_partitions(oracle.TABLE_MAX_N)).parts == (200,)
        assert spectrum(oracle.TABLE_MAX_N).values[-1] == choose2(200)
        for call in (lambda: list(enumerate_partitions(201)), lambda: spectrum(201)):
            with pytest.raises(SizeLimitError, match="200"):
                call()

    def test_env_var_limit(self, monkeypatch):
        # TNSPEC_ORACLE_LIMIT is no longer read
        monkeypatch.setenv("TNSPEC_ORACLE_LIMIT", "10")
        assert sum(1 for _ in enumerate_partitions(11)) == partition_count(11)
        assert spectrum(11).values[-1] == choose2(11)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(0))


class TestPartitionCount:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, 1), (1, 1), (4, 5), (10, 42), (48, 147273), (50, 204226)],
    )
    def test_known_values(self, n, expected):
        assert partition_count(n) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partition_count(-1)


class TestSpectrum:
    def test_small_spectra(self):
        assert spectrum(3).values == (-3, 0, 3)
        assert spectrum(4).values == (-6, -2, 0, 2, 6)

    def test_witnesses_are_first_encountered(self):
        found = spectrum(6)
        # (4, 1, 1) precedes (3, 3) in reverse-lexicographic order
        assert found.witness(3).parts == (4, 1, 1)
        assert found.witness(choose2(6)).parts == (6,)

    def test_every_witness_attains_its_value(self):
        found = spectrum(12)
        for value in found.values:
            assert eigenvalue(found.witness(value)) == value

    def test_symmetry_and_extremes(self):
        for n in range(1, 31):
            found = spectrum(n)
            assert found.values == tuple(sorted(-v for v in found.values))
            assert found.values[-1] == choose2(n)
            assert found.values[0] == -choose2(n)

    def test_constrained_subset_of_full(self):
        for n in range(2, 21):
            full = set(spectrum(n).values)
            for cap in range(1, n + 1):
                restricted = spectrum(n, EnumerationConstraints(max_first_part=cap))
                assert set(restricted.values) <= full

    def test_restricted_example(self):
        restricted = spectrum(5, EnumerationConstraints(max_first_part=2))
        assert restricted.values == (-10, -5, -2)

    def test_membership_operator(self):
        found = spectrum(4)
        assert 2 in found
        assert 3 not in found
        assert -6 in found
        assert 7 not in found

    def test_json_shape(self):
        payload = spectrum(4).to_json_dict()
        assert payload["n"] == 4
        assert payload["values"] == [-6, -2, 0, 2, 6]
        assert payload["witnesses"]["0"] == [2, 2]

    def test_no_witness_request(self):
        # enumerated spectra always keep witnesses; only the Cayley operator,
        # which knows no partitions, has none
        found = cayley_spectrum(5)
        assert found.witnesses is None
        assert found.witness(0) is None


    def test_table_matches_enumerator(self):
        # The table and the enumerator share no code: every value and every
        # witness (first partition in reverse-lexicographic order) agree, for
        # n = 1..30 at every cap and for n = 40 uncapped.  That order lists
        # partitions by first part, largest first, so under cap c the first
        # witness comes from the partitions starting with c, else from those
        # under cap c - 1; one enumeration per n serves every cap.
        for n in [*range(1, 31), 40]:
            groups: dict[int, dict[int, tuple[int, ...]]] = {}
            for parts in _iter_parts(n, n):
                group = groups.setdefault(parts[0], {})
                group.setdefault(eigenvalue_of_parts(parts), parts)
            first: dict[int, tuple[int, ...]] = {}
            for cap in range(1, n + 1):
                first = {**first, **groups[cap]}
                if n > 30 and cap < n:
                    continue
                found = spectrum(n, EnumerationConstraints(max_first_part=cap))
                assert found.values == tuple(sorted(first)), (n, cap)
                witnesses = {value: found.witness(value).parts for value in found.values}
                assert witnesses == first, (n, cap)

    def test_spectrum_does_not_enumerate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("spectrum enumerated partitions")

        monkeypatch.setattr(oracle, "_iter_parts", refuse)
        monkeypatch.setattr(partitions, "eigenvalue_of_parts", refuse)
        clear_caches()
        found = spectrum(40)
        assert len(found.witnesses) == len(found.values)

    def test_clear_caches_drops_the_table(self):
        spectrum(30)
        assert len(oracle._table) > 30
        clear_caches()
        assert len(oracle._table) == 1

    def test_a_grown_table_is_read_without_the_lock(self, monkeypatch):
        clear_caches()
        expected = spectrum(30).values

        class Refused:
            def __enter__(self):
                raise AssertionError("the lock was taken")

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(oracle, "_cache_lock", Refused())
        assert spectrum(30).values == expected
        assert spectrum(12, EnumerationConstraints(max_first_part=5)).values
        with pytest.raises(AssertionError, match="lock"):
            spectrum(31)

    def test_concurrent_growth(self):
        # Threads that grow the shared table at once must see the rows a
        # single thread builds.
        sizes = [20, 35, 50, 28, 44, 50]
        clear_caches()
        expected = {n: spectrum(n).values for n in sizes}
        clear_caches()
        got: dict[int, tuple[int, ...]] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda n=n: got.__setitem__(n, spectrum(n).values))
                for n in sizes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestContains:
    def test_present(self):
        answer, witness = contains(6, 3)
        assert answer is True
        assert witness.parts in {(4, 1, 1), (3, 3)}
        assert eigenvalue(witness) == 3

    def test_absent(self):
        answer, witness = contains(4, 1)
        assert answer is False
        assert witness is None

    def test_small_spectra_have_holes(self):
        # the reason constructive coverage needs n large enough
        assert contains(18, 4)[0] is False
        assert contains(18, 16)[0] is False


def _product_per_candidate(rows, candidates):
    """The reference for oracle._identity_entries: per candidate e, the
    identity entry of prod_{e' != e} (A - e') delta_id, multiplied out
    factor by factor (about K^2 operator-vector products)."""
    entries = []
    for e in candidates:
        vector = [1] + [0] * (len(rows) - 1)
        for other in candidates:
            if other != e:
                vector = [
                    sum(vector[j] for j in row) - other * x
                    for row, x in zip(rows, vector)
                ]
        entries.append(vector[0])
    return entries


class TestCayley:
    def test_single_vertex(self):
        assert cayley_spectrum(1).values == (0,)

    def test_two_vertices(self):
        assert cayley_spectrum(2).values == (-1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_partition_spectrum(self, n):
        assert cayley_spectrum(n).values == spectrum(n).values

    def test_adjacency_is_regular(self, cayley_matrix):
        import numpy as np

        adjacency = cayley_matrix(4)
        assert adjacency.shape == (24, 24)
        assert (adjacency.sum(axis=1) == choose2(4)).all()
        assert (adjacency == adjacency.T).all()
        assert (adjacency.diagonal() == 0).all()
        # the float eigensolver agrees with the exact integer certificate
        rounded = np.rint(np.linalg.eigvalsh(adjacency))
        assert tuple(sorted({int(value) for value in rounded})) == cayley_spectrum(4).values

    def test_uncertified_spectrum_raises(self, monkeypatch):
        # with top one short of C(3, 2), the eigenvalues +-3 fall outside
        # the candidates and the certificate prod (A - e) delta_id is nonzero
        monkeypatch.setattr(oracle, "choose2", lambda m: m * (m - 1) // 2 - 1)
        with pytest.raises(IntegerRoundingError):
            cayley_spectrum(3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_moments_match_the_product_per_candidate(self, n):
        # the same exact identity entries as one product per candidate
        rows = oracle._class_operator(n)
        candidates = range(-choose2(n), choose2(n) + 1)
        entries = _product_per_candidate(rows, candidates)
        assert oracle._identity_entries(rows, candidates) == entries
        bits = sum(1 << i for i, entry in enumerate(entries) if entry)
        assert cayley_spectrum(n).bits == bits

    @pytest.mark.parametrize("shifted", range(13))
    def test_a_moment_off_by_one_is_caught(self, monkeypatch, shifted):
        # the mutant the reference comparison above must kill; dropping the
        # certificate is the mutant test_uncertified_spectrum_raises kills
        original = oracle._identity_moments

        def off_by_one(rows, count):
            moments = original(rows, count)
            moments[shifted] += 1
            return moments

        rows = oracle._class_operator(4)
        candidates = range(-6, 7)
        expected = _product_per_candidate(rows, candidates)
        monkeypatch.setattr(oracle, "_identity_moments", off_by_one)
        assert oracle._identity_entries(rows, candidates) != expected
        if shifted:
            # m_0 enters only the entry of e = 0, which stays nonzero
            assert cayley_spectrum(4).values != spectrum(4).values

    def test_import_leaves_numpy_out(self):
        # the exact operator needs no numpy, so tnspec must not load it
        src = str(Path(oracle.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, tnspec; assert 'numpy' not in sys.modules"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            cayley_spectrum(7)

    def test_no_witnesses(self):
        assert cayley_spectrum(3).witnesses is None
