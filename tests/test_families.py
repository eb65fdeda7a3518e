"""Witness families: frozen examples, soundness sweeps, range tightness,
and the dispatch table against the ordered scan it replaces."""

import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from tnspec import families, segments
from tnspec.errors import (
    BelowConstructiveRangeError,
    OutOfFamilyRangeError,
    ParityViolationError,
    WitnessNotFoundError,
    WitnessVerificationError,
)
from tnspec.families import (
    FAMILY_REGISTRY,
    LINEAR_MIN_N,
    FamilyId,
    FamilySpec,
    build_family,
    family_targets,
    group_bound_doubled,
    make_witness,
    zero_witness,
)
from tnspec.oracle import spectrum
from tnspec.partitions import (
    Partition,
    compact_eigenvalue,
    conjugate,
    eigenvalue,
    expand,
    make_partition,
)
from tnspec.segments import (
    linear_segment_cover,
    linear_segment_witness,
    quadratic_segment_cover,
    quadratic_segment_witness,
)

SWEEP_TOP = 80


def group(name):
    return [family for family, spec in FAMILY_REGISTRY.items() if spec.group == name]


def covering(families, n, lam):
    """The families among `families` whose targets at n contain lam."""
    return [family for family in families if lam in family_targets(family, n)]


def built_parts(family, n, lam):
    return expand(build_family(family, n, lam)).parts


class TestZeroWitness:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, (1,)),
            (9, (5, 1, 1, 1, 1)),
            (8, (4, 2, 1, 1)),
            (31, (16,) + (1,) * 15),
        ],
    )
    def test_known_shapes(self, n, expected):
        assert zero_witness(n).parts == expected

    def test_self_conjugate(self):
        for n in [1, 3, 4, 5, 8, 9, 20, 21, 44, 45]:
            witness = zero_witness(n)
            assert eigenvalue(witness) == 0
            assert conjugate(witness).parts == witness.parts

    def test_t2_has_no_zero(self):
        with pytest.raises(OutOfFamilyRangeError):
            zero_witness(2)


class TestS1Dispatch:
    @pytest.mark.parametrize(
        "n, lam, expected",
        [
            (21, 0, (FamilyId.ZERO, (11,) + (1,) * 10)),
            (31, 15, (FamilyId.S1_MID_ODD, (16, 2) + (1,) * 13)),
            (20, 1, (FamilyId.S1_ONE_EVEN, (7, 4, 4, 2, 1, 1, 1))),
            (21, 5, (FamilyId.S1_SPECIAL_MOD1, (6, 6, 4, 2, 2, 1))),
            (20, 5, (FamilyId.S1_SPECIAL_MOD0, (5, 5, 5, 4, 1))),
            (22, 5, (FamilyId.S1_SPECIAL_MOD2, (6, 5, 5, 4, 1, 1))),
            (19, 5, (FamilyId.S1_SPECIAL_MOD3, (5, 5, 5, 3, 1))),
        ],
    )
    def test_known_witnesses(self, n, lam, expected):
        family, parts = expected
        assert covering(group("S1"), n, lam) == [family]
        assert built_parts(family, n, lam) == parts

    def test_low_special_mid_tile_exactly(self):
        # every target in [0, top] has exactly one S1 family, and the
        # low, special and mid ranges abut at the crossover
        for n in range(19, 101):
            top = (n - 1) // 2 if n % 2 else (n - 4) // 2
            families_seen = []
            for lam in range(0, top + 1):
                (family,) = covering(group("S1"), n, lam)
                assert eigenvalue(expand(build_family(family, n, lam))) == lam
                families_seen.append(family.value)
            crossover = (n - 3) // 4 + 1
            assert families_seen[crossover].startswith("S1_special")
            if crossover + 1 <= top:
                assert families_seen[crossover + 1].startswith("S1_mid")
            if crossover >= 2:
                assert families_seen[crossover - 1].startswith(
                    ("S1_low", "S1_one")
                )

    def test_out_of_range(self):
        for n, lam in ((31, 16), (32, 15), (31, -1)):  # above (n-1)/2, (n-4)/2
            assert covering(group("S1"), n, lam) == []
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S1_MID_ODD, 31, 16)
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S1_MID_EVEN, 32, 15)
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S1_LOW_ODD, 31, -1)


class TestS2Cases:
    @pytest.mark.parametrize(
        "n, lam, expected",
        [
            (21, 13, (FamilyId.S2_CASE1, (8, 5, 3, 2, 2, 1))),
            (21, 14, (FamilyId.S2_CASE2, (7, 5, 5, 2, 2))),
            (20, 12, (FamilyId.S2_CASE4, (7, 5, 4, 2, 2))),
            (20, 14, (FamilyId.S2_CASE4, (8, 4, 4, 2, 1, 1))),
            (20, 13, (FamilyId.S2_CASE3, (8, 5, 2, 2, 2, 1))),
        ],
    )
    def test_known_witnesses(self, n, lam, expected):
        family, parts = expected
        assert covering(group("S2"), n, lam) == [family]
        assert built_parts(family, n, lam) == parts

    def test_case_selection_by_parity(self):
        assert covering(group("S2"), 21, 13) == [FamilyId.S2_CASE1]
        assert covering(group("S2"), 21, 14) == [FamilyId.S2_CASE2]
        assert covering(group("S2"), 20, 13) == [FamilyId.S2_CASE3]
        assert covering(group("S2"), 20, 12) == [FamilyId.S2_CASE4]

    def test_full_case_ranges(self):
        # each case covers one parity of targets over its whole declared
        # range, and no target has two cases
        for n in range(20, SWEEP_TOP + 1):
            if n % 2:
                declared = {
                    FamilyId.S2_CASE1: ((n + 3) // 2, n - 4, 1),
                    FamilyId.S2_CASE2: ((n + 7) // 2, n - 7, 0),
                }
            else:
                declared = {
                    FamilyId.S2_CASE3: ((n + 4) // 2, n - 1, 1),
                    FamilyId.S2_CASE4: ((n + 4) // 2, n - 6, 0),
                }
            for lam in range(0, n + 1):
                want = [
                    family
                    for family, (low, high, parity) in declared.items()
                    if low <= lam <= high and lam % 2 == parity
                ]
                assert covering(group("S2"), n, lam) == want, (n, lam)
                for family in want:
                    assert eigenvalue(expand(build_family(family, n, lam))) == lam

    def test_below_minimum(self):
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S2_CASE2, 19, 12)  # case 2 needs n >= 21

    def test_range_tightness(self):
        # one step outside each case range must error, not mis-witness
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S2_CASE1, 21, 19)  # odd/odd above n-4 = 17
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S2_CASE2, 21, 12)  # odd/even below (n+7)/2 = 14
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S2_CASE3, 20, 11)  # even/odd below (n+4)/2 = 12
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.S2_CASE4, 20, 16)  # even/even above n-6 = 14


class TestA1:
    def test_values(self):
        assert sorted(t for f in group("A1") for t in family_targets(f, 31)) == [
            16,
            17,
            18,
        ]
        assert sorted(t for f in group("A1") for t in family_targets(f, 32)) == [
            15,
            16,
            17,
        ]

    @pytest.mark.parametrize(
        "n, lam, expected",
        [
            (31, 16, (FamilyId.A1_ROW1_ODD, (10, 7, 4, 3, 3, 1, 1, 1, 1))),
            (9, 6, (FamilyId.A1_ROW2_ODD, (4, 4, 1))),
            (32, 15, (FamilyId.A1_ROW1_EVEN, (8, 8, 5, 4, 3, 3, 1))),
            (32, 16, (FamilyId.A1_ROW2_EVEN, (17,) + (1,) * 15)),
        ],
    )
    def test_known_witnesses(self, n, lam, expected):
        family, parts = expected
        assert covering(group("A1"), n, lam) == [family]
        assert built_parts(family, n, lam) == parts

    def test_not_in_set(self):
        assert covering(group("A1"), 31, 10) == []
        assert covering(group("A1"), 31, 19) == []
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.A1_ROW1_ODD, 31, 10)
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.A1_ROW3_ODD, 31, 19)

    def test_row_minimum(self):
        # the even first row needs n >= 32
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.A1_ROW1_EVEN, 30, 14)


class TestA2:
    def test_values(self):
        targets = sorted(t for f in group("A2") for t in family_targets(f, 31))
        assert targets == [25, 26, 27, 28, 29, 30, 31]

    @pytest.mark.parametrize(
        "n, lam, expected",
        [
            (31, 31, (FamilyId.A2_ROW_N_ODD, (17,) + (1,) * 14)),
            (19, 18, (FamilyId.A2_ROW_N1_ODD, (10, 3) + (1,) * 6)),
            (20, 18, (FamilyId.A2_ROW_N2_EVEN, (6, 6, 5, 3))),
            (12, 6, (FamilyId.A2_ROW_N6_EVEN, (6, 2, 2, 2))),
            (19, 14, (FamilyId.A2_ROW_N5_ODD, (6, 5, 5, 3))),
        ],
    )
    def test_known_witnesses(self, n, lam, expected):
        family, parts = expected
        assert covering(group("A2"), n, lam) == [family]
        assert built_parts(family, n, lam) == parts

    def test_not_in_set(self):
        assert covering(group("A2"), 20, 13) == []
        assert covering(group("A2"), 20, 21) == []
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.A2_ROW_N6_EVEN, 20, 13)

    def test_row_minimum(self):
        with pytest.raises(OutOfFamilyRangeError):
            build_family(FamilyId.A2_ROW_N2_EVEN, 18, 16)  # needs n >= 20


class TestRegistrySoundness:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_every_instance_verifies(self, family):
        spec = FAMILY_REGISTRY[family]
        cases = 0
        for n in range(1, SWEEP_TOP + 1):
            for lam in family_targets(family, n):
                compact = build_family(family, n, lam)
                partition = expand(compact)
                assert partition.n == n
                assert eigenvalue(partition) == lam
                assert compact_eigenvalue(compact) == lam
                forms = spec.closed_forms(n, lam)
                if forms is not None:
                    want_head, want_deduction = forms
                    head_eig = eigenvalue(Partition(compact.head))
                    assert head_eig == want_head
                    assert head_eig - lam == want_deduction
                cases += 1
        assert cases > 0

    def test_admissibility_is_enforced(self):
        for family in FamilyId:
            spec = FAMILY_REGISTRY[family]
            n = spec.n_min - 1
            targets = family_targets(family, spec.n_min + 4)
            if n >= 1 and targets:
                with pytest.raises(OutOfFamilyRangeError):
                    build_family(family, n, targets[0])

    def test_nothing_is_admissible_below_n_min(self):
        # n_min - 1 is outside every affine row's class of n anyway, so
        # this walks down to where only the n_min check can refuse
        for family, spec in FAMILY_REGISTRY.items():
            for n in range(-2, spec.n_min):
                assert not family_targets(family, n), (family, n)
                with pytest.raises(OutOfFamilyRangeError):
                    build_family(family, n, 0)
        for n in (0, -1):
            with pytest.raises(OutOfFamilyRangeError):
                zero_witness(n)

    def test_first_part_and_length_bounds(self):
        for n in range(31, SWEEP_TOP + 1):
            for family, spec in FAMILY_REGISTRY.items():
                doubled = group_bound_doubled(spec.group, n)
                for lam in family_targets(family, n):
                    partition = expand(build_family(family, n, lam))
                    assert 2 * partition.first_part <= doubled
                    assert 2 * len(partition) <= doubled

    def test_bound_attainment(self):
        # the A2 top row hits (n+3)/2 exactly; the zero witness hits (n+1)/2
        assert expand(build_family(FamilyId.A2_ROW_N_ODD, 31, 31)).first_part == 17
        assert zero_witness(31).first_part == 16

    def test_oracle_containment(self):
        # every family output value really is in the exhaustive spectrum
        for n in range(19, 46):
            full = spectrum(n)
            for family in FamilyId:
                for lam in family_targets(family, n):
                    assert lam in full, (family, n, lam)


class TestAffineRows:
    """A row is plain data, and a row built from wrong data is refused,
    never used."""

    def row(self, **changes):
        return replace(FAMILY_REGISTRY[FamilyId.S2_CASE3], **changes)

    def test_every_row_is_plain_data(self):
        affine = 0
        for row in FAMILY_REGISTRY.values():
            assert not any(callable(getattr(row, f.name)) for f in fields(row))
            if type(row) is FamilySpec:  # every row but Zero
                data = {f.name: getattr(row, f.name) for f in fields(row) if f.init}
                assert FamilySpec(**data) == row
                affine += 1
        assert affine == len(FAMILY_REGISTRY) - 1

    def test_an_inexact_entry_is_refused(self, monkeypatch):
        # (n - lam + 4)/2 is never an integer for even n and odd lam
        mutated = self.row(head=((0, 1, 3, 2), (1, -1, 4, 2)))
        monkeypatch.setitem(FAMILY_REGISTRY, FamilyId.S2_CASE3, mutated)
        for n in range(6, SWEEP_TOP + 1, 2):
            for lam in family_targets(FamilyId.S2_CASE3, n):
                message = rf"S2_case3: head\[1\] .* at n = {n}, target {lam}$"
                with pytest.raises(ParityViolationError, match=message):
                    build_family(FamilyId.S2_CASE3, n, lam)

    def test_a_size_preserving_mutation_fails_verification(self, monkeypatch):
        # one 2 of the tail becomes two 1s: still a partition of n
        mutated = self.row(twos=(1, -1, -3, 2), ones=(-1, 2, 0, 2))
        monkeypatch.setitem(FAMILY_REGISTRY, FamilyId.S2_CASE3, mutated)
        n, lam = 40, 23
        assert families._table_family(n, lam) is FamilyId.S2_CASE3
        assert build_family(FamilyId.S2_CASE3, n, lam).n == n
        with pytest.raises(WitnessVerificationError):
            linear_segment_witness(n, lam)


class TestWitnessRecord:
    def test_verification_catches_lies(self):
        with pytest.raises(WitnessVerificationError):
            make_witness(6, 5, make_partition([4, 1, 1]), ("test",))
        with pytest.raises(WitnessVerificationError):
            make_witness(7, 3, make_partition([4, 1, 1]), ("test",))

    def test_conjugated_record(self):
        family = FamilyId.A2_ROW_N1_ODD
        record = make_witness(19, 18, expand(build_family(family, 19, 18)), (family.value,))
        mirrored = record.conjugated()
        assert mirrored.target == -18
        assert mirrored.n == 19
        assert mirrored.family == "A2_row_n-1_odd+conjugate"
        assert eigenvalue(mirrored.partition) == -18

    def test_json_shape(self):
        payload = linear_segment_witness(31, 16).to_json_dict()
        assert payload == {
            "n": 31,
            "target": 16,
            "family": "A1_row1_odd",
            "family_chain": ["A1_row1_odd"],
            "partition": [10, 7, 4, 3, 3, 1, 1, 1, 1],
            "verified": True,
        }


class TestDispatchTable:
    """The bisect over affine cell starts picks what the ordered scan picks."""

    def test_importing_the_package_builds_no_table(self):
        # the table is built on the first dispatch, not by `import tnspec`
        probe = "import tnspec; print(tnspec.families._dispatch_cells.cache_info().currsize)"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(families.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "0"

    def test_every_target_matches_the_scan(self):
        for n in range(LINEAR_MIN_N, 401):
            for lam in range(0, n + 1):
                family = families._table_family(n, lam)
                assert family is not None, (n, lam)
                assert family is families._scan_family(n, lam), (n, lam)

    def test_seeded_large_n_match_the_scan(self):
        rng = random.Random(20261018)
        for _ in range(20_000):
            n = rng.randint(LINEAR_MIN_N, 100_000)
            lam = rng.randint(0, n)
            table, scan = families._table_family(n, lam), families._scan_family(n, lam)
            assert table is scan, (n, lam)

    def test_the_drivers_dispatch_only_from_the_table_start(self, monkeypatch):
        # the cells are derived for n >= LINEAR_MIN_N only; below it the
        # drivers must read the oracle instead of dispatching
        seen = []
        dispatch = segments._dispatch_witness

        def recording(n, lam):
            seen.append((n, lam))
            return dispatch(n, lam)

        monkeypatch.setattr(segments, "_dispatch_witness", recording)
        for n in range(1, 41):
            for k in range(-n, n + 1):
                try:
                    assert linear_segment_witness(n, k).target == k
                except WitnessNotFoundError:
                    assert n < LINEAR_MIN_N, (n, k)
        for n in range(48, 53):
            quadratic_segment_cover(n)
        for k in (1000, -1000):
            assert quadratic_segment_witness(100, k).target == k
        assert seen
        assert min(n for n, _ in seen) >= LINEAR_MIN_N
        # the cover path: each |k| is dispatched once, from the table start
        seen.clear()
        for n in range(1, LINEAR_MIN_N):
            with pytest.raises(BelowConstructiveRangeError):
                linear_segment_cover(n)
        covers = (LINEAR_MIN_N, LINEAR_MIN_N + 1, 80)
        for n in covers:
            assert linear_segment_cover(n).covered == 2 * n + 1
        assert seen == [(n, lam) for n in covers for lam in range(n + 1)]

    @pytest.mark.parametrize("n", [31, 32, 37, 38, 999, 100_000])
    def test_targets_outside_zero_to_n_are_refused(self, n):
        for lam in (-1, n + 1):
            assert families._scan_family(n, lam) is None
            with pytest.raises(OutOfFamilyRangeError):
                families._dispatch_witness(n, lam)

    def test_queries_do_not_call_family_targets(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a query called family_targets")

        monkeypatch.setattr(families, "family_targets", refuse)
        for n in (31, 32, 33, 38, 517, 1000, 100_000):
            for k in (0, 1, n // 4, n // 2, n // 2 + 2, n - 6, n - 1, n):
                assert linear_segment_witness(n, k).target == k
                assert linear_segment_witness(n, -k).target == -k
        for n, k in ((48, 413), (100, 1000), (1000, 100_000)):
            assert quadratic_segment_witness(n, k).target == k
            assert quadratic_segment_witness(n, -k).target == -k
