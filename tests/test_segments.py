"""Segment drivers: dispatch tiling, head brackets, covers, conjecture scan."""

from collections import Counter

import pytest

from tnspec import families, segments
from tnspec.errors import (
    BelowConstructiveRangeError,
    FormulaOverflowError,
    NoHeadFitsError,
    OutOfFamilyRangeError,
    TargetOutOfSegmentError,
    WitnessNotFoundError,
    WitnessVerificationError,
)
from tnspec.families import FAMILY_REGISTRY, FamilyId
from tnspec.oracle import EnumerationConstraints, SpectrumSet, spectrum
from tnspec.partitions import (
    MAX_FORMULA_N,
    CompactPartition,
    Partition,
    choose2,
    conjugate,
    eigenvalue,
)
from tnspec.segments import (
    LINEAR_MIN_N,
    QUADRATIC_MIN_N,
    conjecture_scan,
    head_interval,
    head_range,
    linear_segment_cover,
    linear_segment_witness,
    quadratic_segment_bounds,
    quadratic_segment_cover,
    quadratic_segment_witness,
)


def dispatched(n, k):
    return linear_segment_witness(n, k).family_chain[0]


class TestCells:
    """How the linear driver's dispatch splits [0, n] across family groups."""

    def test_known_layouts(self):
        layouts = {
            31: {"S1": (0, 15), "A1": (16, 18), "S2": (19, 24), "A2": (25, 31)},
            32: {"S1": (0, 14), "A1": (15, 17), "S2": (18, 26), "A2": (27, 32)},
        }
        for n, cells in layouts.items():
            for group, (low, high) in cells.items():
                for k in range(low, high + 1):
                    family = FamilyId(dispatched(n, k))
                    assert FAMILY_REGISTRY[family].group == group, (n, k)

    def test_tiling_is_exact(self):
        # where family target sets overlap, the dispatch priority decides
        for n in range(LINEAR_MIN_N, 201):
            if n % 2:
                winners = {
                    (n + 3) // 2: "A1",
                    (n + 5) // 2: "A1",
                    n - 6: "A2_row_n-6_odd",
                    n - 4: "A2_row_n-4_odd",
                }
            else:
                winners = {
                    n - 6: "S2_case4",
                    n - 5: "A2_row_n-5_even",
                    n - 3: "A2_row_n-3_even",
                    n - 1: "A2_row_n-1_even",
                }
            for k, family in winners.items():
                assert dispatched(n, k).startswith(family), (n, k)
            for k in range(0, n + 1):
                assert linear_segment_witness(n, k).target == k


class TestLinearWitness:
    @pytest.mark.parametrize(
        "n, k, parts, chain",
        [
            (31, 0, (16,) + (1,) * 15, ("Zero",)),
            (31, -15, (15, 2) + (1,) * 14, ("S1_mid_odd", "conjugate")),
            (31, 31, (17,) + (1,) * 14, ("A2_row_n_odd",)),
            (31, -31, (15,) + (1,) * 16, ("A2_row_n_odd", "conjugate")),
            (32, 14, (15, 3, 3) + (1,) * 11, ("S1_mid_even",)),
        ],
    )
    def test_known_witnesses(self, n, k, parts, chain):
        record = linear_segment_witness(n, k)
        assert record.partition.parts == parts
        assert record.family_chain == chain
        assert record.verified

    def test_whole_segment_both_signs(self):
        for n in (31, 32, 45, 46):
            for k in range(-n, n + 1):
                record = linear_segment_witness(n, k)
                assert record.n == n and record.target == k

    def test_negative_targets_are_conjugates(self):
        for k in range(1, 32):
            pos = linear_segment_witness(31, k)
            neg = linear_segment_witness(31, -k)
            assert neg.partition.parts == conjugate(pos.partition).parts

    def test_below_constructive_range(self):
        # the cover stays constructive-only; single witnesses use the oracle
        with pytest.raises(BelowConstructiveRangeError):
            linear_segment_cover(30)
        assert linear_segment_witness(30, 5).family_chain == ("oracle",)

    def test_below_range_with_fallback_uses_oracle(self):
        record = linear_segment_witness(18, 5)
        assert eigenvalue(record.partition) == 5
        assert record.family_chain == ("oracle",)
        assert linear_segment_witness(18, -5).family_chain == ("oracle",)

    def test_fallback_respects_real_spectral_holes(self):
        # T_18 has no eigenvalue 4, so even the oracle cannot help
        with pytest.raises(WitnessNotFoundError):
            linear_segment_witness(18, 4)
        with pytest.raises(TargetOutOfSegmentError):
            linear_segment_witness(18, 19)

    def test_out_of_segment(self):
        with pytest.raises(TargetOutOfSegmentError):
            linear_segment_witness(31, 32)
        with pytest.raises(TargetOutOfSegmentError):
            linear_segment_witness(31, -32)


def per_target_cover(n):
    """linear_segment_cover(n) as linear_segment_witness builds it, target
    by target: the reference the once-per-|k| cover is held to."""
    return segments._run_cover(
        n, (-n, n), range(-n, n + 1), lambda k: linear_segment_witness(n, k)
    )


class TestLinearCover:
    def test_cover_runs_clean(self):
        report = linear_segment_cover(31)
        assert report.covered == 63
        assert report.failures == ()
        assert report.max_first_part == 17
        assert report.histogram["Zero"] == 1

    def test_first_part_stays_small(self):
        for n in range(LINEAR_MIN_N, 61):
            report = linear_segment_cover(n)
            assert report.failures == ()
            assert 2 * report.max_first_part <= n + 3

    def test_csv_rows(self):
        rows = linear_segment_cover(31).to_csv_rows()
        assert rows[0] == ["target", "status", "family", "partition", "detail"]
        assert rows[1][0] == "-31"
        assert rows[1][1] == "covered"
        assert len(rows) == 64

    # The cover dispatches each |k| once and conjugates for -k; it must give
    # what the per-target driver gives: records, order, chains, failures.
    @pytest.mark.parametrize("n", [*range(LINEAR_MIN_N, 81), 517, 1000, 4000])
    def test_equals_the_per_target_driver(self, n):
        cover = linear_segment_cover(n)
        assert cover == per_target_cover(n)
        assert cover.covered == 2 * n + 1

    @pytest.mark.parametrize("liar", ["lying_builders", "lying_expansion"])
    @pytest.mark.parametrize("n", [31, 32, 80, 517])
    def test_failures_equal_the_per_target_driver(self, request, liar, n):
        request.getfixturevalue(liar)
        cover = linear_segment_cover(n)
        assert cover == per_target_cover(n)
        assert [target for target, _ in cover.failures] == list(range(-n, n + 1))


class TestQuadraticBounds:
    @pytest.mark.parametrize(
        "n, y1, y2",
        [(48, 74, 496), (49, 91, 528), (51, 87, 561), (50, 89, 528)],
    )
    def test_frozen_bounds(self, n, y1, y2):
        bounds = quadratic_segment_bounds(n)
        assert (bounds.y1, bounds.y2) == (y1, y2)

    def test_y2_is_top_head_triangle(self):
        for n in range(QUADRATIC_MIN_N, 120):
            bounds = quadratic_segment_bounds(n)
            assert bounds.y2 == choose2(head_range(n)[1])
            assert bounds.y2 == choose2((2 * n + 1) // 3)

    def test_below_range(self):
        with pytest.raises(BelowConstructiveRangeError):
            quadratic_segment_bounds(47)


class TestHeadBrackets:
    def test_known_values(self):
        assert head_range(48) == (17, 32)
        assert head_interval(48, 17) == (74, 136)
        assert head_interval(48, 32) == (464, 496)

    def test_intervals_chain_without_gaps(self):
        # consecutive head intervals overlap or abut, so every target in
        # [y1, y2] is bracketed by at least one head
        for n in range(QUADRATIC_MIN_N, 201):
            low_head, high_head = head_range(n)
            previous_top = None
            for n1 in range(low_head, high_head + 1):
                low, high = head_interval(n, n1)
                assert low <= high
                if previous_top is not None:
                    assert low <= previous_top + 1, (n, n1)
                previous_top = high
            bounds = quadratic_segment_bounds(n)
            assert head_interval(n, low_head)[0] <= bounds.y1
            assert head_interval(n, high_head)[1] == bounds.y2

    def test_closed_form_head_is_the_first_bracketing_head(self):
        # the driver picks its head in closed form; the scan it replaced is
        # the reference, and only a rescue leaves the head the scan finds
        for n in (48, 49, 60, 93, 94, 120):
            low_head, high_head = head_range(n)
            bounds = quadratic_segment_bounds(n)
            for k in range(bounds.y1, bounds.y2 + 1):
                scan = next(
                    first
                    for first in range(low_head, high_head + 1)
                    if head_interval(n, first)[0] <= k <= head_interval(n, first)[1]
                )
                record = quadratic_segment_witness(n, k)
                if record.family_chain[0] == f"head={scan}":
                    continue
                residual_n = n - scan
                cap = EnumerationConstraints(max_first_part=scan)
                assert residual_n < LINEAR_MIN_N, (n, k)
                assert record.family_chain[1:] == ("oracle",), (n, k)
                assert k - choose2(scan) + residual_n not in spectrum(residual_n, cap)

    def test_no_head_fits_is_checked(self, monkeypatch):
        monkeypatch.setattr(segments, "head_interval", lambda n, first: (10**9, 10**9))
        with pytest.raises(NoHeadFitsError):
            quadratic_segment_witness(48, 90)


class TestQuadraticWitness:
    @pytest.mark.parametrize(
        "n, k, parts, chain",
        [
            (
                48,
                90,
                (17, 15, 2) + (1,) * 14,
                ("head=17", "S1_mid_odd", "conjugate"),
            ),
            (48, 496, (32, 8, 4, 1, 1, 1, 1), ("head=32", "oracle")),
            (48, 74, (17, 15) + (1,) * 16, ("head=17", "A2_row_n_odd", "conjugate")),
            (49, 100, (18, 9, 6, 3, 3, 3, 2, 1, 1, 1, 1, 1), ("head=18", "S2_case2", "conjugate")),
        ],
    )
    def test_known_witnesses(self, n, k, parts, chain):
        record = quadratic_segment_witness(n, k)
        assert record.partition.parts == parts
        assert record.family_chain == chain
        assert record.verified

    def test_hole_in_bracketed_residual_is_rescued(self):
        # k = 413 at n = 48 brackets to head 30 with residual target -4 in
        # T_18, which is a genuine hole; the driver must fall back to a
        # different admissible head instead of failing
        record = quadratic_segment_witness(48, 413)
        assert record.partition.parts == (31, 5, 3, 2) + (1,) * 7
        assert record.family_chain == ("head=31", "oracle")
        assert eigenvalue(record.partition) == 413

    def test_negative_side_mirrors(self):
        for k in (74, 90, 413, 496):
            pos = quadratic_segment_witness(48, k)
            neg = quadratic_segment_witness(48, -k)
            assert neg.partition.parts == conjugate(pos.partition).parts
            assert eigenvalue(neg.partition) == -k

    def test_out_of_segment(self):
        with pytest.raises(TargetOutOfSegmentError):
            quadratic_segment_witness(48, 73)
        with pytest.raises(TargetOutOfSegmentError):
            quadratic_segment_witness(48, 497)
        with pytest.raises(TargetOutOfSegmentError):
            quadratic_segment_witness(48, 0)
        with pytest.raises(BelowConstructiveRangeError):
            quadratic_segment_witness(47, 100)


def per_target_quadratic_cover(n):
    """quadratic_segment_cover(n) as quadratic_segment_witness builds it,
    target by target: the reference the per-head cover is held to."""
    bounds = quadratic_segment_bounds(n)
    return segments._run_cover(
        n,
        (bounds.y1, bounds.y2),
        range(bounds.y1, bounds.y2 + 1),
        lambda k: quadratic_segment_witness(n, k),
    )


def quadratic_path(record):
    """"linear_tail", "oracle_tail" or "rescue": the path a positive-target
    quadratic record took, read from its chain against the bracketing head."""
    n, k = record.n, record.target
    low_head, high_head = head_range(n)
    bracket = next(
        first
        for first in range(low_head, high_head + 1)
        if head_interval(n, first)[0] <= k <= head_interval(n, first)[1]
    )
    if record.family_chain[0] != f"head={bracket}":
        return "rescue"
    return "oracle_tail" if record.family_chain[1] == "oracle" else "linear_tail"


class TestQuadraticCover:
    def test_n48_clean(self):
        report = quadratic_segment_cover(48)
        assert report.covered == 496 - 74 + 1
        assert report.failures == ()

    def test_sweep(self):
        for n in range(QUADRATIC_MIN_N, 56):
            report = quadratic_segment_cover(n)
            assert report.failures == (), n
            bounds = quadratic_segment_bounds(n)
            assert report.covered == bounds.y2 - bounds.y1 + 1

    # The cover walks the heads and asks the oracle once per head; it must
    # give what the per-target driver gives: records, order, chains, failures.
    # Up to n = 91 the top heads have residuals below 31 (oracle tails).
    @pytest.mark.parametrize("n", [*range(QUADRATIC_MIN_N, 92), 150, 300])
    def test_equals_the_per_target_driver(self, n):
        cover = quadratic_segment_cover(n)
        assert cover == per_target_quadratic_cover(n)
        bounds = quadratic_segment_bounds(n)
        assert cover.covered == bounds.y2 - bounds.y1 + 1

    @pytest.mark.parametrize("liar", ["lying_builders", "lying_expansion", "lying_table"])
    @pytest.mark.parametrize("n", [48, 55, 60, 91, 150])
    def test_failures_equal_the_per_target_driver(self, request, liar, n):
        # the liar fails exactly the targets whose path it lies on
        lied_to = {"oracle_tail", "rescue"} if liar == "lying_table" else {"linear_tail"}
        expected = [
            record.target
            for record in quadratic_segment_cover(n).records
            if quadratic_path(record) in lied_to
        ]
        request.getfixturevalue(liar)
        cover = quadratic_segment_cover(n)
        assert cover == per_target_quadratic_cover(n)
        assert [target for target, _ in cover.failures] == expected

    @pytest.mark.parametrize("n", [48, 60, 150])
    def test_no_head_fits_equals_the_per_target_driver(self, monkeypatch, n):
        monkeypatch.setattr(segments, "head_interval", lambda n, first: (10**9, 10**9))
        cover = quadratic_segment_cover(n)
        assert cover == per_target_quadratic_cover(n)
        assert cover.covered == 0
        assert all("no leading part" in message for _, message in cover.failures)

    def test_one_failed_tail_fails_only_its_target(self, monkeypatch):
        # a linear tail that raises becomes that target's failure entry, and
        # the walk goes on with the next target
        original = segments._dispatch_witness

        def dispatch(n, k):
            if (n, k) == (31, 5):
                raise OutOfFamilyRangeError(f"no family covers target {k} at n = {n}")
            return original(n, k)

        monkeypatch.setattr(segments, "_dispatch_witness", dispatch)
        failed = {}
        for n in range(QUADRATIC_MIN_N, 92):
            cover = quadratic_segment_cover(n)
            assert cover == per_target_quadratic_cover(n), n
            bounds = quadratic_segment_bounds(n)
            assert cover.covered + len(cover.failures) == bounds.y2 - bounds.y1 + 1
            failed.update({(n, k): message for k, message in cover.failures})
        # at n = 60, head 29 leaves residual 31 with target 380 - C(29, 2) + 31 = 5
        assert (60, 380) in failed
        assert set(failed.values()) == {"no family covers target 5 at n = 31"}

    def test_one_spectrum_per_oracle_tail_head(self, monkeypatch):
        asked = []
        original = segments.spectrum

        def counted(n, constraints=None):
            asked.append((n, constraints.max_first_part))
            return original(n, constraints)

        monkeypatch.setattr(segments, "spectrum", counted)
        cover = quadratic_segment_cover(60)
        assert cover.failures == ()
        # heads 30..40 leave residuals 30..20, below 31; n = 60 has no rescue
        assert asked == [(60 - head, head) for head in range(30, 41)]

    def test_path_mix_of_the_battery_range(self):
        paths = Counter(
            quadratic_path(record)
            for n in range(QUADRATIC_MIN_N, 61)
            for record in quadratic_segment_cover(n).records
        )
        assert paths == {"linear_tail": 1987, "oracle_tail": 4820, "rescue": 30}


# (driver, n, k, chain): one query per witness path, both signs
PATHS = [
    (linear_segment_witness, 40, 7, ("S1_low_even",)),
    (linear_segment_witness, 40, -7, ("S1_low_even", "conjugate")),
    (linear_segment_witness, 30, 5, ("oracle",)),
    (linear_segment_witness, 30, -5, ("oracle",)),
    (quadratic_segment_witness, 100, 1000, ("head=46", "S1_mid_even")),
    (quadratic_segment_witness, 48, 90, ("head=17", "S1_mid_odd", "conjugate")),
    (quadratic_segment_witness, 48, 496, ("head=32", "oracle")),
    (quadratic_segment_witness, 48, 413, ("head=31", "oracle")),  # rescue
    (quadratic_segment_witness, 100, -1000, ("head=46", "S1_mid_even", "conjugate")),
    (quadratic_segment_witness, 48, -413, ("head=31", "oracle", "conjugate")),
]
PATH_IDS = [f"{driver.__name__.split('_')[0]} {n} {k}" for driver, n, k, _ in PATHS]


@pytest.fixture
def lying_builders(monkeypatch):
    # every family shape becomes all ones: a partition of n, wrong value
    for row_class in {type(spec) for spec in FAMILY_REGISTRY.values()}:
        monkeypatch.setattr(
            row_class, "build", lambda self, n, lam: CompactPartition((), 0, n)
        )


@pytest.fixture
def lying_expansion(monkeypatch):
    # the run-length check passes, the expansion gains a part
    original = families.expand

    def expand(compact):
        return Partition(original(compact).parts + (1,))

    monkeypatch.setattr(families, "expand", expand)


@pytest.fixture
def lying_table(monkeypatch):
    # a held value gets the all-ones partition; a hole stays a hole
    original = SpectrumSet.witness

    def witness(self, value):
        if original(self, value) is None:
            return None
        return Partition((1,) * self.n)

    monkeypatch.setattr(SpectrumSet, "witness", witness)


class TestVerifiedOnce:
    """Each public driver checks the partition it returns once, and only
    that check stands between a wrong piece and the caller."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        original = families.make_witness

        def counted(n, target, partition, chain):
            calls.append((n, target))
            return original(n, target, partition, chain)

        monkeypatch.setattr(families, "make_witness", counted)
        monkeypatch.setattr(segments, "make_witness", counted)
        return calls

    @pytest.mark.parametrize("driver, n, k, chain", PATHS, ids=PATH_IDS)
    def test_one_check_per_record(self, checked, driver, n, k, chain):
        record = driver(n, k)
        assert record.family_chain == chain
        assert checked == [(n, k)]

    @pytest.mark.parametrize(
        "liar, driver, n, k",
        [
            (liar, driver, n, k)
            for driver, n, k, chain in PATHS
            for liar in (
                ("lying_table",)
                if "oracle" in chain
                else ("lying_builders", "lying_expansion")
            )
        ],
    )
    def test_lies_are_caught(self, request, liar, driver, n, k):
        request.getfixturevalue(liar)
        with pytest.raises(WitnessVerificationError):
            driver(n, k)


class TestCoverSizeLimit:
    def test_overflow_before_any_witness(self, monkeypatch):
        # n above the formula bound fails once, for the whole cover, before
        # a single witness is built
        def never(*args):
            raise AssertionError(f"piece built for {args}")

        for name in (
            "linear_segment_witness",
            "quadratic_segment_witness",
            "_dispatch_witness",
            "_linear_parts",
            "_quadratic_parts",
            "spectrum",
        ):
            monkeypatch.setattr(segments, name, never)
        for cover in (linear_segment_cover, quadratic_segment_cover):
            with pytest.raises(FormulaOverflowError):
                cover(MAX_FORMULA_N + 1)


class TestConjectureScan:
    def test_gap_between_segments_is_populated_at_48(self):
        report = conjecture_scan(48)
        assert report.segment == (49, 73)
        assert report.covered == 73 - 49 + 1
        assert report.failures == ()

    def test_small_n_uses_wide_window(self):
        report = conjecture_scan(31)
        assert report.covered == 62 - 32 + 1
        assert report.failures == ()

    def test_determinism(self):
        first = conjecture_scan(48).to_json_dict(with_witnesses=True)
        second = conjecture_scan(48).to_json_dict(with_witnesses=True)
        assert first == second

    def test_witnesses_are_real(self):
        full = spectrum(40)
        for record in conjecture_scan(40).records:
            assert eigenvalue(record.partition) == record.target
            assert record.target in full
