"""Verification harness: reports, sampling caps, check registry."""

import json

import pytest

from tnspec import verify
from tnspec.errors import InvalidArgumentError
from tnspec.oracle import SpectrumSet
from tnspec.partitions import choose2
from tnspec.segments import quadratic_segment_bounds
from tnspec.verify import (
    DEFAULT_CHECKS,
    MAX_FAILURE_SAMPLES,
    FamilyId,
    VerificationReport,
    _collect,
    cross_check_oracle,
    format_table,
    run_checks,
    summary_dict,
    verify_family,
    verify_first_part_bounds,
    verify_linear_segment,
    verify_quadratic_segment,
)


class TestVerifyFamily:
    def test_a2_top_row_odd(self):
        report = verify_family(FamilyId.A2_ROW_N_ODD, n_range=(19, 79))
        assert report.check_id == "family:A2_row_n_odd"
        # a family's value names it as well as its FamilyId
        assert verify_family("A2_row_n_odd", (19, 79)).check_id == report.check_id
        assert report.cases_run == 31  # one odd n out of every two
        assert report.cases_failed == 0
        assert report.ok

    def test_single_n(self):
        report = verify_family(FamilyId.S1_LOW_ODD, n_range=(7, 7))
        assert report.cases_run == 1
        assert report.ok

    def test_empty_range_is_vacuous(self):
        report = verify_family(FamilyId.S2_CASE1, n_range=(5, 6))
        assert report.cases_run == 0
        assert report.ok

    def test_all_families_to_60(self):
        for family in FamilyId:
            report = verify_family(family, n_range=(1, 60))
            assert report.ok, report.check_id


class TestCollect:
    def test_failure_samples_are_capped(self):
        outcomes = [
            (f"case{i}", False, "want", f"got{i}") for i in range(40)
        ]
        report = _collect("synthetic", (1, 1), outcomes)
        assert report.cases_run == 40
        assert report.cases_failed == 40
        assert len(report.failure_samples) == MAX_FAILURE_SAMPLES
        assert report.failure_samples[0].inputs == "case0"
        assert not report.ok

    def test_mixed_outcomes(self):
        outcomes = [("a", True, "", ""), ("b", False, "1", "2")]
        report = _collect("synthetic", (1, 1), outcomes)
        assert report.cases_run == 2
        assert report.cases_failed == 1
        assert report.failure_samples[0].expected == "1"
        assert report.failure_samples[0].got == "2"


class TestReportSerialization:
    def test_canonical_json_excludes_elapsed(self):
        report = verify_first_part_bounds((31, 33))
        payload = json.loads(report.canonical_json())
        assert "elapsed" not in payload
        assert payload["check_id"] == "first_part_bounds"

    def test_canonical_json_is_deterministic(self):
        first = verify_first_part_bounds((31, 35)).canonical_json()
        second = verify_first_part_bounds((31, 35)).canonical_json()
        assert first == second

    def test_json_dict_includes_elapsed_by_default(self):
        report = verify_first_part_bounds((31, 32))
        assert "elapsed" in report.to_json_dict()
        assert "elapsed" not in report.to_json_dict(include_elapsed=False)


class TestSegmentChecks:
    def test_linear(self):
        report = verify_linear_segment((31, 40))
        assert report.cases_failed == 0
        # 2n+1 targets plus one max-first-part case per n
        assert report.cases_run == sum(2 * n + 2 for n in range(31, 41))

    def test_quadratic(self):
        report = verify_quadratic_segment((48, 50))
        assert report.cases_failed == 0
        assert report.cases_run > 0

    def test_oracle_cross_check(self):
        report = cross_check_oracle((2, 12))
        assert report.cases_failed == 0


class TestOracleCrossCheck:
    """The cross-check tests both theorems on the oracle's table alone."""

    def test_default_range_case_count(self):
        # 44 symmetry cases, 5 Cayley cases (n = 2..6) and 2n + 1 linear
        # targets for each n = 31..45
        assert cross_check_oracle((2, 45)).cases_run == 1204

    def test_runs_no_cover(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"cover of n = {n} run by the cross-check")

        monkeypatch.setattr(verify, "linear_segment_cover", refuse)
        monkeypatch.setattr(verify, "quadratic_segment_cover", refuse)
        report = cross_check_oracle((44, 50))
        assert report.ok
        expected = 0
        for n in range(44, 51):
            expected += 1 + 2 * n + 1  # symmetry, then the linear targets
            if n >= 48:
                bounds = quadratic_segment_bounds(n)
                expected += bounds.y2 - bounds.y1 + 1
        assert report.cases_run == expected

    def test_missing_values_fail_exactly_their_cases(self, monkeypatch):
        # clear +-7 from T_40 and +-y1 = +-74 from T_48; clearing both signs
        # keeps each spectrum symmetric
        cleared = {40: (-7, 7), 48: (-74, 74)}
        original = verify.spectrum

        def holed(n, constraints=None):
            found = original(n, constraints)
            bits = found.bits
            for value in cleared.get(n, ()):
                bits &= ~(1 << (value + choose2(n)))
            return SpectrumSet(n, bits, found.walk_back)

        monkeypatch.setattr(verify, "spectrum", holed)
        assert quadratic_segment_bounds(48).y1 == 74
        report = cross_check_oracle((31, 50))
        assert [sample.inputs for sample in report.failure_samples] == [
            "n=40 k=-7 linear",
            "n=40 k=7 linear",
            "n=48 k=74 quadratic",
        ]
        assert report.cases_failed == 3
        for sample in report.failure_samples:
            assert sample.expected == "witness value in oracle spectrum"
            assert sample.got == "missing"


class TestRunChecks:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_checks(["no_such_check"])

    def test_registry_covers_every_family(self):
        family_ids = {f"family:{f.value}" for f in FamilyId}
        assert family_ids <= set(DEFAULT_CHECKS)

    def test_range_clamping(self):
        # asking for n far below a check's floor clamps to the floor
        # rather than silently verifying nothing
        (report,) = run_checks(["linear_segment"], n_min=2, n_max=33)
        assert report.n_range == (31, 33)
        assert report.cases_run > 0

    def test_empty_range_is_rejected(self):
        # a range that clamps to nothing would report success on zero cases
        with pytest.raises(InvalidArgumentError) as info:
            run_checks(n_min=100)
        for check_id in DEFAULT_CHECKS:
            assert check_id in str(info.value)
        with pytest.raises(InvalidArgumentError) as info:
            run_checks(["linear_segment", "oracle_cross_check"], n_min=50, n_max=60)
        assert "oracle_cross_check (50..45)" in str(info.value)
        assert "linear_segment" not in str(info.value)

    def test_summary_and_table(self):
        reports = run_checks(
            ["family:Zero", "first_part_bounds"], n_min=31, n_max=35
        )
        summary = summary_dict(reports)
        assert summary["ok"] is True
        assert summary["total_failed"] == 0
        assert summary["total_cases"] == sum(r.cases_run for r in reports)
        table = format_table(reports)
        assert "family:Zero" in table
        assert "first_part_bounds" in table


class TestCrashes:
    def test_crash_becomes_failed_case(self, monkeypatch):
        def broken(family, n, lam):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "build_family", broken)
        for report in (
            verify_family(FamilyId.ZERO, (31, 32)),
            verify_first_part_bounds((31, 31)),
        ):
            assert report.cases_run > 0
            assert report.cases_failed == report.cases_run
            assert report.failure_samples
            for sample in report.failure_samples:
                assert sample.got == "RuntimeError: boom"
