"""Partition type, eigenvalue formula, conjugation, and compact forms."""

import copy
import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from tnspec import partitions
from tnspec.errors import (
    FormulaOverflowError,
    HeadTooSmallError,
    NonPositivePartError,
    NotNonincreasingError,
    PartitionError,
    SumMismatchError,
)
from tnspec.oracle import enumerate_partitions
from tnspec.partitions import (
    EMPTY_PARTITION,
    MAX_FORMULA_N,
    RUN_PATH_MIN_PARTS,
    CompactPartition,
    Partition,
    choose2,
    compact_eigenvalue,
    conjugate,
    eigenvalue,
    eigenvalue_of_parts,
    eigenvalue_via_head,
    expand,
    make_partition,
    with_head,
)


def transpose_young_diagram(parts):
    """Independent conjugation: count boxes per column, no early exit."""
    if not parts:
        return ()
    return tuple(
        sum(1 for part in parts if part >= column)
        for column in range(1, max(parts) + 1)
    )


partitions_st = st.lists(st.integers(1, 20), min_size=1, max_size=12).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


def flat_reference(parts):
    """sum_j n_j (n_j - 2j + 1) / 2, one part at a time."""
    doubled = sum(part * (part - 2 * j + 1) for j, part in enumerate(parts, start=1))
    assert doubled % 2 == 0
    return doubled // 2


# Witness-like tuples: a short head, random small parts, then runs of 2s and
# 1s, from a few parts to about 3000, on both sides of RUN_PATH_MIN_PARTS.
run_count_st = st.one_of(st.integers(0, 2 * RUN_PATH_MIN_PARTS), st.integers(0, 1500))
long_parts_st = st.builds(
    lambda head, middle, twos, ones: tuple(sorted(head + middle, reverse=True))
    + (2,) * twos
    + (1,) * ones,
    st.lists(st.integers(3, 400), max_size=4),
    st.lists(st.integers(2, 40), max_size=30),
    run_count_st,
    run_count_st,
).filter(bool)


def raised(parts):
    """(exception class, message) that Partition(parts) raises, or None."""
    try:
        Partition(parts)
    except PartitionError as exc:
        return type(exc), str(exc)
    return None


def per_part_raised(parts):
    """What Partition raises when every length takes the per-part loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "RUN_PATH_MIN_PARTS", len(parts) + 1)
        return raised(parts)


class TestMakePartition:
    def test_basic(self):
        p = make_partition([4, 1, 1])
        assert p.parts == (4, 1, 1)
        assert p.n == 6
        assert p.first_part == 4
        assert len(p) == 3
        assert p[0] == 4
        assert list(p) == [4, 1, 1]

    def test_rejects_unsorted(self):
        with pytest.raises(NotNonincreasingError):
            make_partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositivePartError):
            make_partition([3, 0])
        with pytest.raises(NonPositivePartError):
            make_partition([-1])

    def test_rejects_empty(self):
        with pytest.raises(PartitionError):
            make_partition([])

    def test_empty_partition_exists_internally(self):
        assert EMPTY_PARTITION.n == 0
        assert EMPTY_PARTITION.first_part == 0

    def test_immutability(self):
        p = make_partition([3, 2])
        with pytest.raises(AttributeError):
            p.parts = (5,)


class TestEigenvalue:
    # values checked by hand against the defining sum
    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((4, 1, 1), 3),
            ((3, 3), 3),
            ((4,), 6),
            ((1, 1, 1, 1), -6),
            ((2, 2), 0),
            ((3, 1), 2),
            ((2, 1, 1), -2),
            ((5, 4, 4, 2, 2, 2, 1, 1), -24),
            ((1,), 0),
        ],
    )
    def test_known_values(self, parts, expected):
        assert eigenvalue(Partition(parts)) == expected

    @pytest.mark.parametrize("n", range(1, 40))
    def test_one_row_is_binomial(self, n):
        assert eigenvalue(Partition((n,))) == choose2(n)

    def test_one_column_is_negative_binomial(self):
        for n in range(1, 40):
            assert eigenvalue(Partition((1,) * n)) == -choose2(n)

    def test_bound_attained_only_at_extremes(self):
        # |eig| hits C(n, 2) exactly at the single row and single column
        for n in range(2, 13):
            top = choose2(n)
            for p in enumerate_partitions(n):
                value = eigenvalue(p)
                assert -top <= value <= top
                if value == top:
                    assert p.parts == (n,)
                if value == -top:
                    assert p.parts == (1,) * n

    def test_overflow_guard(self):
        big = Partition((MAX_FORMULA_N + 1,))
        with pytest.raises(FormulaOverflowError):
            eigenvalue(big)
        # the guard is about n, not the individual value
        assert eigenvalue(Partition((MAX_FORMULA_N,))) == choose2(MAX_FORMULA_N)


class TestConjugate:
    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((4, 1, 1), (3, 1, 1, 1)),
            ((3, 3), (2, 2, 2)),
            ((3, 1, 1), (3, 1, 1)),
            ((5,), (1, 1, 1, 1, 1)),
            ((2, 2), (2, 2)),
        ],
    )
    def test_known_values(self, parts, expected):
        assert conjugate(Partition(parts)).parts == expected

    def test_matches_young_diagram_transpose(self):
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                assert conjugate(p).parts == transpose_young_diagram(p.parts)

    def test_matches_young_diagram_transpose_to_30(self):
        # first parts up to 30 cross RUN_PATH_MIN_PARTS: a short partition's
        # conjugate is built from its runs and held as runs only when long
        for n in range(13, 31):
            for p in enumerate_partitions(n):
                q = conjugate(p)
                assert q.parts == transpose_young_diagram(p.parts)
                assert (q._runs is None) is (len(q) < RUN_PATH_MIN_PARTS)

    @pytest.mark.parametrize("first", [23, 24, 25])
    @pytest.mark.parametrize(
        "rest", [(), (1,) * 3, (5, 5, 2, 1), (2,) * 30 + (1,) * 10, (23, 23, 23)]
    )
    def test_first_parts_around_the_threshold(self, first, rest):
        parts = (first,) + tuple(part for part in rest if part <= first)
        q = conjugate(Partition(parts))
        assert q.parts == transpose_young_diagram(parts)
        assert (q._runs is None) is (first < RUN_PATH_MIN_PARTS)
        assert conjugate(q).parts == parts
        assert eigenvalue(q) == -eigenvalue(Partition(parts))

    def test_involution_and_antisymmetry_exhaustive(self):
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                q = conjugate(p)
                assert q.n == n
                assert conjugate(q).parts == p.parts
                assert eigenvalue(q) == -eigenvalue(p)

    def test_self_conjugate_means_zero(self):
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                if conjugate(p).parts == p.parts:
                    assert eigenvalue(p) == 0

    def test_empty(self):
        assert conjugate(EMPTY_PARTITION).parts == ()

    @given(partitions_st)
    def test_antisymmetry_property(self, p):
        assert eigenvalue(conjugate(p)) == -eigenvalue(p)
        assert conjugate(conjugate(p)).parts == p.parts


class TestLongPartitions:
    """The run path (from RUN_PATH_MIN_PARTS parts on) against per-part
    references, on the shapes the segment witnesses have."""

    @settings(max_examples=60, deadline=None)
    @given(long_parts_st)
    def test_conjugate_is_the_transpose_and_an_involution(self, parts):
        p = Partition(parts)
        q = conjugate(p)
        assert q.parts == transpose_young_diagram(parts)
        assert conjugate(q).parts == parts

    @settings(max_examples=60, deadline=None)
    @given(long_parts_st)
    def test_eigenvalue_matches_the_per_part_sum(self, parts):
        p = Partition(parts)
        assert p.n == sum(parts)
        assert eigenvalue(p) == flat_reference(parts)
        assert eigenvalue(conjugate(p)) == -flat_reference(parts)

    @given(st.lists(st.integers(-3, 6), max_size=3 * RUN_PATH_MIN_PARTS))
    def test_raw_sequences_match_the_per_part_sum(self, parts):
        # eigenvalue_of_parts validates nothing; runs are read as given
        assert eigenvalue_of_parts(parts) == flat_reference(parts)

    @pytest.mark.parametrize(
        "parts, error",
        [
            # a 0 inside a long 1-run
            ((5, 2, 2) + (1,) * 30 + (0,) + (1,) * 30, NonPositivePartError),
            # a negative part after an increase: the increase is reported
            ((5,) + (2,) * 30 + (3, -1) + (1,) * 10, NotNonincreasingError),
            # an increase after a nonpositive part: the part is reported
            ((5,) + (1,) * 30 + (0, 2) + (1,) * 10, NonPositivePartError),
            ((-1,) * 40, NonPositivePartError),
            ((1,) * 40 + (2,), NotNonincreasingError),
        ],
    )
    def test_malformed_tuples_raise_as_the_per_part_loop(self, parts, error):
        assert len(parts) >= RUN_PATH_MIN_PARTS
        got = raised(parts)
        assert got is not None and got[0] is error
        assert got == per_part_raised(parts)

    @settings(max_examples=200, deadline=None)
    @given(long_parts_st, st.data())
    def test_corrupted_tuples_raise_as_the_per_part_loop(self, parts, data):
        index = data.draw(st.integers(0, len(parts) - 1))
        value = data.draw(st.integers(-2, parts[0] + 2))
        corrupt = parts[:index] + (value,) + parts[index + 1 :]
        assert raised(corrupt) == per_part_raised(corrupt)


class TestRunStorage:
    """From RUN_PATH_MIN_PARTS parts on a Partition holds its runs, not its
    tuple; it must still behave exactly like the tuple it stands for."""

    @settings(max_examples=60, deadline=None)
    @given(long_parts_st)
    def test_behaves_like_its_tuple(self, parts):
        p = Partition(parts)
        assert p.parts == parts and p.n == sum(parts)
        assert len(p) == len(parts) and p.first_part == parts[0]
        assert list(p) == list(parts) and p[-1] == parts[-1]
        assert str(p) == " ".join(map(str, parts))
        assert repr(p) == f"Partition(parts={parts!r}, n={sum(parts)})"
        assert hash(p) == hash((parts, sum(parts)))
        assert p == Partition(list(parts)) and p != Partition(parts + (1,))
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.deepcopy(p) == p

    def test_str_of_the_empty_partition(self):
        # test_behaves_like_its_tuple checks str on both sides of the threshold
        assert str(EMPTY_PARTITION) == "()"

    @settings(max_examples=60, deadline=None)
    @given(long_parts_st.filter(lambda parts: len(parts) >= RUN_PATH_MIN_PARTS))
    def test_long_partitions_keep_no_tuple_of_their_parts(self, parts):
        # what the garbage collector walks: two integers per run
        held = [
            item for item in gc.get_referents(Partition(parts)) if isinstance(item, tuple)
        ]
        assert sum(map(len, held)) == 2 * len(set(parts))

    def test_equal_across_thresholds(self):
        parts = (4, 2, 2) + (1,) * 30
        runs = Partition(parts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partitions, "RUN_PATH_MIN_PARTS", len(parts) + 1)
            flat = Partition(parts)
        assert runs == flat and hash(runs) == hash(flat)

    def test_frozen(self):
        p = Partition((3,) + (1,) * 40)
        for name in ("parts", "n", "_runs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, None)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(2, 60), max_size=6),
        st.integers(0, 2 * RUN_PATH_MIN_PARTS),
        st.integers(0, 2 * RUN_PATH_MIN_PARTS),
    )
    def test_expand_equals_the_built_tuple(self, head, twos, ones):
        head = tuple(sorted(head, reverse=True))
        compact = CompactPartition(head, twos, ones)
        expected = head + (2,) * twos + (1,) * ones
        assert expand(compact) == Partition(expected)
        assert expand(compact).parts == expected
        assert eigenvalue(expand(compact)) == flat_reference(expected)

    @settings(max_examples=60, deadline=None)
    @given(long_parts_st, st.integers(0, 3))
    def test_with_head_equals_the_joined_tuple(self, parts, extra):
        for tail in (Partition(parts), Partition(parts[:5])):
            first = tail.first_part + extra
            joined = with_head(first, tail)
            assert joined == Partition((first,) + tail.parts)
            assert eigenvalue(joined) == flat_reference((first,) + tail.parts)

    def test_with_head_below_the_tail_raises_as_the_tuple(self):
        tail = Partition((5,) + (1,) * 30)
        with pytest.raises(NotNonincreasingError) as caught:
            with_head(4, tail)
        assert str(caught.value) == raised((4,) + tail.parts)[1]


class TestHeadDecomposition:
    def test_example(self):
        assert eigenvalue_via_head(4, Partition((1, 1)), 6) == 3

    def test_degenerate_tail(self):
        assert eigenvalue_via_head(7, EMPTY_PARTITION, 7) == choose2(7)

    def test_large_case(self):
        tail = Partition((15, 2) + (1,) * 14)
        assert eigenvalue_via_head(17, tail, 48) == 90
        assert eigenvalue(Partition((17,) + tail.parts)) == 90

    def test_agrees_with_direct_formula_exhaustive(self):
        for n in range(2, 13):
            for p in enumerate_partitions(n):
                first = p.parts[0]
                tail = Partition(p.parts[1:])
                assert eigenvalue_via_head(first, tail, n) == eigenvalue(p)

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatchError):
            eigenvalue_via_head(4, Partition((1, 1)), 7)

    def test_head_too_small(self):
        with pytest.raises(HeadTooSmallError):
            eigenvalue_via_head(2, Partition((3,)), 5)

    def test_nonpositive_head(self):
        with pytest.raises(NonPositivePartError):
            eigenvalue_via_head(0, EMPTY_PARTITION, 0)


class TestCompactForm:
    def test_expand(self):
        c = CompactPartition((5, 4, 4), 3, 2)
        assert expand(c).parts == (5, 4, 4, 2, 2, 2, 1, 1)
        assert c.n == 21
        assert c.head_length == 3

    def test_expand_head_may_hold_twos(self):
        assert expand(CompactPartition((2,), 1, 1)).parts == (2, 2, 1)

    def test_empty_head(self):
        assert expand(CompactPartition((), 0, 3)).parts == (1, 1, 1)
        assert expand(CompactPartition((), 2, 0)).parts == (2, 2)

    def test_rejects_ones_in_head(self):
        with pytest.raises(PartitionError):
            CompactPartition((3, 1), 0, 0)

    def test_rejects_unsorted_head(self):
        with pytest.raises(NotNonincreasingError):
            CompactPartition((3, 4), 0, 0)

    def test_rejects_negative_multiplicities(self):
        with pytest.raises(PartitionError):
            CompactPartition((3,), -1, 0)

    def test_eigenvalue_example(self):
        assert compact_eigenvalue(CompactPartition((5, 4, 4), 3, 2)) == -24

    def test_no_tail_reduces_to_head(self):
        assert compact_eigenvalue(CompactPartition((6, 3), 0, 0)) == eigenvalue(
            Partition((6, 3))
        )

    def test_ones_only_shortcut(self):
        assert compact_eigenvalue(CompactPartition((17,), 0, 14)) == 31
        assert compact_eigenvalue(CompactPartition((10, 3), 0, 6)) == 18
        assert compact_eigenvalue(CompactPartition((5,), 0, 4)) == 0

    def test_ones_shortcut_matches_general_form(self):
        # with no run of 2s: eig = eig(head) - C(ones, 2) - ones * len(head)
        for head in [(7,), (6, 4), (9, 3, 2)]:
            for ones in range(0, 8):
                shortcut = (
                    eigenvalue(Partition(head)) - choose2(ones) - ones * len(head)
                )
                assert shortcut == compact_eigenvalue(CompactPartition(head, 0, ones))

    def test_randomized_agreement_with_direct_formula(self):
        # 10^4 random compact forms with expanded n <= 30
        rng = random.Random(20260826)
        cases = 0
        while cases < 10_000:
            head_len = rng.randint(0, 4)
            head = tuple(
                sorted((rng.randint(2, 9) for _ in range(head_len)), reverse=True)
            )
            c = CompactPartition(head, rng.randint(0, 5), rng.randint(0, 8))
            if not 1 <= c.n <= 30:
                continue
            assert compact_eigenvalue(c) == eigenvalue(expand(c))
            cases += 1

    @given(
        st.lists(st.integers(2, 9), min_size=0, max_size=4).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
        st.integers(0, 5),
        st.integers(0, 8),
    )
    def test_agreement_property(self, head, twos, ones):
        c = CompactPartition(head, twos, ones)
        if c.n >= 1:
            assert compact_eigenvalue(c) == eigenvalue(expand(c))
