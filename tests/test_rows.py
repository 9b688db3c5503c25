import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monotri.rows
from monotri import (
    BudgetExceededError,
    EnumerationLimits,
    Triangle,
    count_triangles,
    dmt_admissible_rows,
    enumerate_dmt,
    enumerate_gmt,
    enumerate_mt,
    gmt_admissible_rows,
    mt_admissible_rows,
    row_sign_changes,
    sc_statistic,
    signed_gmt_count,
    triangle_totals,
    validate_dmt,
    validate_gmt,
    validate_monotone_triangle,
)
from oracles import (
    StreamBudgetError,
    gmt_ok,
    gmt_set_brute,
    mt_count_brute,
    sc_brute,
    signed_count_closures,
    signed_gmt_brute,
    stream_generators,
)


def brute_admissible(k):
    """Window-box filter through the two-row fragment conditions, excluding
    rows with three consecutive equal entries."""
    m = len(k)
    windows = [range(min(k[j], k[j + 1]), max(k[j], k[j + 1]) + 1) for j in range(m - 1)]
    out = []
    for l in product(*windows):
        if any(l[j] == l[j + 1] == l[j + 2] for j in range(len(l) - 2)):
            continue
        if gmt_ok([l, tuple(k)]):
            out.append((l, sc_brute([l, tuple(k)])))
    return out


class TestGmtAdmissibleRows:
    def test_worked_example(self):
        rows = gmt_admissible_rows((4, 2, 1, 3))
        assert rows == [(2, 2, 1), (2, 2, 3), (3, 1, 1)]
        assert [row_sign_changes((4, 2, 1, 3), row) for row in rows] == [1, 1, 2]

    def test_increasing_pair(self):
        assert gmt_admissible_rows((1, 2)) == [(1,), (2,)]
        assert [row_sign_changes((1, 2), row) for row in gmt_admissible_rows((1, 2))] == [0, 0]

    def test_descending_pair_forces_single_newcomer(self):
        assert gmt_admissible_rows((3, 1)) == [(2,)]
        assert row_sign_changes((3, 1), (2,)) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            gmt_admissible_rows((5,))

    def test_matches_window_filter(self):
        rng = random.Random(42)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for n in (2, 3, 4, 5) for _ in range(30)]
        rows += [(4, 2, 1, 3), (2, 4, 0), (0, 3, 3, -1), (2, 0, 3, 0), (1, 1, 1, 1)]
        for k in rows:
            got = [(row, row_sign_changes(k, row)) for row in gmt_admissible_rows(k)]
            assert got == brute_admissible(k), k

    def test_contribution_matches_fragment_statistic(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.choice([2, 3, 4])
            k = tuple(rng.randint(-3, 3) for _ in range(n))
            for row in gmt_admissible_rows(k):
                sc = row_sign_changes(k, row)
                assert sc == sc_brute([row, k])
                if n == 2:
                    assert sc == sc_statistic(Triangle([row, k])).sc

    def test_strictly_increasing_case_reduces_to_interlacing(self):
        for k in [(1, 2), (1, 3, 5), (0, 2, 3, 7)]:
            assert gmt_admissible_rows(k) == mt_admissible_rows(k)
            assert all(row_sign_changes(k, row) == 0 for row in gmt_admissible_rows(k))


class TestMtAdmissibleRows:
    def test_small_windows(self):
        assert mt_admissible_rows((1, 3)) == [(1,), (2,), (3,)]
        assert mt_admissible_rows((1, 2)) == [(1,), (2,)]

    def test_interlacing_with_strictness(self):
        assert mt_admissible_rows((2, 4, 5)) == [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            mt_admissible_rows((2, 2))


class TestDmtAdmissibleRows:
    def test_non_decreasing_rejected(self):
        with pytest.raises(ValueError):
            dmt_admissible_rows((1, 2))

    def test_doubled_bottom(self):
        assert dmt_admissible_rows((1, 1)) == [(1,)]
        assert dmt_admissible_rows((2, 1)) == []


class TestEnumeration:
    def test_four_triangles_in_order_with_signs(self):
        triangles = list(enumerate_gmt((4, 2, 1, 3)))
        assert [t.rows for t in triangles] == [
            ((2,), (2, 2), (2, 2, 1), (4, 2, 1, 3)),
            ((2,), (2, 3), (2, 2, 3), (4, 2, 1, 3)),
            ((3,), (2, 3), (2, 2, 3), (4, 2, 1, 3)),
            ((1,), (1, 1), (3, 1, 1), (4, 2, 1, 3)),
        ]
        assert [sc_statistic(t).sign for t in triangles] == [1, -1, -1, -1]

    def test_single_entry_bottom(self):
        assert len(list(enumerate_gmt((5,)))) == 1

    def test_gmt_outputs_are_valid(self):
        for t in enumerate_gmt((3, 0, 2)):
            assert validate_gmt(t)

    def test_gmt_matches_box_enumeration(self):
        for bottom in [(4, 2, 1, 3), (2, 4, 0), (1, 1, 2), (2, 2)]:
            expected = sorted(tuple(r) for r in gmt_set_brute(bottom))
            got = sorted(t.rows for t in enumerate_gmt(bottom))
            assert got == [tuple(map(tuple, rows)) for rows in expected]

    def test_mt_count_seven(self):
        triangles = list(enumerate_mt((1, 2, 3)))
        assert len(triangles) == 7 == mt_count_brute((1, 2, 3))
        for t in triangles:
            assert validate_monotone_triangle(t)

    def test_mt_is_gmt_for_increasing_bottom(self):
        assert [t.rows for t in enumerate_mt((1, 2, 3))] == [t.rows for t in enumerate_gmt((1, 2, 3))]

    def test_mt_large_golden_count(self):
        assert sum(1 for _ in enumerate_mt((2, 4, 5, 8, 9))) == 16939

    def test_mt_requires_increasing(self):
        with pytest.raises(ValueError):
            list(enumerate_mt((2, 1)))

    def test_dmt_examples(self):
        assert len(list(enumerate_dmt((1, 1)))) == 1
        assert list(enumerate_dmt((2, 1))) == list(enumerate_gmt((2, 1))) == []
        for t in enumerate_dmt((2, 2, 1)):
            assert validate_dmt(t)

    def test_dmt_set_equals_gmt_set(self):
        for bottom in [(2, 1), (3, 2, 1), (2, 2, 1), (1, 1, 1), (3, 1, 1, 0)]:
            dmt = sorted(t.rows for t in enumerate_dmt(bottom))
            gmt = sorted(t.rows for t in enumerate_gmt(bottom))
            assert dmt == gmt

    def test_dmt_signed_count_matches(self):
        triangles = list(enumerate_dmt((3, 2, 1)))
        assert sum(sc_statistic(t).sign for t in triangles) == signed_gmt_count((3, 2, 1)) == -1

    def test_dmt_requires_decreasing(self):
        with pytest.raises(ValueError):
            list(enumerate_dmt((1, 2)))

    def test_determinism(self):
        first = [t.rows for t in enumerate_gmt((3, 0, 2, 1))]
        second = [t.rows for t in enumerate_gmt((3, 0, 2, 1))]
        assert first == second


class TestBudgets:
    def test_triangle_budget(self):
        limits = EnumerationLimits(max_triangles=2)
        stream = enumerate_gmt((4, 2, 1, 3), limits)
        assert next(stream).n == 4
        assert next(stream).n == 4
        with pytest.raises(BudgetExceededError):
            next(stream)

    def test_row_budget(self):
        limits = EnumerationLimits(max_rows_generated=3)
        with pytest.raises(BudgetExceededError):
            list(enumerate_mt((2, 4, 5, 8, 9), limits))

    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError):
            EnumerationLimits(max_triangles=0)

    def test_normal_completion_is_not_an_error(self):
        limits = EnumerationLimits(max_triangles=4)
        assert len(list(enumerate_gmt((4, 2, 1, 3), limits))) == 4


class TestSignedCount:
    def test_golden_values(self):
        assert signed_gmt_count((4, 2, 1, 3)) == -2
        assert signed_gmt_count((2, 4, 5, 8, 9)) == 16939
        assert signed_gmt_count((3, 1)) == -1

    def test_matches_box_enumeration(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.choice([2, 3])
            k = tuple(rng.randint(-2, 2) for _ in range(n))
            assert signed_gmt_count(k) == signed_gmt_brute(k), k

    def test_matches_sign_sum_of_stream(self):
        for bottom in [(4, 2, 1, 3), (2, 4, 0), (0, 0, 1)]:
            total = sum(sc_statistic(t).sign for t in enumerate_gmt(bottom))
            assert signed_gmt_count(bottom) == total


class TestStructuralProperties:
    def test_penultimate_rows_are_admissible(self):
        # every penultimate row of a complete triangle is admissible, with the
        # contribution of its two-row fragment; admissible rows missing from
        # the stream have no completion at all
        for bottom in [(4, 2, 1, 3), (2, 4, 0), (1, 3, 2)]:
            admissible = set(gmt_admissible_rows(bottom))
            seen = set()
            for t in enumerate_gmt(bottom):
                pen = t.rows[-2]
                seen.add(pen)
                assert pen in admissible
                assert row_sign_changes(bottom, pen) == sc_brute([pen, bottom])
            for row in set(admissible) - seen:
                assert list(enumerate_gmt(row)) == []

    def test_sign_changes_accumulate_along_levels(self):
        for bottom in [(4, 2, 1, 3), (3, 0, 2, 1)]:
            for t in enumerate_gmt(bottom):
                per_level = sum(
                    row_sign_changes(t.rows[i + 1], t.rows[i]) for i in range(t.n - 1)
                )
                assert per_level == sc_statistic(t).sc


# --- the flat stream and the count against the nested-generator reference ----

STREAMS = {"gmt": enumerate_gmt, "mt": enumerate_mt, "dmt": enumerate_dmt}
EXPANSIONS = {
    "gmt": gmt_admissible_rows,
    "mt": mt_admissible_rows,
    "dmt": dmt_admissible_rows,
}
ENTRIES = st.integers(-3, 4)
BOTTOMS = {
    "gmt": st.lists(ENTRIES, min_size=1, max_size=5).map(tuple),
    "mt": st.sets(ENTRIES, min_size=1, max_size=5).map(lambda s: tuple(sorted(s))),
    # weakly decreasing, no value three times (such rows have no triangle)
    "dmt": st.lists(ENTRIES, min_size=1, max_size=5)
             .map(lambda r: tuple(sorted(r, reverse=True)))
             .filter(lambda r: all(r.count(v) <= 2 for v in r)),
}
CLASS_AND_BOTTOM = st.sampled_from(sorted(BOTTOMS)).flatmap(
    lambda klass: st.tuples(st.just(klass), BOTTOMS[klass]))
LIMITS = st.one_of(st.none(), st.builds(EnumerationLimits, st.integers(1, 60), st.integers(1, 60)))


def _drain(stream):
    """Everything a stream yields, and the message of the budget error that
    ended it (None when it ran to the end)."""
    out = []
    try:
        for item in stream:
            out.append(item)
    except (BudgetExceededError, StreamBudgetError) as exc:
        return out, str(exc)
    return out, None


def _reference(klass, bottom, limits):
    limits = limits or EnumerationLimits()
    return _drain(stream_generators(bottom, EXPANSIONS[klass],
                                    limits.max_rows_generated, limits.max_triangles))


class TestFlatStream:
    @settings(max_examples=150, deadline=None)
    @given(CLASS_AND_BOTTOM, LIMITS)
    def test_same_sequence_and_budget_error_as_reference(self, case, limits):
        klass, bottom = case
        triangles, error = _drain(STREAMS[klass](bottom, limits))
        assert ([t.rows for t in triangles], error) == _reference(klass, bottom, limits)

    def test_pinned_budget_points(self):
        bottom = (2, 4, 5, 8, 9)
        for limits in (EnumerationLimits(max_triangles=1), EnumerationLimits(max_triangles=16939),
                       EnumerationLimits(max_rows_generated=1), EnumerationLimits(max_rows_generated=40)):
            triangles, error = _drain(enumerate_mt(bottom, limits))
            assert ([t.rows for t in triangles], error) == _reference("mt", bottom, limits)

    def test_single_entry_bottom_ignores_the_row_budget(self):
        limits = EnumerationLimits(max_rows_generated=1, max_triangles=1)
        assert [t.rows for t in enumerate_gmt((7,), limits)] == [((7,),)]

    def test_empty_bottom_is_rejected_when_read(self):
        stream = enumerate_gmt(())
        with pytest.raises(ValueError, match="must not be empty"):
            next(stream)


class TestCountTriangles:
    @settings(max_examples=300, deadline=None)
    @given(CLASS_AND_BOTTOM, LIMITS)
    def test_equals_stream_length_or_same_budget_error(self, case, limits):
        klass, bottom = case
        try:
            signs = [sc_statistic(t).sign for t in STREAMS[klass](bottom, limits)]
            expected = ("totals", len(signs), sum(signs))
        except BudgetExceededError as exc:
            expected = ("budget", str(exc))
        try:
            got = ("totals", count_triangles(klass, bottom, limits),
                   triangle_totals(klass, bottom, limits or EnumerationLimits())[1])
        except BudgetExceededError as exc:
            got = ("budget", str(exc))
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(CLASS_AND_BOTTOM)
    def test_unbudgeted_totals_match_closure_reference(self, case):
        klass, bottom = case
        expected = signed_count_closures(bottom, EXPANSIONS[klass])
        assert triangle_totals(klass, bottom, None) == expected
        if klass == "gmt":
            assert signed_gmt_count(bottom) == expected[1]

    def test_unbudgeted_walk_passes_any_budget(self):
        # staircase 8 has 10,850,216 triangles, past the default triangle budget
        assert triangle_totals("gmt", tuple(range(1, 9)), None) == (10850216, 10850216)
        with pytest.raises(BudgetExceededError, match="triangle budget exhausted"):
            count_triangles("gmt", tuple(range(1, 9)))

    def test_golden_totals(self):
        assert triangle_totals("gmt", (4, 2, 1, 3), None) == (4, -2)
        assert triangle_totals("gmt", (3, 1), None) == (1, -1)
        assert triangle_totals("dmt", (3, 2, 1), None) == (len(list(enumerate_dmt((3, 2, 1)))), -1)
        assert triangle_totals("mt", (2, 4, 5, 8, 9), EnumerationLimits()) == (16939, 16939)
        assert triangle_totals("gmt", (5,), None) == (1, 1)
        assert triangle_totals("dmt", (1, 1, 1), None) == (0, 0)

    def test_golden_counts(self):
        assert count_triangles("gmt", (4, 2, 1, 3)) == 4
        assert count_triangles("mt", (2, 4, 5, 8, 9)) == 16939
        assert count_triangles("mt", (1, 2, 3)) == 7
        assert count_triangles("dmt", (3, 2, 1)) == len(list(enumerate_dmt((3, 2, 1))))
        assert count_triangles("gmt", (5,)) == 1
        assert count_triangles("dmt", (2, 1)) == 0

    def test_dmt_row_with_a_value_three_times_has_none(self):
        assert count_triangles("dmt", (1, 1, 1)) == 0
        assert count_triangles("dmt", (3, 2, 2, 2, 0)) == 0

    def test_same_bottom_row_checks_as_the_streams(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            count_triangles("mt", (2, 1))
        with pytest.raises(ValueError, match="weakly decreasing"):
            count_triangles("dmt", (1, 2))
        with pytest.raises(ValueError, match="must not be empty"):
            count_triangles("gmt", ())
        with pytest.raises(ValueError, match="unknown triangle class"):
            count_triangles("tn", (1, 2))

    def test_budget_error_at_the_stream_point(self):
        limits = EnumerationLimits(max_triangles=16938)
        with pytest.raises(BudgetExceededError, match="triangle budget exhausted"):
            count_triangles("mt", (2, 4, 5, 8, 9), limits)
        assert count_triangles("mt", (2, 4, 5, 8, 9), EnumerationLimits(max_triangles=16939)) == 16939
        with pytest.raises(BudgetExceededError, match="row generation budget exhausted"):
            count_triangles("mt", (2, 4, 5, 8, 9), EnumerationLimits(max_rows_generated=3))

    def test_never_expands_more_rows_than_the_stream(self, monkeypatch):
        calls = []

        def counted(row):
            calls.append(row)
            return mt_admissible_rows(row)

        monkeypatch.setattr(monotri.rows, "mt_admissible_rows", counted)
        for limits in (None, EnumerationLimits(max_triangles=5000), EnumerationLimits(max_rows_generated=900)):
            calls.clear()
            _drain(enumerate_mt((2, 4, 5, 8, 9), limits))
            streamed = list(calls)
            calls.clear()
            try:
                count_triangles("mt", (2, 4, 5, 8, 9), limits)
            except BudgetExceededError:
                pass
            assert len(calls) < len(streamed)
            assert set(calls) <= set(streamed)

    def test_mt_walk_takes_no_sign(self, monkeypatch):
        # a strictly increasing row has no descent and no equal neighbours
        def refuse(lower, upper):
            raise AssertionError("row_sign_changes called on an mt walk")

        monkeypatch.setattr(monotri.rows, "row_sign_changes", refuse)
        assert triangle_totals("mt", (2, 4, 5, 8, 9), None) == (16939, 16939)
        with pytest.raises(BudgetExceededError, match="triangle budget exhausted"):
            count_triangles("mt", (2, 4, 5, 8, 9), EnumerationLimits(max_triangles=16938))

    def test_count_takes_no_sign(self, monkeypatch):
        # the number of triangles does not depend on the edge signs
        def refuse(lower, upper):
            raise AssertionError("row_sign_changes called on a count")

        monkeypatch.setattr(monotri.rows, "row_sign_changes", refuse)
        assert count_triangles("gmt", (4, 2, 1, 3)) == 4
        assert count_triangles("gmt", tuple(range(1, 7))) == 7436
        assert count_triangles("dmt", (3, 2, 1)) == len(list(enumerate_dmt((3, 2, 1))))
        with pytest.raises(BudgetExceededError, match="triangle budget exhausted"):
            count_triangles("gmt", (0, 300, 600))
