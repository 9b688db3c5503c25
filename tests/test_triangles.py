import json
from enum import IntEnum
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotri import (
    SignStatistics,
    TnObject,
    Triangle,
    inferred_special_positions,
    sc_statistic,
    tn_from_json,
    tn_to_json,
    triangle_from_json,
    triangle_to_json,
    validate_dmt,
    validate_gmt,
    validate_monotone_triangle,
    validate_tn,
)
from oracles import box_triangles, dmt_ok, gmt_ok, mt_ok, sc_brute


class Level(IntEnum):
    """An int subclass other than bool."""

    ZERO = 0
    ONE = 1


FIG_MT = Triangle([(4,), (4, 5), (3, 5, 7), (2, 5, 6, 8), (2, 4, 5, 8, 9)])

FOUR_GMTS = [
    Triangle([(2,), (2, 2), (2, 2, 1), (4, 2, 1, 3)]),
    Triangle([(2,), (2, 3), (2, 2, 3), (4, 2, 1, 3)]),
    Triangle([(3,), (2, 3), (2, 2, 3), (4, 2, 1, 3)]),
    Triangle([(1,), (1, 1), (3, 1, 1), (4, 2, 1, 3)]),
]


class TestTriangleType:
    def test_row_lengths_enforced(self):
        with pytest.raises(ValueError):
            Triangle([(1, 2)])
        with pytest.raises(ValueError):
            Triangle([(1,), (2,)])
        with pytest.raises(ValueError):
            Triangle([])

    def test_integer_entries_enforced(self):
        with pytest.raises(TypeError):
            Triangle([(1.5,)])

    def test_errors_name_the_first_bad_row(self):
        with pytest.raises(ValueError, match=r"^row 2 has 3 entries, expected 2$"):
            Triangle([(1,), (1, 2, 3)])
        with pytest.raises(ValueError, match=r"^row 2 has 1 entries, expected 2$"):
            Triangle([(1,), ("x",)])
        with pytest.raises(TypeError, match=r"^non-integer entry 1\.0 in row 2$"):
            Triangle([(1,), (2, 1.0)])
        with pytest.raises(TypeError, match=r"^non-integer entry 'x' in row 1$"):
            Triangle([("x",), (2, 1.0)])

    def test_int_subclasses_are_accepted(self):
        t = Triangle([(Level.ONE,), (Level.ZERO, 2)])
        assert t.rows == ((1,), (0, 2))
        assert triangle_to_json(t) == "[[1],[0,2]]"

    def test_bool_entries_are_rejected(self):
        with pytest.raises(TypeError, match=r"^non-integer entry True in row 1$"):
            Triangle([(True,), (False, True)])
        with pytest.raises(TypeError, match=r"^non-integer entry False in row 2$"):
            Triangle([(1,), (False, 2)])
        with pytest.raises(TypeError, match=r"^non-integer entry True in row 1$"):
            triangle_from_json("[[true],[false,true]]")
        with pytest.raises(TypeError):
            TnObject([(1,), (True, 2)])

    def test_rows_become_tuples(self):
        t = Triangle(iter([[1], range(2)]))
        assert t.rows == ((1,), (0, 1))

    def test_accessor_and_equality(self):
        t = Triangle([(2,), (2, 2)])
        assert t.a(2, 1) == 2
        assert t.n == 2
        assert t.bottom_row == (2, 2)
        assert t == Triangle([[2], [2, 2]])
        assert hash(t) == hash(Triangle([[2], [2, 2]]))
        with pytest.raises(IndexError):
            t.a(3, 1)

    def test_pretty_has_one_line_per_row(self):
        assert len(FIG_MT.pretty().splitlines()) == 5


class TestMonotoneTriangle:
    def test_worked_example(self):
        assert validate_monotone_triangle(FIG_MT)

    def test_single_entry(self):
        assert validate_monotone_triangle(Triangle([(7,)]))

    def test_non_strict_row_rejected(self):
        assert not validate_monotone_triangle(Triangle([(2,), (2, 2)]))

    def test_matches_brute_force(self):
        for rows in box_triangles((1, 3, 4)):
            assert validate_monotone_triangle(Triangle(rows)) == mt_ok(rows)


class TestDecreasingMonotoneTriangle:
    def test_doubled_entries_allowed(self):
        assert validate_dmt(Triangle([(2,), (2, 2), (2, 2, 1)]))

    def test_same_value_once_in_consecutive_rows_rejected(self):
        assert not validate_dmt(Triangle([(1,), (2, 1)]))

    def test_triple_in_row_rejected(self):
        assert not validate_dmt(Triangle([(3,), (3, 3), (3, 3, 3)]))

    def test_matches_brute_force(self):
        for rows in box_triangles((3, 2, 1)):
            assert validate_dmt(Triangle(rows)) == dmt_ok(rows)


class TestGeneralizedMonotoneTriangle:
    def test_four_worked_examples(self):
        for t in FOUR_GMTS:
            assert validate_gmt(t)

    def test_missing_neighbour_is_a_violation(self):
        report = validate_gmt(Triangle([(2,), (2, 1), (3, 1, 1)]))
        assert not report
        assert report.condition == 3
        assert report.position == (1, 1)

    def test_report_positions_deterministic(self):
        report = validate_gmt(Triangle([(0,), (2, 2)]))
        assert (report.condition, report.position) == (1, (1, 1))

    def test_every_monotone_triangle_is_generalized(self):
        for rows in box_triangles((1, 2, 4)):
            if mt_ok(rows):
                assert validate_gmt(Triangle(rows))

    def test_matches_brute_force(self):
        for bottom in [(4, 2, 1, 3), (2, 0, 1), (1, 1, 2), (3, 1)]:
            for rows in box_triangles(bottom):
                assert bool(validate_gmt(Triangle(rows))) == gmt_ok(rows)

    def test_no_three_consecutive_equal_entries(self):
        # consequence of the strict-increase condition, asserted per object
        for bottom in [(4, 2, 1, 3), (2, 2, 2), (0, 0, 1)]:
            for rows in box_triangles(bottom):
                if gmt_ok(rows):
                    for row in rows:
                        for j in range(len(row) - 2):
                            assert not row[j] == row[j + 1] == row[j + 2]


class TestSignStatistics:
    def test_two_sign_changing_pairs(self):
        stats = sc_statistic(FOUR_GMTS[0])
        assert stats == SignStatistics(newcomers=0, sign_changing_pairs=2)
        assert stats.sc == 2 and stats.sign == 1

    def test_newcomer_and_two_pairs(self):
        stats = sc_statistic(FOUR_GMTS[3])
        assert stats == SignStatistics(newcomers=1, sign_changing_pairs=2)
        assert stats.sc == 3 and stats.sign == -1

    def test_signs_sum_to_signed_count(self):
        assert sum(sc_statistic(t).sign for t in FOUR_GMTS) == -2

    def test_monotone_triangles_have_no_sign_changes(self):
        for rows in box_triangles((1, 2, 4)):
            if mt_ok(rows):
                assert sc_statistic(Triangle(rows)).sc == 0

    def test_matches_brute_force(self):
        for rows in box_triangles((3, 1, 2)):
            t = Triangle(rows)
            assert sc_statistic(t).sc == sc_brute(rows)


def _small_triangles():
    """Every triangle of size 1-3 with entries in -2..2 and every triangle of
    size 4 with entries in -1..1, as lists of row tuples."""
    for n, values in ((1, range(-2, 3)), (2, range(-2, 3)), (3, range(-2, 3)), (4, range(-1, 2))):
        for bottom in product(values, repeat=n):
            yield from box_triangles(bottom, values.start, values.stop - 1)


def test_classes_and_sign_statistics_match_the_definitions_on_all_small_triangles():
    # the validators against the literal class conditions, and both counts
    # against their literal definitions, above every small bottom row
    seen = 0
    for rows in _small_triangles():
        t = Triangle(rows)
        assert validate_monotone_triangle(t) == mt_ok(rows), rows
        assert validate_dmt(t) == dmt_ok(rows), rows
        stats = sc_statistic(t)
        assert stats.sc == sc_brute(rows), rows
        newcomers = sum(1 for up, lo in zip(rows, rows[1:])
                        for j in range(len(up)) if lo[j] > up[j] > lo[j + 1])
        assert stats.newcomers == newcomers, rows
        seen += 1
    assert seen == 74_804


class TestDecoratedObjects:
    def test_special_positions_must_be_interior(self):
        t = Triangle([(2,), (2, 2), (2, 2, 1)])
        with pytest.raises(ValueError):
            TnObject(t, [(2, 1)])
        with pytest.raises(ValueError):
            TnObject(t, [(3, 3)])

    def test_special_positions_must_be_ints(self):
        t = Triangle([(1,), (1, 1), (1, 1, 1)])
        for special in [(3, 2.5), (3.9, 2), ("3", 2), (3, True), (False, 2)]:
            with pytest.raises(TypeError, match="non-integer special position"):
                TnObject(t, [special])
        # other int subclasses are integers, checked as positions
        with pytest.raises(ValueError, match="not interior"):
            TnObject(t, [(3, Level.ONE)])

    def test_adjacent_specials_rejected(self):
        t = Triangle([(2,), (2, 2), (2, 2, 2), (2, 2, 2, 1)])
        with pytest.raises(ValueError):
            TnObject(t, [(4, 2), (4, 3)])

    def test_weight_counts_specials_and_inversions(self):
        # one special at (3, 2): entry 2 with both parents equal to 2
        o = TnObject(FOUR_GMTS[0], [(3, 2)])
        assert o.weight == 1
        assert o.inversions == 0 and o.sign == -1

    def test_inversion_without_specials(self):
        o = TnObject(Triangle([(2,), (3, 1)]))
        assert o.inversions == 1
        assert o.weight == 1

    def test_decoration_free_monotone_triangle_weighs_nothing(self):
        o = TnObject(FIG_MT)
        assert o.weight == 0

    def test_parents_of_specials_are_exempt(self):
        # without the special, entry (3,1)=2 above the descent (4,2) violates
        # the strict-betweenness rule; the special at (4,2) exempts it
        t = FOUR_GMTS[0]
        assert not validate_tn(TnObject(t, [(3, 2)]))
        assert validate_tn(TnObject(t, [(3, 2), (4, 2)]))

    def test_special_off_its_parents_is_rejected(self):
        # the special entry 2 at (3, 2) has parents 1 and 3
        assert not validate_tn(TnObject(Triangle([(2,), (1, 3), (1, 2, 3)]), [(3, 2)]))

    def test_entry_outside_a_weakly_increasing_pair_is_rejected(self):
        assert not validate_tn(TnObject(Triangle([(5,), (1, 2)])))

    def test_inferred_specials(self):
        assert inferred_special_positions(FOUR_GMTS[0]) == frozenset({(3, 2), (4, 2)})
        assert inferred_special_positions(FOUR_GMTS[3]) == frozenset({(3, 2), (4, 3)})


class TestSerialization:
    def test_triangle_round_trip_is_bit_exact(self):
        text = "[[2],[2,2],[2,2,1],[4,2,1,3]]"
        t = triangle_from_json(text)
        assert t == FOUR_GMTS[0].__class__([(2,), (2, 2), (2, 2, 1), (4, 2, 1, 3)])
        assert triangle_to_json(t) == text
        assert triangle_from_json(triangle_to_json(FIG_MT)) == FIG_MT

    def test_decorated_round_trip_is_bit_exact(self):
        o = TnObject(FOUR_GMTS[0], [(3, 2), (4, 2)])
        text = tn_to_json(o)
        assert tn_from_json(text) == o
        assert tn_to_json(tn_from_json(text)) == text
        payload = json.loads(text)
        assert payload["special"] == [[3, 2], [4, 2]]

    def test_non_integer_special_positions_rejected(self):
        for special in ('[[3.9,"2"]]', "[[3.0,2]]", "[[3,true]]"):
            with pytest.raises(TypeError, match="non-integer special position"):
                tn_from_json('{"rows":[[1],[1,1],[1,1,1]],"special":' + special + "}")

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            triangle_from_json('{"rows": []}')
        with pytest.raises(ValueError):
            tn_from_json("[[1]]")


BIG = st.integers(-10**30, 10**30)
TRIANGLE_ROWS = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[st.lists(BIG, min_size=i, max_size=i) for i in range(1, n + 1)]))


@settings(max_examples=100, deadline=None)
@given(TRIANGLE_ROWS)
def test_triangle_json_matches_dumps(rows):
    t = Triangle(rows)
    text = triangle_to_json(t)
    assert text == json.dumps([list(r) for r in rows], separators=(",", ":"))
    assert triangle_from_json(text) == t
