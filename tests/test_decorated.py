import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monotri.decorated as decorated
from monotri import (
    BudgetExceededError,
    EnumerationLimits,
    Triangle,
    alpha,
    enumerate_gmt,
    enumerate_tn,
    inferred_special_positions,
    involution_step,
    sc_statistic,
    signed_gmt_count,
    signed_tn_count,
    tn_totals,
    validate_tn,
    verify_reduction,
)
from monotri.rows import DEFAULT_LIMITS
from oracles import StreamBudgetError, s_brute, tn_generators, tn_objects_brute


def as_pairs(objects):
    return sorted((o.triangle.rows, tuple(sorted(o.special))) for o in objects)


class TestEnumeration:
    def test_no_specials_possible_at_size_two(self):
        objects = list(enumerate_tn((1, 2)))
        assert len(objects) == 2
        assert all(o.special == frozenset() and o.weight == 0 for o in objects)
        assert {o.triangle.rows[0] for o in objects} == {(1,), (2,)}

    def test_forced_inversion(self):
        objects = list(enumerate_tn((3, 1)))
        assert len(objects) == 1
        o = objects[0]
        assert o.triangle.rows == ((2,), (3, 1))
        assert o.special == frozenset() and o.weight == 1

    def test_matches_box_enumeration(self):
        for bottom in [(4, 2, 1, 3), (2, 4, 0), (1, 1, 2), (0, 2, 1)]:
            expected = sorted((rows, tuple(sorted(spec))) for rows, spec in tn_objects_brute(bottom))
            assert as_pairs(enumerate_tn(bottom)) == expected

    def test_every_object_is_valid(self):
        for o in enumerate_tn((3, 0, 2)):
            assert validate_tn(o)

    def test_determinism(self):
        first = as_pairs(enumerate_tn((4, 2, 1, 3)))
        second = as_pairs(enumerate_tn((4, 2, 1, 3)))
        assert first == second

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_tn((4, 2, 1, 3), EnumerationLimits(max_triangles=3)))

    @pytest.mark.parametrize("limits, yielded, message", [
        (EnumerationLimits(max_triangles=3), 3, "triangle budget exhausted"),
        (EnumerationLimits(max_rows_generated=1), 0, "row generation budget exhausted"),
        (EnumerationLimits(max_rows_generated=5), 1, "row generation budget exhausted"),
        (EnumerationLimits(max_rows_generated=20), 9, "row generation budget exhausted"),
        (EnumerationLimits(max_rows_generated=60), 33, "row generation budget exhausted"),
    ])
    def test_budget_points(self, limits, yielded, message):
        stream = enumerate_tn((3, 1, 4, 2, 5), limits)
        for _ in range(yielded):
            next(stream)
        with pytest.raises(BudgetExceededError, match=message):
            next(stream)


def drain(stream, error):
    """The items of ``stream`` before it ends or raises ``error``, and the
    error's message (None when it ended)."""
    items = []
    try:
        for item in stream:
            items.append(item)
    except error as exc:
        return items, str(exc)
    return items, None


budgets = st.builds(EnumerationLimits, max_rows_generated=st.integers(1, 60), max_triangles=st.integers(1, 60))


class TestFlatWalk:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_walk_matches_the_reference_stream(self, data):
        limits = data.draw(st.one_of(st.none(), budgets))
        # Unbudgeted, a bottom row of five entries can have 320k objects;
        # four entries in -3..4 have at most 5,336.
        longest = 4 if limits is None else 5
        bottom = tuple(data.draw(st.lists(st.integers(-3, 4), min_size=1, max_size=longest)))
        ref = limits or DEFAULT_LIMITS
        expected, expected_error = drain(
            tn_generators(bottom, ref.max_rows_generated, ref.max_triangles), StreamBudgetError)

        objects, error = drain(enumerate_tn(bottom, limits), BudgetExceededError)
        assert [(o.triangle.rows, o.special) for o in objects] == expected
        assert error == expected_error

        try:
            totals = tn_totals(bottom, limits)
        except BudgetExceededError as exc:
            totals = str(exc)
        assert totals == (expected_error or (
            len(expected), sum((-1) ** s_brute(rows, special) for rows, special in expected)))

        signs, error = drain((path[-1][2] for path in decorated._tn_walk(bottom, ref)), BudgetExceededError)
        assert signs == [(-1) ** o.weight for o in objects]
        assert error == expected_error

    def test_totals_build_no_object(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tn_totals built an object")

        monkeypatch.setattr(decorated, "TnObject", refuse)
        monkeypatch.setattr(decorated, "Triangle", refuse)
        assert tn_totals((4, 2, 1, 3)) == (8, -2)
        assert tn_totals((1, 2, 3)) == (9, 7)
        assert tn_totals((5,)) == (1, 1)
        with pytest.raises(BudgetExceededError, match="row generation budget exhausted"):
            tn_totals((3, 1, 4, 2, 5), EnumerationLimits(max_rows_generated=20))

    def test_empty_bottom_raises_on_first_next(self):
        stream = enumerate_tn(())
        with pytest.raises(ValueError, match="must not be empty"):
            next(stream)
        with pytest.raises(ValueError, match="must not be empty"):
            tn_totals(())


class TestSignedCount:
    def test_golden_values(self):
        assert signed_tn_count((4, 2, 1, 3)) == -2
        assert signed_tn_count((1, 2, 3)) == 7
        assert signed_tn_count((3, 1)) == -1

    def test_matches_polynomial_on_window(self):
        for k in product(range(-1, 2), repeat=3):
            assert signed_tn_count(k) == alpha(k), k


class TestInvolution:
    def bottoms(self):
        return [(4, 2, 1, 3), (2, 4, 0), (1, 1, 2), (2, 2, 1)]

    def test_double_step_is_identity(self):
        for bottom in self.bottoms():
            for o in enumerate_tn(bottom):
                partner = involution_step(o)
                if partner is not None:
                    assert partner != o
                    assert involution_step(partner) == o

    def test_step_toggles_weight_by_one(self):
        for bottom in self.bottoms():
            for o in enumerate_tn(bottom):
                partner = involution_step(o)
                if partner is not None:
                    assert abs(partner.weight - o.weight) == 1
                    assert partner.sign == -o.sign

    def test_partner_stays_in_class(self):
        for bottom in self.bottoms():
            for o in enumerate_tn(bottom):
                partner = involution_step(o)
                if partner is not None:
                    assert validate_tn(partner)

    def test_scan_depends_only_on_entries(self):
        # a violator and its partner share the triangle, so the scan position
        # is identical and the pairing is an involution by construction
        for o in enumerate_tn((4, 2, 1, 3)):
            partner = involution_step(o)
            if partner is not None:
                assert partner.triangle == o.triangle
                assert partner.special ^ o.special != frozenset()

    def test_fixed_points_with_four_bottom(self):
        fixed = [o for o in enumerate_tn((4, 2, 1, 3)) if involution_step(o) is None]
        assert len(fixed) == 4
        gmts = {t.rows for t in enumerate_gmt((4, 2, 1, 3))}
        assert {o.triangle.rows for o in fixed} == gmts
        for o in fixed:
            assert o.special == inferred_special_positions(o.triangle)
            assert o.weight == sc_statistic(o.triangle).sc


class TestReduction:
    def test_worked_example(self):
        report = verify_reduction((4, 2, 1, 3))
        assert report.status == "pass"
        assert report.metadata["fixed_points"] == 4
        assert report.metadata["objects"] == 8
        assert report.metadata["signed_total"] == "-2"

    def test_strictly_increasing_bottom(self):
        # one cancelling pair: the equal row (2, 2) above (1, 2, 3), with and
        # without its middle bottom entry marked special
        report = verify_reduction((1, 2, 3))
        assert report.status == "pass"
        assert report.metadata["fixed_points"] == 7
        assert report.metadata["violators"] == 2
        assert report.metadata["signed_total"] == "7"

    def test_empty_class(self):
        report = verify_reduction((2, 1))
        assert report.status == "pass"
        assert report.metadata["fixed_points"] == 0

    def test_random_window(self):
        rng = random.Random(17)
        for _ in range(10):
            k = tuple(rng.randint(-1, 2) for _ in range(3))
            report = verify_reduction(k)
            assert report.status == "pass", (k, report.counterexample)

    def test_signed_totals_agree(self):
        for k in [(4, 2, 1, 3), (2, 0, 1), (1, 1, 1)]:
            assert signed_tn_count(k) == signed_gmt_count(k)
