import random
from itertools import product

import pytest

from monotri import (
    BudgetExceededError,
    EnumerationLimits,
    Triangle,
    alpha,
    enumerate_gmt,
    enumerate_tn,
    inferred_special_positions,
    involution_step,
    s_statistic,
    sc_statistic,
    signed_gmt_count,
    signed_tn_count,
    validate_tn,
    verify_reduction,
)
from oracles import tn_objects_brute


def as_pairs(objects):
    return sorted((o.triangle.rows, tuple(sorted(o.special))) for o in objects)


class TestEnumeration:
    def test_no_specials_possible_at_size_two(self):
        objects = list(enumerate_tn((1, 2)))
        assert len(objects) == 2
        assert all(o.special == frozenset() and s_statistic(o) == 0 for o in objects)
        assert {o.triangle.rows[0] for o in objects} == {(1,), (2,)}

    def test_forced_inversion(self):
        objects = list(enumerate_tn((3, 1)))
        assert len(objects) == 1
        o = objects[0]
        assert o.triangle.rows == ((2,), (3, 1))
        assert o.special == frozenset() and s_statistic(o) == 1

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
                    assert abs(s_statistic(partner) - s_statistic(o)) == 1
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
            assert s_statistic(o) == sc_statistic(o.triangle).sc


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
