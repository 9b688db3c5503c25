import random
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monotri.decorated as decorated
from monotri import (
    BudgetExceededError,
    EnumerationLimits,
    TnObject,
    Triangle,
    alpha,
    count_triangles,
    enumerate_dmt,
    enumerate_gmt,
    enumerate_mt,
    enumerate_tn,
    inferred_special_positions,
    involution_step,
    sc_statistic,
    signed_gmt_count,
    signed_tn_count,
    tn_totals,
    triangle_totals,
    validate_tn,
    verify_reduction,
)
from monotri.decorated import InternalConsistencyError
from monotri.rows import DEFAULT_LIMITS
from oracles import StreamBudgetError, s_brute, tn_generators, tn_objects_brute

_involution_step = decorated.involution_step


def _step_that_only_adds_specials(o):
    """The involution on objects it gives a special more, else no partner."""
    partner = _involution_step(o)
    return partner if partner is not None and len(partner.special) > len(o.special) else None


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

    def test_boxes_of_each_distinct_row_are_built_once(self, monkeypatch):
        calls = []
        boxes = decorated._boxes

        def counted(row):
            calls.append(row)
            return boxes(row)

        monkeypatch.setattr(decorated, "_boxes", counted)
        objects = list(enumerate_tn((3, 1, 4, 2, 5)))
        assert len(objects) == 814
        # every row of two or more entries on an object was expanded, and
        # each distinct row once, however often the stream visits it
        assert {row for o in objects for row in o.triangle.rows if len(row) > 1} <= set(calls)
        assert len(calls) == len(set(calls))

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

    def test_totals_walk_each_distinct_row_once(self, monkeypatch):
        # Every row reachable above the bottom, and the boxes above it: the
        # walk expands each box of a distinct row once, not once per visit.
        reachable, todo = set(), [(1, 2, 3, 4, 5, 6)]
        while todo:
            row = todo.pop()
            if len(row) > 1 and row not in reachable:
                reachable.add(row)
                todo.extend(above for _, ranges, _ in decorated._boxes(row) for above in product(*ranges))
        boxes = sum(len(decorated._boxes(row)) for row in reachable)
        calls = []

        def counted(*ranges):
            calls.append(ranges)
            return product(*ranges)

        monkeypatch.setattr(decorated, "product", counted)
        assert tn_totals((1, 2, 3, 4, 5, 6)) == (132624, 7436)
        assert len(calls) <= boxes
        with pytest.raises(BudgetExceededError, match="triangle budget exhausted"):
            tn_totals(range(1, 8))

    # The totals of each row are the stream's: its length and signed sum,
    # and the least row budget under which it ends.
    @pytest.mark.parametrize("kind, bottom, objects, rows, signed", [
        ("tn", (3, 1, 4, 2, 5), 814, 1472, 138),
        ("tn", (1, 2, 3, 4, 5), 2301, 3851, 429),
        ("gmt", (2, 0, 3, 3, 1, 4), 1106, 1894, 208),
        ("mt", (1, 2, 4, 5, 7), 5551, 7439, 5551),
        ("dmt", (9, 7, 7, 5, 3, 2, 0), 870, 2531, -26),
    ])
    def test_budgets_that_just_fit_or_just_do_not(self, kind, bottom, objects, rows, signed):
        # The walk skips a row it has walked only when both budgets absorb
        # that row's totals, so at one below either total it must go into
        # the row that no longer fits and stop where the stream stops.
        if kind == "tn":
            stream, walks = enumerate_tn, [(lambda limits: tn_totals(bottom, limits), (objects, signed))]
        else:
            stream = {"gmt": enumerate_gmt, "mt": enumerate_mt, "dmt": enumerate_dmt}[kind]
            walks = [(lambda limits: count_triangles(kind, bottom, limits), objects),
                     (lambda limits: triangle_totals(kind, bottom, limits), (objects, signed))]
        for limits, message in [
            (EnumerationLimits(max_rows_generated=rows, max_triangles=objects), None),
            (EnumerationLimits(max_rows_generated=rows - 1, max_triangles=objects), "row generation"),
            (EnumerationLimits(max_rows_generated=rows, max_triangles=objects - 1), "triangle"),
        ]:
            streamed, error = drain(stream(bottom, limits), BudgetExceededError)
            if message is None:
                assert error is None and len(streamed) == objects
                assert sum(item.sign if kind == "tn" else sc_statistic(item).sign for item in streamed) == signed
                for walk, totals in walks:
                    assert walk(limits) == totals
            else:
                assert error == f"{message} budget exhausted"
                for walk, _ in walks:
                    with pytest.raises(BudgetExceededError, match=error):
                        walk(limits)

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

    @pytest.mark.parametrize("check, name, fault", [
        ("partner enumerated", "involution_step", lambda o: TnObject(Triangle([(0,), (0, 0)]))),
        ("sign reversal", "involution_step", lambda o: o),
        ("involution", "involution_step", _step_that_only_adds_specials),
        ("specials inferred from parents", "inferred_special_positions", lambda t: frozenset({(9, 9)})),
        ("fixed points biject onto triangles", "enumerate_gmt", lambda bottom: iter(())),
        ("weight equals sign-change count", "sc_statistic", lambda t: SimpleNamespace(sc=-1)),
    ])
    def test_each_failed_check_is_reported(self, monkeypatch, check, name, fault):
        monkeypatch.setattr(decorated, name, fault)
        report = verify_reduction((4, 2, 1, 3))
        assert report.status == "fail"
        assert report.counterexample["check"] == check

    def test_toggle_outside_the_class_is_an_internal_error(self, monkeypatch):
        o = next(o for o in enumerate_tn((4, 2, 1, 3)) if involution_step(o) is not None)
        monkeypatch.setattr(decorated, "_scan_position", lambda rows: (1, 1))
        with pytest.raises(InternalConsistencyError, match=r"toggling \(1, 1\) broke the decoration"):
            involution_step(o)
        monkeypatch.undo()
        monkeypatch.setattr(decorated, "validate_tn", lambda o: False)
        with pytest.raises(InternalConsistencyError, match="left the decorated class"):
            involution_step(o)

    def test_signed_totals_agree(self):
        for k in [(4, 2, 1, 3), (2, 0, 1), (1, 1, 1)]:
            assert signed_tn_count(k) == signed_gmt_count(k)
