import contextlib
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

import monotri.identities
from monotri import (
    CONJECTURES,
    ConjectureSpec,
    EvalCache,
    alpha,
    asm_number,
    check_cyclic,
    check_method_agreement,
    check_neighbor_split,
    check_shift_antisymmetry,
    check_two_step_split,
    emit_ratio_sequence,
    enumerate_mt,
    refined_asm,
    run_conjecture_suite,
    run_identity_grid,
    sc_statistic,
    vsasm_number,
    w_refinement,
)
from monotri.identities import grid_rows, staircase
from monotri.report import build_report
from oracles import mt_count_brute
from test_failing_reports import off_by_one


class TestAsmChain:
    def test_asm_numbers_match_enumeration(self):
        expected = [1, 2, 7, 42, 429]
        for n, count in enumerate(expected, start=1):
            assert asm_number(n) == count
            assert sum(1 for _ in enumerate_mt(staircase(n))) == count

    def test_small_asm_numbers_match_box_brute_force(self):
        assert mt_count_brute((1, 2, 3)) == 7
        assert mt_count_brute((1, 2, 3, 4)) == 42

    def test_refined_counts(self):
        assert [refined_asm(3, i) for i in (1, 2, 3)] == [2, 3, 2]
        assert [refined_asm(2, i) for i in (1, 2)] == [1, 1]

    def test_refined_counts_partition_the_total(self):
        for n in range(2, 6):
            assert sum(refined_asm(n, i) for i in range(1, n + 1)) == asm_number(n)

    def test_refined_argument_range(self):
        with pytest.raises(ValueError):
            refined_asm(3, 0)
        with pytest.raises(ValueError):
            refined_asm(3, 4)
        with pytest.raises(ValueError):
            asm_number(0)

    def test_sizes_below_each_family_are_rejected(self):
        for call, smallest in ((lambda: refined_asm(1, 1), 2), (lambda: vsasm_number(0), 1),
                               (lambda: w_refinement(0, 1), 1)):
            with pytest.raises(ValueError, match=f"n must be at least {smallest}"):
                call()

    def test_empty_grid_window_is_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            grid_rows(3, (2, 1), 10, 0, False)

    def test_vertically_symmetric_counts(self):
        assert [vsasm_number(n) for n in (1, 2, 3)] == [1, 3, 26]
        assert mt_count_brute((2, 4)) == 3
        assert mt_count_brute((2, 4, 6)) == 26


class TestRefinementFamily:
    def test_size_one_values_and_symmetry(self):
        values = [w_refinement(1, i) for i in range(1, 6)]
        assert values == [-1, -1, -1, -1, -1]
        assert values[0] == values[4] and values[1] == values[3]

    def test_size_two_symmetry_scan(self):
        values = {i: w_refinement(2, i) for i in range(1, 9)}
        for i in range(1, 9):
            assert values[i] == values[9 - i]

    def test_argument_range(self):
        with pytest.raises(ValueError):
            w_refinement(1, 6)
        with pytest.raises(ValueError):
            w_refinement(1, 0)


class TestPointChecks:
    def test_cyclic_pair(self):
        assert check_cyclic((0, 0)).passed
        assert alpha((0, 0)) == 1 and alpha((0, -2)) == -1

    def test_cyclic_staircase(self):
        assert check_cyclic((1, 2, 3)).passed

    def test_neighbor_split_closed_form(self):
        # pair values: 2 = 1 + 1
        report = check_neighbor_split((0, 99), 1)
        assert report.passed
        assert alpha((0, 1)) == alpha((0, 0)) + alpha((1, 1)) == 2

    def test_neighbor_split_descending_row(self):
        assert check_neighbor_split((4, 2, 1, 2), 3).passed

    def test_two_step_split_closed_form(self):
        assert check_two_step_split((0, 99), 1).passed

    def test_shift_antisymmetry_closed_form(self):
        report = check_shift_antisymmetry((3, 7), 1)
        assert report.passed

    def test_shift_antisymmetry_staircase(self):
        assert check_shift_antisymmetry((1, 2, 3), 1).passed

    def test_shift_antisymmetry_derived_instances(self):
        near = check_shift_antisymmetry((5, 4, 9), 1)
        assert near.passed and near.metadata.get("neighbor_split_instance") is True
        two = check_shift_antisymmetry((5, 3, 9), 1)
        assert two.passed and two.metadata.get("two_step_split_instance") is True

    def test_index_ranges(self):
        with pytest.raises(ValueError):
            check_neighbor_split((1, 2), 2)
        with pytest.raises(ValueError):
            check_shift_antisymmetry((1, 2), 0)

    def test_method_agreement_point(self):
        report = check_method_agreement((4, 2, 1, 3))
        assert report.passed
        assert "mt" not in report.metadata["methods"]
        assert "mt" in check_method_agreement((1, 2, 3)).metadata["methods"]


class TestGridRunners:
    def test_exhaustive_small_windows(self):
        for name in ("neighbor-split", "two-step-split", "shift-antisym"):
            report = run_identity_grid(name, n=3, window=(-2, 2), exhaustive=True)
            assert report.passed, report.counterexample

    def test_cyclic_sampled(self):
        report = run_identity_grid("cyclic", n=3, window=(-4, 4), samples=60, seed=7)
        assert report.passed
        assert report.checked == 60

    def test_theorem_agreement_grid(self):
        report = run_identity_grid("theorem1", n=3, window=(-1, 1), exhaustive=True)
        assert report.passed
        assert report.checked == 27

    def test_reports_are_deterministic_across_jobs(self):
        # two runs with the same seed give one report
        first = run_identity_grid("cyclic", n=3, samples=30, seed=5)
        second = run_identity_grid("cyclic", n=3, samples=30, seed=5)
        assert first.to_dict() == second.to_dict()

    def test_two_runs_of_a_check_give_equal_reports(self):
        # A report holds what was checked and nothing read off a clock.
        assert check_cyclic((1, 2, 3)) == check_cyclic((1, 2, 3))
        assert run_identity_grid("theorem1", 3, (-1, 1), exhaustive=True) \
            == run_identity_grid("theorem1", 3, (-1, 1), exhaustive=True)

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            run_identity_grid("no-such-check", n=3)

    @pytest.mark.parametrize("patched", [False, True])
    def test_shift_antisym_grid_matches_the_point_check(self, patched):
        # On rows where the identity specializes to a split identity, point by
        # point, with the routes right and with them off by one on some rows.
        with off_by_one() if patched else contextlib.nullcontext():
            report = run_identity_grid("shift-antisym", n=3, window=(-2, 2), exhaustive=True)
            derived = 0
            for result in report.metadata["results"]:
                row, i = result["params"]["row"], result["params"]["i"]
                if row[i] in (row[i - 1] - 1, row[i - 1] - 2):
                    derived += 1
                    point = check_shift_antisymmetry(row, i)
                    assert point.passed == result["ok"], result
                    assert set(point.metadata) <= {"neighbor_split_instance", "two_step_split_instance"}
                    assert len(point.metadata) == 1
        # 2 positions, 4 + 3 pairs (x, x - 1) and (x, x - 2) in the window, 5 other entries
        assert derived == 2 * 7 * 5
        assert report.passed != patched

    def test_checking_nothing_raises(self):
        with pytest.raises(ValueError, match="no point to check"):
            run_identity_grid("neighbor-split", n=1)
        with pytest.raises(ValueError, match="no point to check"):
            run_conjecture_suite(ConjectureSpec(names=("ratio-k6",), n_values=(2,)))
        with pytest.raises(ValueError, match="no point to check"):
            emit_ratio_sequence(4, (1, 2, 3))


class TestStatusWords:
    def test_builder_words_by_kind(self):
        words = {}
        for kind in ("proven", "conjecture", "info"):
            for failures in ([], [{"params": {}}]):
                report = build_report("x", "g", kind, 1, failures, {})
                words[kind, bool(failures)] = report.status
                assert report.counterexample == (failures[0] if failures else None)
        assert words == {("proven", False): "pass", ("proven", True): "fail",
                         ("conjecture", False): "consistent", ("conjecture", True): "inconsistent",
                         ("info", False): "info", ("info", True): "info"}

    def test_family_words_follow_the_kind(self):
        with off_by_one():
            statuses = [
                (report.metadata["kind"], report.status)
                for names, n_values in [(("comb-rec", "rev-dup"), (1, 2)), (("comb-rec", "rev-dup"), (3,))]
                for report in run_conjecture_suite(ConjectureSpec(names=names, n_values=n_values))]
        assert statuses == [("proven", "pass"), ("conjecture", "consistent"),
                            ("proven", "fail"), ("conjecture", "inconsistent")]


class TestConjectureSuite:
    def test_time_budget_is_a_finite_number_not_below_zero(self):
        for budget in (-1, -0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="is not a finite number >= 0"):
                ConjectureSpec(time_budget_secs=budget)
        assert ConjectureSpec(time_budget_secs=0).time_budget_secs == 0

    def test_default_run_is_consistent(self):
        reports = run_conjecture_suite()
        assert len(reports) == len(CONJECTURES)
        for report in reports:
            assert report.passed, (report.name, report.counterexample)
            kind = report.metadata["kind"]
            if kind == "conjecture":
                assert report.status == "consistent"
                assert "consistent at tested scale" in report.claim()
            else:
                assert report.status == "pass"

    def test_doubled_staircase_values_by_enumeration(self):
        # both sides of the size-doubling identity derived from signed streams
        pairs = {1: (1, 1), 2: (2, 2), 3: (7, 7)}
        for n, (lhs, rhs) in pairs.items():
            assert alpha(staircase(n), "gmt") == lhs
            doubled = tuple(x for j in range(n, 0, -1) for x in (j, j))
            assert alpha(doubled, "gmt") == rhs

    def test_hole_one_desc_small_values(self):
        assert alpha((2, 1, 2)) == -1
        assert alpha((2, 1, 2, 3)) == -7
        assert alpha((2, 1, 2, 3)) == -sum((j - 1) * refined_asm(3, j) for j in (1, 2, 3))
        assert alpha((1, 3, 2, 3)) == 0  # middle removal cancels exactly

    def test_explicit_range(self):
        reports = run_conjecture_suite(ConjectureSpec(names=("rev-dup",), n_values=(1, 2, 3)))
        assert len(reports) == 1
        assert reports[0].checked == 1 + 3 + 6
        assert reports[0].status == "consistent"

    def test_ranges_below_family_minimum_are_dropped(self):
        reports = run_conjecture_suite(ConjectureSpec(names=("ratio-k4",), n_values=(1, 4)))
        assert reports[0].checked == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_conjecture_suite(ConjectureSpec(names=("nope",)))

    def test_unknown_name_rejected_before_any_family_runs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a family ran before every name was checked")

        monkeypatch.setattr(monotri.identities, "alpha", refuse)
        with pytest.raises(ValueError, match="^unknown conjecture id 'nosuch'$"):
            run_conjecture_suite(ConjectureSpec(names=("w-symmetry", "nosuch"), n_values=(4,)))

    def test_time_budget_is_one_deadline_for_the_whole_run(self, monkeypatch):
        # Every clock reading is 0.5 s after the last: the deadline is read
        # at 0.0 and falls at 1.0, comb-rec grows at 0.5 and stops at 1.0,
        # then the clock has passed the deadline and no later family grows,
        # though each of them stays well under the budget on its own.
        readings = iter(0.5 * i for i in range(1000))
        monkeypatch.setattr(monotri.identities, "time", SimpleNamespace(perf_counter=lambda: next(readings)))
        reports = run_conjecture_suite(ConjectureSpec(names=("comb-rec", "rev-dup", "one-desc"),
                                                      time_budget_secs=1.0))
        assert [r.grid for r in reports] == ["n in [1, 2, 3]", "n in [1, 2]", "n in [2, 3]"]

    def test_ratio_divisibility_instances(self):
        cache = EvalCache()
        for n in (4, 5, 6):
            lhs = 2 * alpha(tuple(range(1, 2)) + (3, 4, 3, 4) + tuple(range(5, n + 1)), "operator", cache)
            assert lhs == (n + 4) * asm_number(n - 1)

    def test_ratio_scan_reports_exact_fractions(self):
        report = emit_ratio_sequence(4, (4, 5))
        assert report.status == "info"
        assert report.metadata["ratios"] == {"4": "4", "5": "9/2"}
        assert Fraction(9, 2) == Fraction(5 + 4, 2)

    def test_ratio_scan_argument_check(self):
        with pytest.raises(ValueError):
            emit_ratio_sequence(3, (4,))


class TestSignedStreamAgreement:
    def test_alpha_equals_sign_weighted_enumeration(self):
        for k in product(range(-1, 2), repeat=3):
            assert alpha(k) == alpha(k, "gmt"), k
