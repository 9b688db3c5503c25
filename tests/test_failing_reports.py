"""Failing reports, pinned.

With the evaluation routes patched to be off by one on chosen rows, every kind
of check reports the counterexample, status words, results and metadata
pinned in tests/golden/failing-reports.json, and a failing `monotri verify`
call exits 1 with the pinned JSON document.

After a deliberate change of report output, rewrite the pinned file with
``PYTHONPATH=src python tests/test_failing_reports.py --update`` and review
the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import monotri.decorated as decorated
import monotri.identities as identities
from monotri.cli import main
from monotri.identities import (
    ConjectureSpec,
    check_cyclic,
    check_method_agreement,
    check_neighbor_split,
    check_shift_antisymmetry,
    check_two_step_split,
    run_conjecture_suite,
    run_identity_grid,
)
from monotri.report import render_table

PINNED = Path(__file__).resolve().parent / "golden" / "failing-reports.json"


@contextlib.contextmanager
def off_by_one():
    """Patch ``alpha`` (every route but gmt) on rows whose last entry is a
    multiple of 3, ``operator_apply`` on bounds with an even sum, ``operator_apply_alt``
    on bounds with an even last entry, and the signed count behind the
    reduction check on bottom rows with an odd sum, each to add 1."""
    alpha, apply, apply_alt = identities.alpha, identities.operator_apply, identities.operator_apply_alt
    signed = decorated.signed_gmt_count
    patches = [
        (identities, "alpha",
         lambda row, method="operator", cache=None:
         alpha(row, method, cache) + (method != "gmt" and row[-1] % 3 == 0)),
        (identities, "operator_apply", lambda k, fn: apply(k, fn) + (sum(k) % 2 == 0)),
        (identities, "operator_apply_alt", lambda k, fn: apply_alt(k, fn) + (k[-1] % 2 == 0)),
        (decorated, "signed_gmt_count", lambda row: signed(row) + sum(row) % 2),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


REPORTS = {
    "grid theorem1": lambda: run_identity_grid("theorem1", n=2, window=(-1, 1), exhaustive=True),
    "grid lemma1": lambda: run_identity_grid("lemma1", n=3, samples=3, seed=2, functions=2),
    "grid lemma1 zero on triple rows": lambda: run_identity_grid(
        "lemma1", n=3, samples=3, seed=2, functions=2, zero_on_triple_rows=True),
    "grid operator-alt": lambda: run_identity_grid("operator-alt", n=3, samples=3, seed=2, functions=2),
    "grid cyclic": lambda: run_identity_grid("cyclic", n=2, window=(0, 2), exhaustive=True),
    "grid neighbor-split": lambda: run_identity_grid("neighbor-split", n=3, samples=4, seed=1),
    "grid two-step-split": lambda: run_identity_grid("two-step-split", n=3, samples=4, seed=1),
    "grid shift-antisym": lambda: run_identity_grid("shift-antisym", n=3, samples=4, seed=1),
    "grid shift-antisym at i=2": lambda: run_identity_grid(
        "shift-antisym", n=3, samples=4, seed=1, i_values=(2,)),
    "family comb-rec (proven)": lambda: run_conjecture_suite(
        ConjectureSpec(names=("comb-rec",), n_values=(1, 2, 3, 4))),
    "family rev-dup (conjecture)": lambda: run_conjecture_suite(
        ConjectureSpec(names=("rev-dup",), n_values=(2, 3))),
    "family ratio-k6 (conjecture, with metadata)": lambda: run_conjecture_suite(
        ConjectureSpec(names=("ratio-k6",), n_values=(6, 7))),
    "point cyclic": lambda: check_cyclic((1, 2, 3)),
    "point neighbor-split": lambda: check_neighbor_split((0, 3, 1), 2),
    "point two-step-split": lambda: check_two_step_split((1, 9, 3), 2),
    "point shift-antisym": lambda: check_shift_antisymmetry((3, 7, 2), 2),
    "point shift-antisym, neighbour-split instance": lambda: check_shift_antisymmetry((5, 4, 9), 1),
    "point shift-antisym, two-step-split instance": lambda: check_shift_antisymmetry((5, 3, 9), 1),
    "point shift-antisym, instance at i=2": lambda: check_shift_antisymmetry((0, 4, 3), 2),
    "point method agreement": lambda: check_method_agreement((1, 2, 3)),
    "reduction": lambda: decorated.verify_reduction((2, 1, 2)),
}

FAILING_CALL = ["verify", "cyclic", "--n", "2", "--window", "0..2", "--exhaustive", "--format", "json"]


def report_dicts(name: str) -> list[dict]:
    with off_by_one():
        result = REPORTS[name]()
    return [r.to_dict() for r in (result if isinstance(result, list) else [result])]


def failing_call() -> tuple[int, str]:
    out = io.StringIO()
    with off_by_one(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(FAILING_CALL)
    return code, out.getvalue()


def load_pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_failing_report_is_pinned(name):
    assert report_dicts(name) == load_pinned()["reports"][name]


def test_every_pinned_report_has_a_failure():
    for name, dicts in load_pinned()["reports"].items():
        assert any(d["failures"] for d in dicts), name


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_table_shows_each_failure_below_its_row(name):
    # A failing row ends with its failed claim, and the next line carries the
    # first failure; a passing row has no counterexample line.
    with off_by_one():
        result = REPORTS[name]()
    reports = result if isinstance(result, list) else [result]
    lines = iter(render_table(reports).split("\n")[1:])
    for report in reports:
        row = next(lines)
        assert row.startswith(report.name)
        if report.failures:
            assert row.endswith(("identity FAILED", "conjecture: counterexample found")), row
            assert next(lines).strip() == f"counterexample: {report.counterexample}"
    assert next(lines, None) is None


def test_failing_verify_call_is_pinned():
    code, stdout = failing_call()
    pinned = load_pinned()["verify call"]
    assert pinned["argv"] == FAILING_CALL and pinned["exit"] == 1
    assert (code, stdout) == (1, pinned["stdout"])
    assert json.loads(stdout)["passed"] is False


def update() -> None:
    code, stdout = failing_call()
    document = {
        "reports": {name: report_dicts(name) for name in sorted(REPORTS)},
        "verify call": {"argv": FAILING_CALL, "exit": code, "stdout": stdout},
    }
    PINNED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    update()
