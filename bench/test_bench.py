"""Self-tests of the benchmark: its checks reject wrong output, its inputs
depend only on the seed, its reference computations agree with known values,
and its tracing counts what it claims to.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
from checks import Checker  # noqa: E402
from workloads import CACHE_TOKEN, WORKLOADS, Op, family_points  # noqa: E402


def program_alpha(row):
    from monotri import alpha

    return alpha(row, "operator_alt")


@pytest.fixture
def checker():
    return Checker(program_alpha)


def run_cli(argv) -> str:
    import contextlib
    import io

    from monotri.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


# --- reference computations ---------------------------------------------------


def test_closed_forms_match_known_counts():
    assert [oracle.asm_count(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]
    assert [oracle.vsasm_count(n) for n in range(1, 6)] == [1, 3, 26, 646, 45885]
    for n in range(2, 8):
        assert sum(oracle.refined_asm_count(n, i) for i in range(1, n + 1)) == oracle.asm_count(n)


def test_brute_force_counts_on_the_documented_example():
    # Four generalized monotone triangles with bottom row (4, 2, 1, 3),
    # signed total -2; decorated triangles give the same signed total.
    assert oracle.gmt_counts((4, 2, 1, 3)) == (4, -2)
    assert oracle.tn_counts((4, 2, 1, 3))[1] == -2


def test_reference_routes_agree_with_each_other():
    rng = random.Random(5)
    for _ in range(40):
        row = tuple(rng.randint(-3, 3) for _ in range(rng.randint(2, 4)))
        signed = oracle.gmt_counts(row)[1]
        assert oracle.polynomial_alpha(row) == signed
        assert oracle.polynomial_alpha(oracle.reflect(row)) == signed
        assert oracle.tn_counts(row)[1] == signed
    for row in ((0, 2, 3, 7), (1, 2, 3, 4, 5)):
        assert oracle.mt_count(row) == oracle.gmt_counts(row)[0] == oracle.gmt_counts(row)[1]


# --- checks reject wrong output -------------------------------------------------


def test_alpha_check_rejects_a_wrong_value(checker):
    op = Op(("alpha", "--row", "11,12,13,14,15"), ("asm", 5))
    assert checker.check(op, "429\n") == []
    assert checker.check(op, "430\n")
    signed = Op(("alpha", "--row", "14,12,11,13"), ("brute",))
    assert checker.check(signed, "-2\n") == []
    assert checker.check(signed, "2\n")
    spread = Op(("alpha", "--row", "50,-250,350"), ("signed3",))
    value = run_cli(spread.argv)
    assert checker.check(spread, value) == []
    assert checker.check(spread, f"{int(value) + 1}\n")


@pytest.mark.parametrize("klass,row", [("gmt", "14,12,11,13,10"), ("tn", "14,12,11,13"),
                                       ("mt", "10,11,12,13"), ("dmt", "19,17,15,13,11")])
def test_stream_check_rejects_malformed_and_missing_lines(checker, klass, row):
    op = Op(("enumerate", klass, "--row", row), ("enumerate", klass, "stream"))
    stdout = run_cli(op.argv)
    lines = stdout.splitlines(keepends=True)
    assert len(lines) > 2
    assert checker.check(op, stdout) == []
    assert checker.check(op, "".join(lines[:-1])), "a missing line must be caught"
    assert checker.check(op, "".join(lines[:1] + lines)), "a repeated line must be caught"
    assert checker.check(op, "".join(["[[1,2]\n"] + lines[1:])), "a malformed line must be caught"
    first = json.loads(lines[0])
    rows = first["rows"] if klass == "tn" else first
    rows[0][0] += 100
    wrong = json.dumps(first, separators=(",", ":")) + "\n"
    assert checker.check(op, "".join([wrong] + lines[1:])), "a triangle outside the class must be caught"


def test_count_and_signed_checks_reject_wrong_totals(checker):
    count = Op(("enumerate", "gmt", "--row", "14,12,11,13", "--count"), ("enumerate", "gmt", "count"))
    signed = Op(("enumerate", "tn", "--row", "14,12,11,13", "--signed"), ("enumerate", "tn", "signed"))
    assert checker.check(count, "4\n") == [] and checker.check(count, "5\n")
    assert checker.check(signed, "-2\n") == [] and checker.check(signed, "2\n")


def test_verify_check_rejects_a_wrong_checked_count(checker):
    argv = ("verify", "cyclic", "--n", "3", "--samples", "12", "--seed", "3", "--jobs", "1", "--format", "json")
    op = Op(argv, ("verify", (("cyclic", 12),)))
    stdout = run_cli(argv)
    assert checker.check(op, stdout) == []
    doc = json.loads(stdout)
    doc["reports"][0]["checked"] = 11
    assert checker.check(op, json.dumps(doc))
    doc["reports"][0]["checked"] = 12
    doc["passed"] = False
    assert checker.check(op, json.dumps(doc))
    assert checker.check(Op(argv, ("verify", (("cyclic", 13),))), stdout)


def test_reduction_check_reads_the_row_and_counts(checker):
    argv = ("verify", "reduction", "--row", "4,2,1,3", "--jobs", "1", "--format", "json")
    op = Op(argv, ("verify", (("tn-reduction", None),)))
    stdout = run_cli(argv)
    assert checker.check(op, stdout) == []
    doc = json.loads(stdout)
    doc["reports"][0]["checked"] += 1
    assert checker.check(op, json.dumps(doc))


def test_family_point_counts_match_the_program():
    from monotri.identities import ConjectureSpec, run_conjecture_suite

    for name, lo, hi in (("rev-dup", 1, 3), ("w-symmetry", 1, 2), ("one-desc", 2, 4), ("prefix-dup", 1, 3)):
        (report,) = run_conjecture_suite(ConjectureSpec(names=(name,), n_values=tuple(range(lo, hi + 1))))
        assert report.checked == family_points(name, lo, hi)


# --- inputs depend only on the seed ---------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    make = WORKLOADS[workload]
    random.seed(1)
    first = make(7)
    random.seed(2)
    assert make(7) == first
    assert make(8) != first
    assert len(make(8)) == len(first)
    assert sorted(repr(op.check) for op in make(8)) == sorted(repr(op.check) for op in first)


def test_inputs_name_the_cache_file_only_by_its_token():
    ops = WORKLOADS["alpha_mix"](3)
    cached = [op for op in ops if "--cache-file" in op.argv]
    assert len(cached) == 3
    assert all(op.argv[op.argv.index("--cache-file") + 1] == CACHE_TOKEN for op in cached)


# --- reference seconds ------------------------------------------------------------


def test_each_time_is_divided_by_the_reference_timings_around_it():
    import math

    import run

    assert run.reference_work() == math.comb(280, 140)
    scaled = run.to_reference([0.3, 0.1], [0.01, 0.02, 0.02])
    assert scaled == pytest.approx([0.3 / 0.015 * run.REFERENCE_S, 0.1 / 0.02 * run.REFERENCE_S])


# --- tracing ----------------------------------------------------------------------


def test_traced_calls_give_layer_counts_and_leave_the_program_as_it_was():
    import monotri.cli as cli

    import tracing

    original = cli.alpha
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        outputs = []
        for op_id, argv in enumerate([("alpha", "--row", "1,2,3,4"), ("enumerate", "gmt", "--row", "1,2,3"),
                                      ("alpha", "--row", "4,2,1,3", "--method", "gmt")]):
            tracer.op = (0, op_id)
            span = tracer.begin("cli.main")
            outputs.append(run_cli(argv))
            tracer.end(span)
    finally:
        tracing.uninstall(saved)
    assert cli.alpha is original
    assert outputs[0] == "42\n" and outputs[2] == "-2\n"
    figures = tracing.layer_figures(tracer.spans, sum(len(o) for o in outputs))
    assert figures["cli.ops"] == 3
    assert figures["triangles.objects"] == 7 == len(outputs[1].splitlines())
    assert figures["triangles.json_bytes"] == len(outputs[1]) - 7
    assert figures["evaluate.memo_misses"] > 0 and figures["evaluate.memo_entries"] > 0
    # gmt at (4, 2, 1, 3): one admissible-row call per distinct row visited.
    assert figures["rows.distinct_rows"] > 0
    assert figures["rows.admissible_rows"] >= figures["rows.distinct_rows"]
    assert all(s.parent is None or tracer.spans[s.parent].op == s.op for s in tracer.spans)
