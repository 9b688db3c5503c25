import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import monotri.cli
import monotri.decorated
import monotri.rows
from monotri import (
    BudgetExceededError,
    EnumerationLimits,
    EvalCache,
    alpha,
    enumerate_dmt,
    enumerate_gmt,
    enumerate_mt,
    enumerate_tn,
    triangle_from_json,
    validate_gmt,
)
from monotri.cli import main, parse_row, parse_window


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "monotri.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestParsing:
    def test_rows(self):
        assert parse_row("4,2,1,3") == (4, 2, 1, 3)
        assert parse_row("-4,0,7") == (-4, 0, 7)

    def test_windows(self):
        assert parse_window("-4..4") == (-4, 4)
        assert parse_window("0..3") == (0, 3)

    def test_bad_inputs_exit_with_usage_error(self):
        assert main(["alpha", "--row", "1,x"]) == 2
        assert main(["verify", "cyclic", "--window", "oops"]) == 2
        # argparse hands the parsers [] for an option value of "--"
        assert main(["alpha", "--row=--"]) == 2
        assert main(["verify", "cyclic", "--window=--"]) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet="0123456789-+,. _x\n")))
    def test_any_text_parses_to_ints_or_exits_with_usage_error(self, text):
        for parse, argv in ((parse_row, ["alpha", "--row=" + text]),
                            (parse_window, ["verify", "cyclic", "--window=" + text])):
            try:
                parsed = parse(text)
            except ValueError:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    assert main(argv) == 2
                assert err.getvalue().startswith("error: cannot parse")
            else:
                assert all(type(v) is int for v in parsed)


class TestAlphaCommand:
    def test_golden_value(self):
        proc = run_cli("alpha", "--row", "2,4,5,8,9")
        assert proc.returncode == 0
        assert proc.stdout == "16939\n"

    def test_single_entry(self):
        proc = run_cli("alpha", "--row", "7")
        assert proc.stdout == "1\n"

    def test_wide_row_of_three_in_closed_form(self, capsys):
        # The rows above (0, a, b) are (y, z) with 0 <= y <= a <= z <= b,
        # y < z, and the apexes above (y, z) number z - y + 1: summed over z
        # that is an arithmetic series, so the count costs O(a).
        a, b = 10000, 20000
        width = b - a + 1
        expected = sum(width * (a + b) // 2 + width * (1 - y) for y in range(a + 1)) - 1
        started = time.perf_counter()
        assert main(["alpha", "--row", f"0,{a},{b}"]) == 0
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().out == f"{expected}\n"

    def test_wide_row_of_four_is_settled_in_closed_form(self, capsys, monkeypatch):
        # The operator route settles a row of four entries in closed form:
        # the walk stores the row asked for, counted as one miss, expands no
        # chain state and looks up no other row.  The counts pin the work,
        # whatever the speed of the machine.
        caches = []

        def record(row, method, cache):
            caches.append(cache)
            return alpha(row, method, cache)

        monkeypatch.setattr(monotri.cli, "alpha", record)
        assert main(["alpha", "--row", "0,100,200,300"]) == 0
        assert capsys.readouterr().out == "1061516716500\n"
        [cache] = caches
        states = sum(len(memo) for memo in cache._states.values())
        assert (cache.route, len(cache), states, cache.hits, cache.misses) == ("operator", 1, 0, 0, 1)

    def test_all_methods_four_equal_lines(self):
        proc = run_cli("alpha", "--row", "4,2,1,3", "--all-methods")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["-2", "-2", "-2", "-2"]

    def test_mt_exit_codes(self, capsys):
        # a row that is not strictly increasing is a usage error; 1..8 has more
        # monotone triangles than the default triangle budget
        assert main(["alpha", "--method", "mt", "--row", "2,1"]) == 2
        assert main(["alpha", "--method", "mt", "--row", "1,2,3,4,5,6,7,8"]) == 3
        assert capsys.readouterr().out == ""

    def test_all_methods_includes_direct_count_when_increasing(self):
        proc = run_cli("alpha", "--row", "1,2,3", "--all-methods")
        assert proc.stdout.splitlines() == ["7"] * 5

    def test_all_methods_rejects_options_it_does_not_read(self, tmp_path, capsys):
        # --all-methods evaluates every applicable method without a cache file.
        path = tmp_path / "cache.tsv"
        for extra, named in [(["--cache-file", str(path)], "--cache-file"),
                             (["--method", "third"], "--method"),
                             (["--cache-file", str(path), "--method", "third"], "--method, --cache-file")]:
            assert main(["alpha", "--row", "1,2,3", "--all-methods", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --all-methods does not read {named}\n"
        assert not path.exists()
        assert main(["alpha", "--row", "1,2,3", "--all-methods", "--method", "operator"]) == 0
        assert capsys.readouterr().out == "7\n" * 5

    def test_cache_file_round_trip(self, tmp_path):
        path = tmp_path / "values.tsv"
        first = run_cli("alpha", "--row", "4,2,1,3", "--cache-file", str(path))
        assert first.stdout == "-2\n"
        assert path.exists() and path.read_text().count("\n") > 0
        again = run_cli("alpha", "--row", "4,2,1,3", "--cache-file", str(path))
        assert again.stdout == "-2\n"

    def test_cache_file_rewritten_only_when_it_gains_entries(self, tmp_path, capsys):
        path = tmp_path / "cache.tsv"
        assert main(["alpha", "--row", "4,2,1,3", "--cache-file", str(path)]) == 0
        written = path.stat()
        assert main(["alpha", "--row", "4,2,1,3", "--cache-file", str(path)]) == 0
        # a translated row the file answers in full
        assert main(["alpha", "--row", "5,3,2,4", "--cache-file", str(path)]) == 0
        same = path.stat()
        assert (same.st_ino, same.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)
        assert main(["alpha", "--row", "1,2,3,4", "--cache-file", str(path)]) == 0
        assert path.stat().st_ino != written.st_ino
        assert capsys.readouterr().out == "-2\n-2\n-2\n42\n"

    def test_new_cache_file_is_written_even_without_entries(self, tmp_path):
        path = tmp_path / "cache.tsv"
        # a row of one entry is worth 1 and stores nothing
        assert main(["alpha", "--row", "7", "--cache-file", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("monotri-cache v2 route=operator ")

    def test_cache_file_of_another_route_exits_with_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cache.tsv"
        row = ["--row", "1,2,3,4,5"]
        assert main(["alpha", *row, "--cache-file", str(path)]) == 0
        assert capsys.readouterr().out == "429\n"
        assert path.read_text().startswith("monotri-cache v2 route=operator ")
        for method in ("third", "operator_alt"):
            assert main(["alpha", *row, "--method", method, "--cache-file", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "holds values of route 'operator'" in captured.err
        assert main(["alpha", *row, "--method", "third", "--cache-file", str(tmp_path / "third.tsv")]) == 0
        assert capsys.readouterr().out == "429\n"

    def test_memo_free_method_reads_no_cache_file(self, tmp_path, capsys):
        # gmt and mt keep no memo: --cache-file is a usage error there, before
        # any work, whether the file exists or not, and no file is written.
        path, existing = tmp_path / "new.tsv", tmp_path / "operator.tsv"
        assert main(["alpha", "--row", "1,2,3,4", "--cache-file", str(existing)]) == 0
        assert capsys.readouterr().out == "42\n"
        text = existing.read_text()
        for method in ("gmt", "mt"):
            assert main(["alpha", "--row", "1,2,3,4", "--method", method]) == 0
            assert capsys.readouterr().out == "42\n"
            for cache_file in (path, existing, ""):
                assert main(["alpha", "--row", "1,2,3,4", "--method", method, "--cache-file", str(cache_file)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: --method {method} does not read --cache-file\n"
        assert not path.exists()
        assert existing.read_text() == text

    def test_tampered_value_exits_with_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cache.tsv"
        assert main(["alpha", "--row", "10,15", "--cache-file", str(path)]) == 0
        assert capsys.readouterr().out == "6\n"
        text = path.read_text()
        assert "2\t0,5\t6\n" in text
        path.write_text(text.replace("2\t0,5\t6\n", "2\t0,5\t999\n"))
        assert main(["alpha", "--row", "10,15", "--cache-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "checksum" in captured.err


    def test_unusable_cache_file_path_exits_with_usage_error(self, tmp_path, capsys, monkeypatch):
        # The path is checked before the row is evaluated.
        def refuse(*args):
            raise AssertionError("evaluated despite an unusable cache file")

        monkeypatch.setattr(monotri.cli, "alpha", refuse)
        missing = tmp_path / "nonexistent" / "F"
        # A path that ends in a separator names no file, whether nothing or a
        # regular file has that name.
        new, regular = f"{tmp_path / 'new.tsv'}{os.sep}", f"{__file__}{os.sep}"
        for path, reason in [(missing, f"{missing.parent} is not a directory"), (tmp_path, "is a directory"),
                             (new, "ends in a path separator"), (regular, "ends in a path separator")]:
            assert main(["alpha", "--row", "1,2,3", "--cache-file", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cache file {path}: {reason}\n"
        assert main(["alpha", "--row", "1,2,3", "--cache-file", ""]) == 2
        assert capsys.readouterr() == ("", "error: cache file '': empty path\n")
        assert list(tmp_path.iterdir()) == []

    def test_cache_file_os_error_exits_with_usage_error(self, tmp_path, capsys, monkeypatch):
        def deny(self, path):
            raise PermissionError(13, "Permission denied", str(path))

        path = tmp_path / "cache.tsv"
        assert main(["alpha", "--row", "1,2,3", "--cache-file", str(path)]) == 0
        assert capsys.readouterr().out == "7\n"
        # load on a file that exists; save on one that gains entries
        for name, row in (("load", "1,2,3"), ("save", "1,2,3,4")):
            with monkeypatch.context() as patch:
                patch.setattr(EvalCache, name, deny)
                assert main(["alpha", "--row", row, "--cache-file", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cache file {path}: Permission denied\n"


class TestEnumerateCommand:
    def test_reader_that_closes_early_ends_the_stream_quietly(self):
        # 7,436 triangles, 416 KB: far more than a pipe holds, so the stream
        # is still writing when the reader goes.
        argv = [sys.executable, "-m", "monotri.cli", "enumerate", "gmt", "--row", "1,2,3,4,5,6"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"[[1],[1,2],[1,2,3],[1,2,3,4],[1,2,3,4,5],[1,2,3,4,5,6]]\n"
            proc.stdout.close()
            assert proc.wait(timeout=300) == 141
            assert proc.stderr.read() == b""

    def test_output_to_a_closed_pipe_ends_quietly(self):
        # A pipe whose reader is gone before the command starts: even output
        # that fits in stdout's buffer is written before main returns.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "monotri.cli", "alpha", "--row", "1,2,3"],
                                  stdout=write, stderr=subprocess.PIPE, timeout=300)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_count_and_signed(self):
        assert run_cli("enumerate", "gmt", "--row", "4,2,1,3", "--count").stdout == "4\n"
        assert run_cli("enumerate", "gmt", "--row", "4,2,1,3", "--signed").stdout == "-2\n"
        assert run_cli("enumerate", "mt", "--row", "1,2,3", "--count").stdout == "7\n"

    def test_count_takes_no_sign(self, capsys, monkeypatch):
        def refuse(lower, upper):
            raise AssertionError("row_sign_changes called on a count")

        monkeypatch.setattr(monotri.rows, "row_sign_changes", refuse)
        for klass, row, count in (("gmt", "4,2,1,3", 4), ("dmt", "3,2,1", 1), ("dmt", "7,5,4,2,0", 15)):
            assert main(["enumerate", klass, "--row", row, "--count"]) == 0
            assert capsys.readouterr().out == f"{count}\n"

    def test_signed_total_without_building_triangles(self, capsys):
        for klass, row in (("gmt", "3,-1,2,0,-2,1,4"), ("dmt", "8,6,4,3,3,1,0"), ("mt", "2,4,5,8,9")):
            assert main(["enumerate", klass, "--row", row, "--signed"]) == 0
            assert capsys.readouterr().out == f"{alpha(parse_row(row))}\n"

    def test_signed_stops_where_the_stream_would(self, capsys):
        # 5,979,376 triangles, past the default triangle budget
        started = time.perf_counter()
        assert main(["enumerate", "gmt", "--row", "0,1,2,3,4,6,8", "--signed"]) == 3
        assert time.perf_counter() - started < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "triangle budget exhausted" in captured.err
        argv = ["enumerate", "gmt", "--row", "0,1,2,3,4,6,8", "--signed", "--max-triangles", "5979376"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "5979376\n"

    def test_stream_is_json_lines(self):
        proc = run_cli("enumerate", "gmt", "--row", "4,2,1,3")
        lines = proc.stdout.splitlines()
        assert len(lines) == 4
        triangles = [triangle_from_json(line) for line in lines]
        assert all(validate_gmt(t) for t in triangles)
        assert lines[0] == "[[2],[2,2],[2,2,1],[4,2,1,3]]"

    def test_tn_stream_carries_specials(self):
        proc = run_cli("enumerate", "tn", "--row", "4,2,1,3")
        lines = proc.stdout.splitlines()
        assert len(lines) == 8
        assert all("special" in json.loads(line) for line in lines)

    def test_tn_totals_obey_the_stream_budgets(self, capsys):
        assert main(["enumerate", "tn", "--row", "4,2,1,3", "--count"]) == 0
        assert capsys.readouterr().out == "8\n"
        assert main(["enumerate", "tn", "--row", "4,2,1,3", "--signed"]) == 0
        assert capsys.readouterr().out == "-2\n"
        for budget, message in (("--max-triangles", "triangle"), ("--max-rows", "row generation")):
            for total in ("--count", "--signed"):
                assert main(["enumerate", "tn", "--row", "4,2,1,3", total, budget, "7"]) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: {message} budget exhausted\n"

    def test_budgets_stop_a_wide_tn_row_at_once(self, capsys, monkeypatch):
        # The boxes above (0, 3000, 6000) hold about 9M rows; the walk builds
        # only the six rows it takes before the row budget stops it.
        taken = []

        def counted(*ranges):
            for above in product(*ranges):
                taken.append(above)
                assert len(taken) <= 6, "the walk built rows it did not take"
                yield above

        monkeypatch.setattr(monotri.decorated, "product", counted)
        for total in ((), ("--count",), ("--signed",)):
            taken.clear()
            assert main(["enumerate", "tn", "--row", "0,3000,6000", "--max-rows", "5", *total]) == 3
            assert capsys.readouterr().err == "error: row generation budget exhausted\n"
            assert len(taken) == 6

    def test_class_row_mismatch_is_usage_error(self):
        assert run_cli("enumerate", "mt", "--row", "2,1").returncode == 2
        assert run_cli("enumerate", "dmt", "--row", "1,2").returncode == 2

    def test_row_budget_stops_a_long_mt_row(self, capsys):
        # 39 interlacing windows of two values each: a fill that filtered
        # their product would weigh 2**39 candidates before the budget
        started = time.perf_counter()
        assert main(["enumerate", "mt", "--row", ",".join(map(str, range(1, 41))), "--max-rows", "5"]) == 3
        assert time.perf_counter() - started < 2
        assert capsys.readouterr().err == "error: row generation budget exhausted\n"

    def test_budget_exit_code(self):
        proc = run_cli("enumerate", "mt", "--row", "2,4,5,8,9", "--max-triangles", "5")
        assert proc.returncode == 3

    def test_count_obeys_the_stream_budgets(self, capsys):
        row = ["--row", "2,4,5,8,9"]
        assert main(["enumerate", "mt", *row, "--count", "--max-triangles", "16938"]) == 3
        assert capsys.readouterr().err == "error: triangle budget exhausted\n"
        assert main(["enumerate", "mt", *row, "--count", "--max-rows", "3"]) == 3
        assert capsys.readouterr().err == "error: row generation budget exhausted\n"
        assert main(["enumerate", "mt", *row, "--count", "--max-triangles", "16939"]) == 0
        assert capsys.readouterr().out == "16939\n"
        assert main(["enumerate", "dmt", "--row", "2,2,2", "--count"]) == 0
        assert capsys.readouterr().out == "0\n"


def canonical_line(obj):
    """A streamed object in the canonical encoding of lists: compact
    separators and sorted keys."""
    if hasattr(obj, "special"):
        obj = {"rows": [list(r) for r in obj.triangle.rows], "special": [list(p) for p in sorted(obj.special)]}
    else:
        obj = [list(r) for r in obj.rows]
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def expected_stream(klass, row, limits):
    """(canonical lines, exit code) of ``enumerate <klass>``: the lines of the
    objects the stream yields before it ends or exceeds a budget."""
    stream = {"gmt": enumerate_gmt, "mt": enumerate_mt, "dmt": enumerate_dmt, "tn": enumerate_tn}[klass]
    lines = []
    try:
        for obj in stream(row, limits):
            lines.append(canonical_line(obj))
    except BudgetExceededError:
        return lines, 3
    return lines, 0


# Rows with negative entries, ties, descents and a single entry.
STREAM_ROWS = {
    "gmt": [(4, 2, 1, 3), (-3, 0, -1, 2, -2), (2, 2, 1, 3, 3), (3, 1, 4, 2, 5), (-1, -1, -1), (7,), (-5,)],
    "mt": [(-2, 0, 1, 4), (1, 3, 4, 6, 7), (-4, -3), (5,)],
    "dmt": [(3, 1, 1, -2), (9, 7, 5, 3, 1, 0, 0), (0, 0), (-1,)],
    "tn": [(4, 2, 1, 3), (-2, -2, -1, 0), (3, 1, 4, 2, 5), (2, 2, 1, 3, 3), (6,)],
}


class TestStreamBytes:
    """Every streamed line is the canonical encoding of its object, also the
    lines printed before a budget stops the stream with exit 3."""

    def check(self, capsys, klass, row, max_triangles=1_000_000, max_rows=10_000_000):
        limits = EnumerationLimits(max_rows_generated=max_rows, max_triangles=max_triangles)
        lines, code = expected_stream(klass, row, limits)
        argv = ["enumerate", klass, "--row", ",".join(map(str, row)),
                "--max-triangles", str(max_triangles), "--max-rows", str(max_rows)]
        assert main(argv) == code
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
        return len(lines), code

    def test_full_streams(self, capsys):
        for klass, rows in STREAM_ROWS.items():
            for row in rows:
                assert self.check(capsys, klass, row)[1] == 0, (klass, row)

    def test_streams_cut_by_a_budget(self, capsys):
        stopped = []
        for klass, rows in STREAM_ROWS.items():
            for row in rows:
                for budget in ({"max_triangles": 3}, {"max_rows": 5}, {"max_triangles": 40, "max_rows": 60}):
                    printed, code = self.check(capsys, klass, row, **budget)
                    if code == 3:
                        stopped.append(printed)
        # the budgets cut streams both before and after their first line
        assert 0 in stopped and max(stopped) >= 3

    def test_one_memo_serves_both_encodings_of_a_row(self, capsys):
        # (4, 2) is both a row and a special position in this tn stream.
        assert self.check(capsys, "tn", (3, 4, 1, 1)) == (9, 0)


class TestVerifyCommand:
    def test_checking_nothing_is_a_usage_error(self, capsys):
        for argv, message in [
            (["cyclic", "--n", "3", "--samples", "0"], "samples must be at least 1"),
            (["cyclic", "--n", "3", "--samples", "-5"], "samples must be at least 1"),
            (["reduction", "--samples", "0"], "samples must be at least 1"),
            (["cyclic", "--n", "-2", "--exhaustive"], "n must be at least 1, got -2"),
            (["theorem1", "--n", "0"], "n must be at least 1, got 0"),
            (["reduction", "--n", "0"], "n must be at least 1, got 0"),
            (["lemma1", "--functions", "0"], "functions must be at least 1"),
            (["operator-alt", "--functions", "-1"], "functions must be at least 1"),
            (["lemma1", "--n", "1"], "lemma1 needs n of at least 2, got 1"),
            (["operator-alt", "--n", "1"], "operator-alt needs n of at least 3, got 1"),
            (["operator-alt", "--n", "2", "--samples", "2"], "operator-alt needs n of at least 3, got 2"),
            (["ratio-scan", "--k", "4", "--n-range", "6..5"], "empty --n-range 6..5"),
            (["rev-dup", "--n-range", "3..2"], "empty --n-range 3..2"),
            (["neighbor-split", "--n", "1"], "neighbor-split has no point to check"),
            (["two-step-split", "--n", "1"], "two-step-split has no point to check"),
            (["shift-antisym", "--n", "1"], "shift-antisym has no point to check"),
            (["w-symmetry", "--n", "0"], "w-symmetry has no point to check"),
            (["rev-dup", "--n-range", "0..0"], "rev-dup has no point to check"),
            (["ratio-k6", "--n", "2"], "ratio-k6 has no point to check"),
            (["ratio-scan", "--k", "4", "--n-range", "1..3"], "ratio-scan-k4 has no point to check"),
            (["reduction", "--row", ""], "cannot parse row ''"),
            (["all", "--row", ""], "cannot parse row ''"),
        ]:
            assert main(["verify", *argv]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_options_the_check_does_not_read_are_usage_errors(self, capsys):
        for argv, message in [
            (["cyclic", "--n", "3", "--samples", "3", "--i", "7"], "cyclic does not read --i"),
            (["operator-alt", "--zero-triple-rows", "--n", "3", "--samples", "3"],
             "operator-alt does not read --zero-triple-rows"),
            (["rev-dup", "--n", "2", "--row", "9,9", "--k", "3"], "rev-dup does not read --k, --row"),
            (["theorem1", "--n", "2", "--method", "gmt"], "theorem1 does not read --method"),
            (["lemma1", "--n", "2", "--time-budget-secs", "5"], "lemma1 does not read --time-budget-secs"),
            (["all", "--functions", "3"], "all does not read --functions"),
            (["neighbor-split", "--n", "3", "--i", "3"], "--i 3 outside the positions 1..2 of neighbor-split"),
            (["shift-antisym", "--n", "4", "--i", "0"], "--i 0 outside the positions 1..3 of shift-antisym"),
            (["all", "--i", "3"], "--i 3 outside the positions 1..2 of all"),
            (["ratio-scan", "--k", "4", "--n", "5", "--n-range", "4..5"], "ratio-scan does not read --n with --n-range"),
            (["rev-dup", "--n", "3", "--n-range", "2..3"], "rev-dup does not read --n with --n-range"),
            (["rev-dup", "--n", "3", "--time-budget-secs", "5"], "rev-dup does not read --time-budget-secs with --n"),
            (["comb-rec", "--n-range", "3..4", "--time-budget-secs", "5"],
             "comb-rec does not read --time-budget-secs with --n-range"),
            (["reduction", "--row", "4,2,1,3", "--n", "4"], "reduction does not read --n with --row"),
            (["reduction", "--row", "4,2,1,3", "--window", "0..3", "--samples", "5", "--seed", "3", "--exhaustive"],
             "reduction does not read --window, --samples, --seed, --exhaustive with --row"),
        ]:
            assert main(["verify", *argv]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_options_at_their_defaults_and_jobs_go_with_any_check(self, capsys):
        argv = ["rev-dup", "--n", "2", "--samples", "100", "--functions", "10", "--jobs", "8", "--format", "json"]
        assert main(["verify", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_time_budget_must_be_finite_and_not_negative(self, capsys, monkeypatch):
        # Rejected before any check runs: no grid, reduction or family is started.
        def no_work(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ("run_identity_grid", "verify_reduction", "run_conjecture_suite"):
            monkeypatch.setattr(monotri.cli, name, no_work)
        for check, budget in product(("comb-rec", "all"), ("-1", "nan", "inf")):
            assert main(["verify", check, "--time-budget-secs", budget]) == 2, (check, budget)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "is not a finite number >= 0" in captured.err

    def test_operator_checks_keep_the_evaluation_bound(self, capsys):
        # Rows past the bound stop at once with the budget exit code, as
        # theorem1's do, in place of an operator expansion that does not end.
        for argv in (["lemma1", "--functions", "1"], ["operator-alt", "--functions", "1"], ["theorem1"]):
            started = time.perf_counter()
            assert main(["verify", *argv, "--n", "65", "--samples", "1"]) == 3, argv
            assert time.perf_counter() - started < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: row length 65 exceeds the evaluation bound 64\n"

    def test_option_table_covers_every_check(self):
        # A check missing from the table would end verify with a KeyError
        # traceback, and a misspelt option name would never be read.
        parser = monotri.cli.build_parser()
        verify = next(action for action in parser._actions if action.dest == "command").choices["verify"]
        dests = {action.dest for action in verify._actions}
        identity = next(action for action in verify._actions if action.dest == "identity")
        assert set(monotri.cli._VERIFY_READS) == set(identity.choices)
        for name, reads in monotri.cli._VERIFY_READS.items():
            assert reads <= dests, (name, reads - dests)

    def test_one_timing_line_on_stderr(self, capsys):
        assert main(["verify", "cyclic", "--n", "3", "--samples", "5"]) == 0
        assert re.fullmatch(r"checked 1 report\(s\) in \d+\.\d\ds\n", capsys.readouterr().err)

    def test_exhaustive_grid_ignores_samples(self, capsys):
        assert main(["verify", "cyclic", "--n", "2", "--window", "0..1", "--exhaustive",
                     "--samples", "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["checked"] == 4

    def test_cyclic_passes(self):
        proc = run_cli("verify", "cyclic", "--n", "3", "--window", "-4..4",
                       "--samples", "40", "--seed", "7")
        assert proc.returncode == 0
        assert "cyclic" in proc.stdout

    def test_method_agreement_exhaustive(self):
        proc = run_cli("verify", "theorem1", "--n", "3", "--window", "-1..1", "--exhaustive")
        assert proc.returncode == 0

    def test_conjecture_wording(self):
        proc = run_cli("verify", "rev-dup", "--n", "3")
        assert proc.returncode == 0
        assert "conjecture: consistent at tested scale" in proc.stdout

    def test_reduction_single_row(self):
        proc = run_cli("verify", "reduction", "--row", "4,2,1,3")
        assert proc.returncode == 0

    def test_unknown_identity_is_usage_error(self):
        assert run_cli("verify", "no-such-identity").returncode == 2

    def test_json_format(self):
        proc = run_cli("verify", "cyclic", "--n", "2", "--samples", "10", "--format", "json")
        document = json.loads(proc.stdout)
        assert document["passed"] is True
        assert document["reports"][0]["name"] == "cyclic"
        assert "timing" not in json.dumps(document)

    def test_jobs_do_not_change_output_bytes(self):
        args = ("verify", "cyclic", "--n", "3", "--samples", "30", "--seed", "9",
                "--format", "json")
        one = run_cli(*args, "--jobs", "1")
        eight = run_cli(*args, "--jobs", "8")
        assert one.returncode == eight.returncode == 0
        assert one.stdout == eight.stdout

    def test_time_budget_grows_an_auto_sized_grid(self, capsys):
        # without a budget comb-rec checks n = 1, 2; those take far less than the
        # 50 ms budget, so the grid goes on to n = 3 and beyond
        assert main(["verify", "comb-rec", "--time-budget-secs", "0.05", "--format", "json"]) == 0
        grid = json.loads(capsys.readouterr().out)["reports"][0]["grid"]
        ns = json.loads(grid.removeprefix("n in "))
        assert ns[:3] == [1, 2, 3] and ns == list(range(1, len(ns) + 1))

    def test_ratio_scan(self):
        proc = run_cli("verify", "ratio-scan", "--k", "4", "--n-range", "4..5",
                       "--format", "json")
        assert proc.returncode == 0
        document = json.loads(proc.stdout)
        assert document["reports"][0]["metadata"]["ratios"] == {"4": "4", "5": "9/2"}


def call(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, an argparse exit included;
    verify's run time reads as T."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), re.sub(r" in \d+\.\d\ds$", " in Ts", err.getvalue(), flags=re.M)


class TestSharedParser:
    # main builds its parser once per process; each call must answer as a
    # first call on a newly built parser does.
    SEQUENCE = [
        ["verify", "cyclic", "--n", "4", "--samples", "3", "--format", "json"],
        ["verify", "cyclic", "--samples", "3", "--format", "json"],  # --n falls back to 3
        ["alpha", "--row", "1,2,3", "--all-methods"],
        ["alpha", "--row", "1,2,3", "--method", "gmt"],
        ["alpha", "--row"],  # an argparse usage error
        ["alpha", "--row", "4,2,1,3"],
        ["alpha", "--help"],
        ["alpha", "--help"],
    ]

    def test_later_calls_answer_as_first_calls(self):
        first = {}
        for argv in self.SEQUENCE:
            monotri.cli.build_parser.cache_clear()
            first[tuple(argv)] = call(argv)
        results = [call(argv) for argv in self.SEQUENCE]
        for argv, result in zip(self.SEQUENCE, results):
            assert result == first[tuple(argv)], argv
        assert '"grid": "n=4,' in results[0][1] and '"grid": "n=3,' in results[1][1]
        assert results[2][1] == "7\n" * 5 and results[3][1] == "7\n"
        assert results[4][0] == 2 and "usage: monotri alpha" in results[4][2]
        assert results[5] == (0, "-2\n", "")
        assert results[6][0] == 0 and results[6][1].startswith("usage: monotri alpha")
        assert results[6] == results[7]

    def test_parser_is_built_once(self, monkeypatch):
        assert call(["alpha", "--row", "1,2,3"]) == (0, "7\n", "")

        def refuse(*args, **kwargs):
            raise AssertionError("the argparse tree was built again")

        monkeypatch.setattr(monotri.cli.argparse, "ArgumentParser", refuse)
        assert call(["alpha", "--row", "1,2,3"]) == (0, "7\n", "")

    def test_parser_is_not_built_at_import(self):
        # Importing the CLI, as the benchmark's set-up probe does, builds no
        # parser; the first main call builds it and a second builds nothing.
        code = "\n".join([
            "import argparse, contextlib, io",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *args, **kwargs):",
            "    built.append(self)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting",
            "import monotri.cli",
            "print(len(built))",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    monotri.cli.main(['alpha', '--row', '1,2,3'])",
            "    once = len(built)",
            "    monotri.cli.main(['alpha', '--row', '1,2,3'])",
            "print(once > 0, len(built) == once)",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert proc.stdout == "0\nTrue True\n", proc.stderr

    def test_patches_reach_the_cached_parser(self, monkeypatch, capsys):
        # bench/tracing.py wraps names on monotri.cli after the parser may exist.
        assert main(["alpha", "--row", "1,2,3"]) == 0
        grids = []
        real_grid = monotri.cli.run_identity_grid

        def recording_grid(name, **params):
            grids.append(name)
            return real_grid(name, **params)

        monkeypatch.setattr(monotri.cli, "alpha", lambda row, method, cache: -1)
        monkeypatch.setattr(monotri.cli, "run_identity_grid", recording_grid)
        assert main(["alpha", "--row", "1,2,3"]) == 0
        assert main(["verify", "cyclic", "--samples", "3"]) == 0
        assert grids == ["cyclic"]
        assert capsys.readouterr().out.startswith("7\n-1\n")
