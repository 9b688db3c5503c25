import contextlib
import io
import json
import subprocess
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from monotri import alpha, triangle_from_json, validate_gmt
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

    def test_all_methods_four_equal_lines(self):
        proc = run_cli("alpha", "--row", "4,2,1,3", "--all-methods")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["-2", "-2", "-2", "-2"]

    def test_all_methods_includes_direct_count_when_increasing(self):
        proc = run_cli("alpha", "--row", "1,2,3", "--all-methods")
        assert proc.stdout.splitlines() == ["7"] * 5

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
        assert main(["alpha", "--row", "1,2,3", "--method", "gmt", "--cache-file", str(path)]) == 0
        same = path.stat()
        assert (same.st_ino, same.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)
        assert main(["alpha", "--row", "1,2,3,4", "--cache-file", str(path)]) == 0
        assert path.stat().st_ino != written.st_ino
        assert capsys.readouterr().out == "-2\n-2\n7\n42\n"

    def test_new_cache_file_is_written_even_without_entries(self, tmp_path):
        path = tmp_path / "cache.tsv"
        assert main(["alpha", "--row", "1,2,3", "--method", "gmt", "--cache-file", str(path)]) == 0
        assert path.read_text().startswith("monotri-cache v2 route=gmt ")

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
        assert main(["alpha", *row, "--method", "mt", "--cache-file", str(path)]) == 0
        assert capsys.readouterr().out == "429\n429\n"

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


class TestEnumerateCommand:
    def test_count_and_signed(self):
        assert run_cli("enumerate", "gmt", "--row", "4,2,1,3", "--count").stdout == "4\n"
        assert run_cli("enumerate", "gmt", "--row", "4,2,1,3", "--signed").stdout == "-2\n"
        assert run_cli("enumerate", "mt", "--row", "1,2,3", "--count").stdout == "7\n"

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

    def test_class_row_mismatch_is_usage_error(self):
        assert run_cli("enumerate", "mt", "--row", "2,1").returncode == 2
        assert run_cli("enumerate", "dmt", "--row", "1,2").returncode == 2

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


class TestVerifyCommand:
    def test_checking_nothing_is_a_usage_error(self, capsys):
        for argv, message in [
            (["cyclic", "--n", "3", "--samples", "0"], "samples must be at least 1"),
            (["cyclic", "--n", "3", "--samples", "-5"], "samples must be at least 1"),
            (["reduction", "--samples", "0"], "samples must be at least 1"),
            (["lemma1", "--functions", "0"], "functions must be at least 1"),
            (["operator-alt", "--functions", "-1"], "functions must be at least 1"),
            (["ratio-scan", "--k", "4", "--n-range", "6..5"], "empty --n-range 6..5"),
            (["rev-dup", "--n-range", "3..2"], "empty --n-range 3..2"),
        ]:
            assert main(["verify", *argv]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

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

    def test_ratio_scan(self):
        proc = run_cli("verify", "ratio-scan", "--k", "4", "--n-range", "4..5",
                       "--format", "json")
        assert proc.returncode == 0
        document = json.loads(proc.stdout)
        assert document["reports"][0]["metadata"]["ratios"] == {"4": "4", "5": "9/2"}
