"""Output checks for every workload operation.

Each check compares what ``monotri`` printed with a computation made apart
from it (``oracle.py``), never with a stored copy of earlier output.  The
only values taken from the program are those of a second evaluation route,
``operator_alt``, run outside the timed phase on the reflected row, as a
cross-check next to the benchmark's own interpolation.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import oracle
from workloads import Op


def _row_arg(argv) -> tuple[int, ...]:
    return tuple(int(v) for v in argv[list(argv).index("--row") + 1].split(","))


@lru_cache(maxsize=None)
def _gmt_counts(row):
    return oracle.gmt_counts(row)


@lru_cache(maxsize=None)
def _tn_counts(row):
    return oracle.tn_counts(row)


class Checker:
    """``check(op, stdout)`` returns a list of problems, empty when the output
    is right.  ``other_route(row)`` evaluates the counting polynomial by a
    route other than the one the workload times."""

    def __init__(self, other_route: Callable[[tuple[int, ...]], int]):
        self.other_route = other_route

    def check(self, op: Op, stdout: str) -> list[str]:
        kind = op.check[0]
        if kind == "enumerate":
            return self._enumerate(op, stdout)
        if kind == "verify":
            return self._verify(op, stdout)
        return self._alpha(op, stdout)

    # --- alpha ---------------------------------------------------------------

    def expected_alpha(self, op: Op) -> int:
        kind = op.check[0]
        row = _row_arg(op.argv)
        if kind == "asm":
            return oracle.asm_count(op.check[1])
        if kind == "vsasm":
            return oracle.vsasm_count(op.check[1])
        if kind == "refined":
            return oracle.refined_asm_count(op.check[1], op.check[2])
        if kind == "mt":
            return oracle.mt_count(row)
        if kind == "brute":
            return _gmt_counts(row)[1]
        if kind == "signed3":
            mirrored = oracle.reflect(tuple(v - row[0] for v in row))
            value = oracle.polynomial_alpha(mirrored)
            if self.other_route(mirrored) != value:
                raise ValueError(f"operator_alt disagrees with interpolation at {mirrored}")
            return value
        raise ValueError(f"unknown check {op.check!r}")

    def _alpha(self, op: Op, stdout: str) -> list[str]:
        try:
            expected = self.expected_alpha(op)
        except ValueError as exc:
            return [str(exc)]
        if stdout != f"{expected}\n":
            return [f"printed {stdout!r}, expected {expected}"]
        return []

    # --- enumerate -----------------------------------------------------------

    def _reference(self, klass: str, row) -> tuple[int, int | None]:
        """(object count, signed total or None) for the class and bottom row."""
        if klass == "gmt":
            return _gmt_counts(row)
        if klass == "mt":
            count = oracle.mt_count(row)
            return count, count
        if klass == "dmt":
            return oracle.dmt_count(row), None
        return _tn_counts(row)

    def _enumerate(self, op: Op, stdout: str) -> list[str]:
        _, klass, mode = op.check
        row = _row_arg(op.argv)
        count, signed = self._reference(klass, row)
        if mode == "count":
            return [] if stdout == f"{count}\n" else [f"count {stdout!r}, expected {count}"]
        if mode == "signed":
            want = _gmt_counts(row)[1]
            if signed != want:
                return [f"reference signed totals differ: {signed} vs gmt {want}"]
            return [] if stdout == f"{want}\n" else [f"signed total {stdout!r}, expected {want}"]
        return self._stream(klass, row, stdout, count, signed)

    def _stream(self, klass, row, stdout, count, signed) -> list[str]:
        if stdout and not stdout.endswith("\n"):
            return ["stream does not end with a newline"]
        lines = stdout.split("\n")[:-1]
        seen = set()
        total = 0
        for number, line in enumerate(lines, start=1):
            try:
                data = json.loads(line)
                if klass == "tn":
                    rows = [tuple(r) for r in data["rows"]]
                    special = frozenset(tuple(p) for p in data["special"])
                    ok = oracle.tn_ok(rows, special)
                    sign = -1 if oracle.tn_weight(rows, special) % 2 else 1
                    key = (tuple(rows), special)
                else:
                    rows = [tuple(r) for r in data]
                    special = None
                    ok = oracle.triangle_ok(klass, rows)
                    sign = -1 if oracle.triangle_sc(rows) % 2 else 1
                    key = tuple(rows)
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                return [f"line {number} is malformed ({exc}): {line[:80]!r}"]
            if not rows or rows[-1] != row:
                return [f"line {number} has bottom row {rows[-1] if rows else None}, expected {row}"]
            if not ok:
                return [f"line {number} breaks the {klass} conditions: {line[:80]!r}"]
            if key in seen:
                return [f"line {number} repeats an earlier object"]
            seen.add(key)
            total += sign
        problems = []
        if len(lines) != count:
            problems.append(f"{len(lines)} lines, expected {count}")
        if klass == "tn" and total != _gmt_counts(row)[1]:
            problems.append(f"signed tn total {total} differs from the signed gmt total {_gmt_counts(row)[1]}")
        elif signed is not None and total != signed:
            problems.append(f"sum of (-1)**sc is {total}, expected {signed}")
        return problems

    # --- verify --------------------------------------------------------------

    def _verify(self, op: Op, stdout: str) -> list[str]:
        expected = op.check[1]
        try:
            doc = json.loads(stdout)
            reports = doc["reports"]
        except (ValueError, TypeError, KeyError) as exc:
            return [f"report is not a JSON document with reports: {exc}"]
        if doc.get("passed") is not True:
            return ["report says passed is not true"]
        names = [r.get("name") for r in reports]
        if names != [name for name, _ in expected]:
            return [f"reports {names}, expected {[name for name, _ in expected]}"]
        problems = []
        for report, (name, checked) in zip(reports, expected):
            if report.get("failures") != 0 or report.get("status") not in ("pass", "consistent", "info"):
                problems.append(f"{name}: status {report.get('status')} with {report.get('failures')} failures")
            if name == "tn-reduction":
                problems += self._reduction(report)
                continue
            if report.get("checked") != checked:
                problems.append(f"{name}: checked {report.get('checked')}, expected {checked}")
            results = report.get("metadata", {}).get("results")
            if results is not None and (len(results) != checked or not all(r.get("ok") for r in results)):
                problems.append(f"{name}: {len(results)} results listed, not all ok")
            if name == "ratio-scan-k4":
                problems += self._ratios(report)
        return problems

    def _reduction(self, report: dict) -> list[str]:
        match = re.fullmatch(r"bottom row \(([-\d, ]+)\)", report.get("grid", ""))
        if not match:
            return [f"tn-reduction: cannot read the row from {report.get('grid')!r}"]
        row = tuple(int(v) for v in match.group(1).split(","))
        objects, signed = _tn_counts(row)
        meta = report.get("metadata", {})
        problems = []
        if report.get("checked") != objects + 1 or meta.get("objects") != objects:
            problems.append(f"tn-reduction {row}: checked {report.get('checked')}, "
                            f"expected {objects + 1}")
        if meta.get("signed_total") != str(_gmt_counts(row)[1]) or signed != _gmt_counts(row)[1]:
            problems.append(f"tn-reduction {row}: signed total {meta.get('signed_total')}, "
                            f"expected {_gmt_counts(row)[1]}")
        return problems

    def _ratios(self, report: dict) -> list[str]:
        # The ratio of the doubled-pair insertion at (3, 4) to the staircase
        # count of size n - 1 is (n + 4) / 2 (the ratio-k4 family).
        ratios = report.get("metadata", {}).get("ratios", {})
        bad = {n: r for n, r in ratios.items() if Fraction(r) != Fraction(int(n) + 4, 2)}
        return [f"ratio-scan-k4: ratios {bad} differ from (n + 4) / 2"] if bad else []
