"""Command-line front end: exact evaluation, enumeration, verification.

Data goes to stdout, diagnostics (including timings) to stderr.  Streams are
JSON Lines, reports a single JSON document or a text table.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 resource budget exceeded.
Identical invocations with identical seeds produce byte-identical stdout for
any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .decorated import enumerate_tn, verify_reduction
from .evaluate import METHODS, EvalCache, alpha, applicable_methods
from .identities import (
    CONJECTURES,
    GRID_CHECKS,
    ConjectureSpec,
    emit_ratio_sequence,
    grid_rows,
    run_conjecture_suite,
    run_identity_grid,
)
from .report import VerificationReport, render_table
from .rows import (
    BudgetExceededError,
    EnumerationLimits,
    enumerate_dmt,
    enumerate_gmt,
    enumerate_mt,
    triangle_totals,
)
# sc_statistic is unused here; bench/tracing.py looks it up on this module to wrap it.
from .triangles import sc_statistic, tn_to_json, triangle_to_json  # noqa: F401


# argparse passes [] instead of a string for an option value of "--", such as
# --row=--, so the parsers below read anything that is not a string as unparsable.
def parse_row(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except (AttributeError, ValueError):
        raise ValueError(f"cannot parse row {text!r}: expected comma-separated integers")


def parse_window(text: str) -> tuple[int, int]:
    parts = text.split("..") if isinstance(text, str) else []
    if len(parts) != 2:
        raise ValueError(f"cannot parse window {text!r}: expected a..b")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"cannot parse window {text!r}: expected integer bounds")


def _limits(args) -> EnumerationLimits:
    return EnumerationLimits(
        max_rows_generated=args.max_rows,
        max_triangles=args.max_triangles,
    )


def cmd_alpha(args) -> int:
    row = parse_row(args.row)
    if args.all_methods:
        values = []
        for method in applicable_methods(row):
            values.append(alpha(row, method))
        for value in values:
            print(value)
        return 0 if len(set(values)) == 1 else 1
    cache = EvalCache(route=args.method)
    existed = bool(args.cache_file) and os.path.exists(args.cache_file)
    if existed:
        cache.load(args.cache_file)
    loaded = len(cache)
    value = alpha(row, args.method, cache)
    if args.cache_file and (not existed or len(cache) > loaded):
        cache.save(args.cache_file)
    print(value)
    return 0


def cmd_enumerate(args) -> int:
    row = parse_row(args.row)
    limits = _limits(args)
    if args.klass == "tn":
        stream = enumerate_tn(row, limits)
        to_json = tn_to_json
    elif args.count or args.signed:
        count, signed = triangle_totals(args.klass, row, limits)
        print(signed if args.signed else count)
        return 0
    else:
        factory = {"mt": enumerate_mt, "dmt": enumerate_dmt, "gmt": enumerate_gmt}[args.klass]
        stream = factory(row, limits)
        to_json = triangle_to_json
    if args.count:
        print(sum(1 for _ in stream))
    elif args.signed:
        print(sum(obj.sign for obj in stream))
    else:
        for obj in stream:
            print(to_json(obj))
    return 0


def _n_values(args) -> tuple[int, ...] | None:
    if args.n_range is not None:
        lo, hi = parse_window(args.n_range)
        if lo > hi:
            raise ValueError(f"empty --n-range {args.n_range}")
        return tuple(range(lo, hi + 1))
    if args.n is not None:
        return (args.n,)
    return None


def _emit(reports: list[VerificationReport], fmt: str) -> None:
    if fmt == "json":
        document = {
            "reports": [r.to_dict() for r in reports],
            "passed": all(r.passed for r in reports),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_table(reports))
    total = sum(r.timing_secs for r in reports)
    print(f"checked {len(reports)} report(s) in {total:.2f}s", file=sys.stderr)


def cmd_verify(args) -> int:
    window = parse_window(args.window)
    reports: list[VerificationReport] = []
    started = time.perf_counter()

    def grid(name: str, **overrides) -> VerificationReport:
        params = dict(
            n=args.n if args.n is not None else 3,
            window=window,
            samples=args.samples,
            seed=args.seed,
            exhaustive=args.exhaustive,
            i_values=(args.i,) if args.i is not None else None,
            method=args.method,
            jobs=args.jobs,
            functions=args.functions,
            zero_on_triple_rows=args.zero_triple_rows,
        )
        params.update(overrides)
        return run_identity_grid(name, **params)

    name = args.identity
    if name == "all":
        reports.append(grid("theorem1", n=3, window=(-2, 2), exhaustive=True))
        reports.append(grid("cyclic", n=3))
        reports.append(grid("neighbor-split", n=3, samples=40))
        reports.append(grid("two-step-split", n=3, samples=40))
        reports.append(grid("shift-antisym", n=3, samples=40))
        reports.append(grid("lemma1", n=3, samples=25, functions=4))
        reports.append(grid("operator-alt", n=3, samples=25, functions=4))
        reports.append(verify_reduction(parse_row(args.row) if args.row else (4, 2, 1, 3)))
        reports.extend(run_conjecture_suite(ConjectureSpec(
            method=args.method, jobs=args.jobs, time_budget_secs=args.time_budget_secs)))
    elif name in GRID_CHECKS:
        reports.append(grid(name))
    elif name == "reduction":
        if args.row:
            reports.append(verify_reduction(parse_row(args.row)))
        else:
            n = args.n if args.n is not None else 3
            for row in grid_rows(n, window, args.samples, args.seed, args.exhaustive):
                reports.append(verify_reduction(row))
    elif name == "ratio-scan":
        if args.k is None:
            raise ValueError("ratio-scan needs --k")
        ns = _n_values(args) or (args.k, args.k + 1)
        reports.append(emit_ratio_sequence(args.k, ns, args.method))
    elif name in CONJECTURES:
        reports.extend(run_conjecture_suite(ConjectureSpec(
            names=(name,), n_values=_n_values(args), method=args.method,
            jobs=args.jobs, time_budget_secs=args.time_budget_secs)))
    else:
        raise ValueError(f"unknown identity {name!r}")

    _emit(reports, args.format)
    print(f"total wall time {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _allow_negative_values(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    # Tokens like "-4..4" or "-1,0,2" are values, not option flags.
    parser._negative_number_matcher = re.compile(r"^-\d")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _allow_negative_values(argparse.ArgumentParser(
        prog="monotri",
        description="Exact evaluation and signed enumeration of monotone triangles "
                    "and their generalizations.",
    ))
    sub = parser.add_subparsers(dest="command", required=True)

    p_alpha = _allow_negative_values(sub.add_parser("alpha", help="evaluate the counting polynomial at an integer row"))
    p_alpha.add_argument("--row", required=True, help="comma-separated integers, e.g. 4,2,1,3")
    p_alpha.add_argument("--method", default="operator", choices=METHODS)
    p_alpha.add_argument("--all-methods", action="store_true",
                         help="print one value per applicable method; exit 1 on disagreement")
    p_alpha.add_argument("--cache-file", help="load/persist memoized values (a checksummed "
                                               "header line, then one record per line)")
    p_alpha.set_defaults(func=cmd_alpha)

    p_enum = _allow_negative_values(sub.add_parser("enumerate", help="stream triangles with a prescribed bottom row"))
    p_enum.add_argument("klass", choices=("mt", "dmt", "gmt", "tn"), metavar="class",
                        help="triangle class: mt, dmt, gmt or tn")
    p_enum.add_argument("--row", required=True)
    group = p_enum.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print only the number of objects")
    group.add_argument("--signed", action="store_true", help="print only the signed total")
    p_enum.add_argument("--max-triangles", type=int, default=1_000_000)
    p_enum.add_argument("--max-rows", type=int, default=10_000_000)
    p_enum.set_defaults(func=cmd_enumerate)

    known = sorted(set(GRID_CHECKS) | set(CONJECTURES) | {"reduction", "ratio-scan", "all"})
    p_verify = _allow_negative_values(sub.add_parser("verify", help="check identities and conjectures"))
    p_verify.add_argument("identity", choices=known, metavar="identity",
                          help="one of: " + ", ".join(known))
    p_verify.add_argument("--n", type=int, default=None, help="row length or family parameter")
    p_verify.add_argument("--n-range", default=None, help="inclusive parameter range a..b")
    p_verify.add_argument("--i", type=int, default=None, help="position index for split identities")
    p_verify.add_argument("--k", type=int, default=None, help="pattern size for ratio-scan")
    p_verify.add_argument("--window", default="-4..4", help="entry window a..b for sampled rows")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--exhaustive", action="store_true",
                          help="use every row in the window instead of sampling")
    p_verify.add_argument("--row", default=None, help="explicit row (reduction check)")
    p_verify.add_argument("--method", default="operator", choices=METHODS)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="accepted for compatibility; points always run in order in one thread")
    p_verify.add_argument("--functions", type=int, default=10,
                          help="random functions per row for operator checks")
    p_verify.add_argument("--zero-triple-rows", action="store_true",
                          help="restrict row-sum test functions to vanish on rows "
                               "with three consecutive equal entries")
    p_verify.add_argument("--format", default="table", choices=("json", "table"))
    p_verify.add_argument("--time-budget-secs", type=float, default=0.0,
                          help="extend auto-sized conjecture grids while under this budget")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
