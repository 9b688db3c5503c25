"""Command-line front end: exact evaluation, enumeration, verification.

Data goes to stdout, diagnostics (including timings) to stderr.  Streams are
JSON Lines, reports a single JSON document or a text table.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 resource budget exceeded,
141 (128 + SIGPIPE) stdout closed by its reader, with nothing on stderr.
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
from functools import cache, partial
from typing import Callable

from .decorated import enumerate_tn, tn_totals, verify_reduction
from .evaluate import MEMO_ROUTES, METHODS, EvalCache, alpha, applicable_methods
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
    DEFAULT_LIMITS,
    BudgetExceededError,
    EnumerationLimits,
    count_triangles,
    enumerate_dmt,
    enumerate_gmt,
    enumerate_mt,
    triangle_totals,
)
# sc_statistic is unused here; bench/tracing.py looks it up on this module to wrap it.
from .triangles import RowTexts, sc_statistic, tn_to_json, triangle_to_json  # noqa: F401


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


def _reject_unread(name: str, args, default: Callable[[str], object], reads, replaces=None) -> None:
    """Reject options given other than their defaults that ``name`` does not read or that
    another given option replaces; ``replaces`` maps an option to the options it replaces."""
    given = {dest: f"--{dest.replace('_', '-')}" for dest, value in vars(args).items()
             if dest not in {"command", "identity", "func"} and value != default(dest)}
    ignored = [flag for dest, flag in given.items() if dest not in reads]
    if ignored:
        raise ValueError(f"{name} does not read {', '.join(ignored)}")
    for dest, dests in (replaces or {}).items():
        ignored = [flag for other, flag in given.items() if other in dests]
        if ignored and dest in given:
            raise ValueError(f"{name} does not read {', '.join(ignored)} with {given[dest]}")


def cmd_alpha(default: Callable[[str], object], args) -> int:
    row = parse_row(args.row)
    if args.all_methods:
        _reject_unread("--all-methods", args, default, reads={"row", "all_methods"})
        values = [alpha(row, method) for method in applicable_methods(row)]
        print(*values, sep="\n")
        return 0 if len(set(values)) == 1 else 1
    if args.method not in MEMO_ROUTES:
        _reject_unread(f"--method {args.method}", args, default, reads={"row", "method"})
        print(alpha(row, args.method))
        return 0
    cache = EvalCache(route=args.method)
    path = args.cache_file
    if path is not None:
        # An unusable path is a usage error before any work, not a traceback after it.
        if not path:
            raise ValueError("cache file '': empty path")
        if os.path.isdir(path):
            raise ValueError(f"cache file {path}: is a directory")
        if not os.path.basename(path):
            raise ValueError(f"cache file {path}: ends in a path separator")
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise ValueError(f"cache file {path}: {folder} is not a directory")
    existed = bool(path) and os.path.exists(path)
    if existed:
        _cache_file_io(cache.load, path)
    loaded = len(cache)
    value = alpha(row, args.method, cache)
    if path and (not existed or len(cache) > loaded):
        _cache_file_io(cache.save, path)
    print(value)
    return 0


def _cache_file_io(action: Callable[[str], object], path: str) -> None:
    """Run ``cache.load`` or ``cache.save`` on ``path``, reporting an
    ``OSError`` as a usage error."""
    try:
        action(path)
    except OSError as exc:
        raise ValueError(f"cache file {path}: {exc.strerror or exc}") from None


def cmd_enumerate(args) -> int:
    row = parse_row(args.row)
    limits = EnumerationLimits(max_rows_generated=args.max_rows, max_triangles=args.max_triangles)
    if args.count or args.signed:
        if args.klass == "tn":
            totals = tn_totals(row, limits)
            print(totals[1] if args.signed else totals[0])
        elif args.signed:
            print(triangle_totals(args.klass, row, limits)[1])
        else:
            print(count_triangles(args.klass, row, limits))
        return 0
    factory = {"mt": enumerate_mt, "dmt": enumerate_dmt, "gmt": enumerate_gmt, "tn": enumerate_tn}[args.klass]
    to_json = tn_to_json if args.klass == "tn" else triangle_to_json
    # One memo of row texts for this command: each distinct row is encoded once.
    texts = RowTexts()
    sys.stdout.writelines(to_json(obj, texts) + "\n" for obj in factory(row, limits))
    return 0


def _n_values(args) -> tuple[int, ...] | None:
    if args.n_range is None:
        return None if args.n is None else (args.n,)
    lo, hi = parse_window(args.n_range)
    if lo > hi:
        raise ValueError(f"empty --n-range {args.n_range}")
    return tuple(range(lo, hi + 1))


def _emit(reports: list[VerificationReport], fmt: str) -> None:
    if fmt == "json":
        document = {
            "reports": [r.to_dict() for r in reports],
            "passed": all(r.passed for r in reports),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_table(reports))


# The options of ``verify`` that each check reads; every check takes
# --format and --jobs.  Giving another option a value other than its default
# is a usage error, since it would change nothing.
_GRID_OPTIONS = frozenset({"n", "window", "samples", "seed", "exhaustive"})
_VERIFY_READS = {
    "theorem1": _GRID_OPTIONS,
    "cyclic": _GRID_OPTIONS | {"method"},
    "neighbor-split": _GRID_OPTIONS | {"method", "i"},
    "two-step-split": _GRID_OPTIONS | {"method", "i"},
    "shift-antisym": _GRID_OPTIONS | {"method", "i"},
    "lemma1": _GRID_OPTIONS | {"functions", "zero_triple_rows"},
    "operator-alt": _GRID_OPTIONS | {"functions"},
    "reduction": _GRID_OPTIONS | {"row"},
    "ratio-scan": frozenset({"k", "n", "n_range", "method"}),
    "all": (_GRID_OPTIONS - {"n"}) | {"i", "method", "zero_triple_rows", "row", "time_budget_secs"},
    **dict.fromkeys(CONJECTURES, frozenset({"n", "n_range", "method", "time_budget_secs"})),
}
# The options that another option replaces: --n-range replaces --n, a family
# grows only a grid it sizes itself, and reduction --row checks no grid.
_FAMILY_REPLACES = {"n_range": {"n", "time_budget_secs"}, "n": {"time_budget_secs"}}
_VERIFY_REPLACES = {"ratio-scan": {"n_range": {"n"}}, "reduction": {"row": _GRID_OPTIONS},
                    **dict.fromkeys(CONJECTURES, _FAMILY_REPLACES)}


def cmd_verify(default: Callable[[str], object], args) -> int:
    name = args.identity
    _reject_unread(name, args, default, _VERIFY_READS[name] | {"format", "jobs"}, _VERIFY_REPLACES.get(name))
    n = 3 if args.n is None else args.n
    if args.i is not None and not 1 <= args.i <= n - 1:
        raise ValueError(f"--i {args.i} outside the positions 1..{n - 1} of {name}")
    window = parse_window(args.window)
    row = parse_row(args.row) if args.row is not None else None
    spec = None  # built before any check runs, so that a bad budget stops the run first
    if name == "all" or name in CONJECTURES:
        spec = ConjectureSpec(names=None if name == "all" else (name,), n_values=_n_values(args),
                              method=args.method, time_budget_secs=args.time_budget_secs)
    reports: list[VerificationReport] = []
    started = time.perf_counter()

    def grid(name: str, **overrides) -> VerificationReport:
        params = dict(
            n=n,
            window=window,
            samples=args.samples,
            seed=args.seed,
            exhaustive=args.exhaustive,
            i_values=(args.i,) if args.i is not None else None,
            method=args.method,
            functions=args.functions,
            zero_on_triple_rows=args.zero_triple_rows,
        )
        params.update(overrides)
        return run_identity_grid(name, **params)

    if name == "all":
        reports.append(grid("theorem1", n=3, window=(-2, 2), exhaustive=True))
        reports.append(grid("cyclic", n=3))
        reports.append(grid("neighbor-split", n=3, samples=40))
        reports.append(grid("two-step-split", n=3, samples=40))
        reports.append(grid("shift-antisym", n=3, samples=40))
        reports.append(grid("lemma1", n=3, samples=25, functions=4))
        reports.append(grid("operator-alt", n=3, samples=25, functions=4))
        reports.append(verify_reduction(row if row is not None else (4, 2, 1, 3)))
    elif name in GRID_CHECKS:
        reports.append(grid(name))
    elif name == "reduction":
        rows = [row] if row is not None else grid_rows(n, window, args.samples, args.seed, args.exhaustive)
        reports.extend(map(verify_reduction, rows))
    elif name == "ratio-scan":
        if args.k is None:
            raise ValueError("ratio-scan needs --k")
        ns = _n_values(args) or (args.k, args.k + 1)
        reports.append(emit_ratio_sequence(args.k, ns, args.method))
    if spec is not None:  # all, or a conjecture family
        reports.extend(run_conjecture_suite(spec))

    _emit(reports, args.format)
    print(f"checked {len(reports)} report(s) in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _allow_negative_values(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    # Tokens like "-4..4" or "-1,0,2" are values, not option flags.
    parser._negative_number_matcher = re.compile(r"^-\d")
    return parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser that every :func:`main` call in this process shares.

    It is built on the first call, not at import, and later calls return the
    same object, so callers must not change it.  The ``cmd_*`` functions look
    up what they call on this module when they run, so names patched here
    after the parser is built still take effect."""
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
    p_alpha.set_defaults(func=partial(cmd_alpha, p_alpha.get_default))

    p_enum = _allow_negative_values(sub.add_parser("enumerate", help="stream triangles with a prescribed bottom row"))
    p_enum.add_argument("klass", choices=("mt", "dmt", "gmt", "tn"), metavar="class",
                        help="triangle class: mt, dmt, gmt or tn")
    p_enum.add_argument("--row", required=True)
    group = p_enum.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print only the number of objects")
    group.add_argument("--signed", action="store_true", help="print only the signed total")
    p_enum.add_argument("--max-triangles", type=int, default=DEFAULT_LIMITS.max_triangles)
    p_enum.add_argument("--max-rows", type=int, default=DEFAULT_LIMITS.max_rows_generated)
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
    p_verify.set_defaults(func=partial(cmd_verify, p_verify.get_default))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone: quiet the flush at exit and end as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
