"""Alternating-sign-matrix quantities and the identity verification suite.

The counting polynomial evaluated at the staircase (1, 2, ..., n) counts
alternating sign matrices of size n; removing one staircase argument gives
the refined counts by the position of the first row's 1, and the even
staircase (2, 4, ..., 2n) counts vertically symmetric ones of size 2n + 1.

Beyond those, this module checks a collection of exact identities and
conjectured identities on grids of integer rows: the cyclic shift identity,
the neighbour-split and two-step-split identities, the shift antisymmetry of
the mixed difference operator, agreement of all evaluation methods, the
row-sum expansion of the summation operator, and the conjecture families
(duplicated staircases, prefix duplications, symmetry of the refined
staircase family, descent insertions, and exact rational ratio formulas).
Conjectures are only ever reported as consistent at the tested scale.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

from .evaluate import EvalCache, alpha, applicable_methods, operator_apply, operator_apply_alt
from .report import VerificationReport
from .rows import gmt_admissible_rows, row_sign_changes
from .triangles import Triangle

Row = tuple[int, ...]
Evaluator = Callable[[Row], int]


def make_evaluator(method: str = "operator", cache: EvalCache | None = None) -> Evaluator:
    """Bind a method and a shared cache into a row -> value function."""
    if cache is None and method in ("operator", "operator_alt", "third"):
        cache = EvalCache()
    return lambda row: alpha(row, method, cache)


def staircase(n: int) -> Row:
    return tuple(range(1, n + 1))


# --- ASM quantities ----------------------------------------------------------


def asm_number(n: int, method: str = "operator", cache: EvalCache | None = None) -> int:
    """Number of alternating sign matrices of size n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return alpha(staircase(n), method, cache)


def refined_asm(n: int, i: int, method: str = "operator", cache: EvalCache | None = None) -> int:
    """ASMs of size n whose first row has its 1 in column i."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 1 <= i <= n:
        raise ValueError(f"column index {i} outside 1..{n}")
    row = tuple(j for j in range(1, n + 1) if j != i)
    return alpha(row, method, cache)


def vsasm_number(n: int, method: str = "operator", cache: EvalCache | None = None) -> int:
    """Vertically symmetric ASMs of size 2n + 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return alpha(tuple(range(2, 2 * n + 1, 2)), method, cache)


def w_refinement(n: int, i: int, method: str = "operator", cache: EvalCache | None = None) -> int:
    """Refinement family W(n, i): first staircase argument replaced by i in
    the doubled odd staircase; conjecturally symmetric under i -> 3n + 3 - i."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= i <= 3 * n + 2:
        raise ValueError(f"index {i} outside 1..{3 * n + 2}")
    row = (i,) + tuple(range(2, n + 2)) + tuple(range(1, n + 1))
    return alpha(row, method, cache)


# --- single-point identity checks -------------------------------------------


def _point_report(name: str, params: dict, lhs: int, rhs: int, kind: str = "proven",
                  metadata: dict | None = None) -> VerificationReport:
    ok = lhs == rhs
    status = ("pass" if ok else "fail") if kind == "proven" else ("consistent" if ok else "inconsistent")
    return VerificationReport(
        name=name,
        grid=f"single point {params}",
        checked=1,
        failures=0 if ok else 1,
        status=status,
        counterexample=None if ok else {"params": params, "lhs": str(lhs), "rhs": str(rhs)},
        metadata=metadata or {},
    )


def check_cyclic(k, method: str = "operator", cache: EvalCache | None = None) -> VerificationReport:
    """Cyclic shift identity: the value at (k_1..k_n) equals (-1)**(n-1)
    times the value at (k_2..k_n, k_1 - n)."""
    k = tuple(k)
    ev = make_evaluator(method, cache)
    n = len(k)
    lhs = ev(k)
    shifted = k[1:] + (k[0] - n,)
    rhs = ev(shifted) if (n - 1) % 2 == 0 else -ev(shifted)
    return _point_report("cyclic", {"row": list(k)}, lhs, rhs)


def check_neighbor_split(k, i: int, method: str = "operator",
                         cache: EvalCache | None = None) -> VerificationReport:
    """Split of an adjacent pair (x, x+1) at positions (i, i+1) into the two
    doubled values: value(.., x, x+1, ..) = value(.., x, x, ..) + value(.., x+1, x+1, ..).

    Position i + 1 of ``k`` is overwritten to x + 1 where x = k_i, so any
    base row works.
    """
    k = tuple(k)
    if not 1 <= i <= len(k) - 1:
        raise ValueError(f"index {i} outside 1..{len(k) - 1}")
    ev = make_evaluator(method, cache)
    x = k[i - 1]

    def with_pair(a: int, b: int) -> Row:
        return k[: i - 1] + (a, b) + k[i + 1:]

    lhs = ev(with_pair(x, x + 1))
    rhs = ev(with_pair(x, x)) + ev(with_pair(x + 1, x + 1))
    return _point_report("neighbor-split", {"row": list(k), "i": i}, lhs, rhs)


def check_two_step_split(k, i: int, method: str = "operator",
                         cache: EvalCache | None = None) -> VerificationReport:
    """Five-term split of an adjacent pair (x, x+2) at positions (i, i+1)."""
    k = tuple(k)
    if not 1 <= i <= len(k) - 1:
        raise ValueError(f"index {i} outside 1..{len(k) - 1}")
    ev = make_evaluator(method, cache)
    x = k[i - 1]

    def t(a: int, b: int) -> int:
        return ev(k[: i - 1] + (a, b) + k[i + 1:])

    lhs = t(x, x + 2)
    rhs = t(x, x) + t(x + 1, x + 1) + t(x + 2, x + 2) + t(x + 2, x + 1) + t(x + 1, x)
    return _point_report("two-step-split", {"row": list(k), "i": i}, lhs, rhs)


def check_shift_antisymmetry(k, i: int, method: str = "operator",
                             cache: EvalCache | None = None) -> VerificationReport:
    """Antisymmetry of the mixed difference V f(x,y) = f(x-1,y) + f(x,y+1)
    - f(x-1,y+1) applied at positions (i, i+1): V at (k_i, k_{i+1}) is the
    negative of V at (k_{i+1}+1, k_i-1).

    When k_{i+1} = k_i - 1 or k_i - 2 the identity specializes to the
    neighbour-split and two-step-split identities; those derived instances
    are re-checked and recorded in the metadata.
    """
    k = tuple(k)
    if not 1 <= i <= len(k) - 1:
        raise ValueError(f"index {i} outside 1..{len(k) - 1}")
    ev = make_evaluator(method, cache)

    def v_at(x: int, y: int) -> int:
        def f(a: int, b: int) -> int:
            return ev(k[: i - 1] + (a, b) + k[i + 1:])

        return f(x - 1, y) + f(x, y + 1) - f(x - 1, y + 1)

    x, y = k[i - 1], k[i]
    lhs = v_at(x, y)
    rhs = -v_at(y + 1, x - 1)
    metadata: dict = {}
    if y == x - 1:
        derived = check_neighbor_split(k[: i - 1] + (x - 1, x) + k[i + 1:], i, method, cache)
        metadata["neighbor_split_instance"] = derived.passed
    elif y == x - 2:
        derived = check_two_step_split(k[: i - 1] + (x - 2, x) + k[i + 1:], i, method, cache)
        metadata["two_step_split_instance"] = derived.passed
    return _point_report("shift-antisym", {"row": list(k), "i": i}, lhs, rhs, metadata=metadata)


def check_method_agreement(k, methods: Sequence[str] | None = None,
                           caches: dict[str, EvalCache] | None = None) -> VerificationReport:
    """All evaluation methods agree on the row.  Each recursive method uses
    its own cache so the routes stay independent."""
    k = tuple(k)
    methods = tuple(methods) if methods else applicable_methods(k)
    caches = caches or {}
    values = {m: alpha(k, m, caches.get(m)) for m in methods}
    distinct = set(values.values())
    ok = len(distinct) == 1
    return VerificationReport(
        name="theorem1",
        grid=f"single point {list(k)}",
        checked=1,
        failures=0 if ok else 1,
        status="pass" if ok else "fail",
        counterexample=None if ok else {"row": list(k), "values": {m: str(v) for m, v in values.items()}},
        metadata={"methods": list(methods)},
    )


# --- the row-sum expansion of the summation operator -------------------------


def _has_equal_triple(row: Row) -> bool:
    return any(row[j] == row[j + 1] == row[j + 2] for j in range(len(row) - 2))


def hashed_row_function(seed: int, span: int = 20) -> Evaluator:
    """Deterministic pseudo-random integer function on rows, values in
    [-span, span].  Stable across runs and processes."""

    def fn(row: Row) -> int:
        digest = hashlib.blake2b(repr((seed, row)).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % (2 * span + 1) - span

    return fn


def monomial_row_function(exponents: Sequence[int], coefficient: int = 1) -> Evaluator:
    """Low-degree monomial in the row entries."""

    def fn(row: Row) -> int:
        value = coefficient
        for v, e in zip(row, exponents):
            value *= v ** e
        return value

    return fn


def row_sum_identity(k, fn: Evaluator, zero_on_triple_rows: bool = False) -> tuple[int, int]:
    """Both sides of the operator row-sum expansion for one function.

    Left side: the summation operator applied to ``fn``.  Right side: the sum
    of (-1)**sc(k;l) fn(l) over the admissible predecessor rows of ``k``.

    The two sides agree for every ``fn`` that vanishes on rows containing
    three consecutive equal entries (the counting polynomial is such a
    function, which is what the main counting theorem uses).  For rows of
    length >= 4 and unrestricted ``fn`` the operator expansion can touch
    triple-entry rows that no triangle realizes, and the sides may then
    differ; set ``zero_on_triple_rows`` to force the vanishing condition.
    """
    k = tuple(k)
    masked = (lambda row: 0 if _has_equal_triple(row) else fn(row)) if zero_on_triple_rows else fn
    lhs = operator_apply(k, masked)
    rhs = 0
    for row in gmt_admissible_rows(k):
        term = masked(row)
        rhs += -term if row_sign_changes(k, row) & 1 else term
    return lhs, rhs


def operator_recursion_agreement(k, fn: Evaluator) -> tuple[int, int]:
    """Primary versus alternative operator recursion on one (bounds, function) pair."""
    k = tuple(k)
    return operator_apply(k, fn), operator_apply_alt(k, fn)


# --- grid runners -------------------------------------------------------------


def grid_rows(n: int, window: tuple[int, int], samples: int, seed: int,
              exhaustive: bool) -> list[Row]:
    """Rows of length ``n`` over ``window``: every row when ``exhaustive``,
    else ``samples`` rows drawn by a generator seeded with ``seed``."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    if not exhaustive and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if exhaustive:
        return [row for row in product(range(lo, hi + 1), repeat=n)]
    rng = random.Random(seed)
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(samples)]


GRID_CHECKS = ("theorem1", "lemma1", "operator-alt", "cyclic", "neighbor-split",
               "two-step-split", "shift-antisym")


def run_identity_grid(name: str, n: int, window: tuple[int, int] = (-4, 4),
                      samples: int = 100, seed: int = 0, exhaustive: bool = False,
                      i_values: Sequence[int] | None = None, method: str = "operator",
                      functions: int = 10, zero_on_triple_rows: bool = False) -> VerificationReport:
    """Run one grid identity over rows drawn from ``window``.

    Rows are exhaustive over the window or sampled with the seeded generator,
    and the points are checked in order in the calling thread.
    """
    if name not in GRID_CHECKS:
        raise ValueError(f"unknown grid check {name!r}")
    if name in ("lemma1", "operator-alt") and functions < 1:
        raise ValueError(f"functions must be at least 1, got {functions}")
    started = time.perf_counter()
    rows = grid_rows(n, window, samples, seed, exhaustive)
    grid = (f"n={n}, window={window[0]}..{window[1]}, "
            + ("exhaustive" if exhaustive else f"samples={samples}, seed={seed}"))

    caches: dict[str, EvalCache] = {}
    shared = EvalCache()

    def point_check(point) -> tuple[dict, bool, dict | None]:
        if name == "theorem1":
            row = point
            rep = check_method_agreement(row, caches=caches_for(row))
            return {"row": list(row)}, rep.passed, rep.counterexample
        if name == "lemma1":
            row, idx = point
            fn = _mixed_function(seed, idx, n)
            lhs, rhs = row_sum_identity(row, fn, zero_on_triple_rows)
            params = {"row": list(row), "function": idx}
            return params, lhs == rhs, None if lhs == rhs else {
                "params": params, "lhs": str(lhs), "rhs": str(rhs)}
        if name == "operator-alt":
            row, idx = point
            fn = _mixed_function(seed, idx, n)
            lhs, rhs = operator_recursion_agreement(row, fn)
            params = {"row": list(row), "function": idx}
            return params, lhs == rhs, None if lhs == rhs else {
                "params": params, "lhs": str(lhs), "rhs": str(rhs)}
        if name == "cyclic":
            rep = check_cyclic(point, method, shared)
            return {"row": list(point)}, rep.passed, rep.counterexample
        row, i = point
        checker = {"neighbor-split": check_neighbor_split,
                   "two-step-split": check_two_step_split,
                   "shift-antisym": check_shift_antisymmetry}[name]
        rep = checker(row, i, method, shared)
        return {"row": list(row), "i": i}, rep.passed, rep.counterexample

    def caches_for(row: Row) -> dict[str, EvalCache]:
        # one private cache per method, shared across the grid
        for m in applicable_methods(row):
            caches.setdefault(m, EvalCache())
        return caches

    if name in ("lemma1", "operator-alt"):
        points = [(row, idx) for row in rows for idx in range(functions)]
    elif name in ("neighbor-split", "two-step-split", "shift-antisym"):
        ivals = tuple(i_values) if i_values else tuple(range(1, n))
        points = [(row, i) for row in rows for i in ivals]
    else:
        points = rows

    results = [point_check(p) for p in points]
    failures = [ce for _, ok, ce in results if not ok]
    metadata = {"results": [{"params": params, "ok": ok} for params, ok, _ in results]}
    if name == "lemma1":
        metadata["zero_on_triple_rows"] = zero_on_triple_rows
    return VerificationReport(
        name=name,
        grid=grid,
        checked=len(results),
        failures=len(failures),
        status="pass" if not failures else "fail",
        counterexample=failures[0] if failures else None,
        metadata=metadata,
        timing_secs=time.perf_counter() - started,
    )


def _mixed_function(seed: int, idx: int, n: int) -> Evaluator:
    """Alternate hashed noise functions with random low-degree monomials."""
    if idx % 2 == 0:
        return hashed_row_function(seed * 1009 + idx)
    rng = random.Random(seed * 7919 + idx)
    exponents = [rng.randint(0, 2) for _ in range(max(n - 1, 1))]
    return monomial_row_function(exponents, rng.choice([-3, -2, -1, 1, 2, 3]))


# --- conjecture families ------------------------------------------------------


def _descending_doubled(n: int, step: int = 1) -> Row:
    out: list[int] = []
    for j in range(n, 0, -1):
        out.extend((step * j, step * j))
    return tuple(out)


def _rev_dup_row(n: int, i: int, k: int) -> Row:
    middle: list[int] = []
    for j in range(i + k - 1, i - 1, -1):
        middle.extend((j, j))
    return tuple(range(1, i)) + tuple(middle) + tuple(range(i + k, n + 1))


def _ratio_row(k: int, n: int) -> Row:
    return tuple(range(1, k - 2)) + (k - 1, k, k - 1, k) + tuple(range(k + 1, n + 1))


def _hole_row(n: int, i: int) -> Row:
    return tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 1, n + 1))


def _hole_one_desc(p: dict, ev: Evaluator) -> tuple[int, int]:
    """The descent insertion at i against the staircases without j, weighed by j - i."""
    n, i = p["n"], p["i"]
    return (
        ev(_hole_row(n, i)),
        -sum((j - i) * ev(tuple(x for x in range(1, n + 1) if x != j)) for j in range(1, n + 1)),
    )


@dataclass(frozen=True)
class Family:
    kind: str           # "proven" or "conjecture"
    first_n: int
    description: str
    points: Callable[[int], list[dict]]
    check: Callable[[dict, Evaluator], tuple[int, int]]
    metadata: dict = field(default_factory=dict)


def _simple_points(n: int) -> list[dict]:
    return [{"n": n}]


CONJECTURES: dict[str, Family] = {
    "comb-rec": Family(
        "proven", 1,
        "staircase count equals the doubled descending staircase of twice the size",
        _simple_points,
        lambda p, ev: (ev(staircase(p["n"])), ev(_descending_doubled(p["n"]))),
    ),
    "vsasm-reverse": Family(
        "conjecture", 1,
        "full descending staircase of odd size equals the signed even staircase",
        _simple_points,
        lambda p, ev: (ev(tuple(range(2 * p["n"] + 1, 0, -1))),
                       (-1) ** p["n"] * ev(tuple(range(2, 2 * p["n"] + 1, 2)))),
    ),
    "vsasm-dup": Family(
        "conjecture", 1,
        "even staircase equals the doubled descending even staircase",
        _simple_points,
        lambda p, ev: (ev(tuple(range(2, 2 * p["n"] + 1, 2))),
                       ev(_descending_doubled(p["n"], step=2))),
    ),
    "prefix-dup": Family(
        "conjecture", 1,
        "prepending the staircase prefix 1..i preserves the staircase count",
        lambda n: [{"n": n, "i": i} for i in range(0, n + 1)],
        lambda p, ev: (ev(staircase(p["n"])),
                       ev(tuple(range(1, p["i"] + 1)) + staircase(p["n"]))),
    ),
    "odd-prefix": Family(
        "conjecture", 1,
        "prepending the full prefix 1..n+1 gives the signed staircase count",
        _simple_points,
        lambda p, ev: (ev(staircase(p["n"])),
                       (-1) ** p["n"] * ev(tuple(range(1, p["n"] + 2)) + staircase(p["n"]))),
    ),
    "w-symmetry": Family(
        "conjecture", 1,
        "refinement family is symmetric under i -> 3n+3-i",
        lambda n: [{"n": n, "i": i} for i in range(1, (3 * n + 2) // 2 + 1)],
        lambda p, ev: (
            ev((p["i"],) + tuple(range(2, p["n"] + 2)) + staircase(p["n"])),
            ev((3 * p["n"] + 3 - p["i"],) + tuple(range(2, p["n"] + 2)) + staircase(p["n"])),
        ),
    ),
    "one-desc": Family(
        "conjecture", 2,
        "inserting one descent step into the staircase preserves the count",
        lambda n: [{"n": n, "i": i} for i in range(1, n)],
        lambda p, ev: (ev(staircase(p["n"])),
                       ev(tuple(range(1, p["i"] + 2)) + (p["i"],) + tuple(range(p["i"] + 1, p["n"] + 1)))),
    ),
    "rev-dup": Family(
        "conjecture", 1,
        "reversing and duplicating any staircase subsequence preserves the count",
        lambda n: [{"n": n, "k": k, "i": i} for k in range(1, n + 1) for i in range(1, n - k + 2)],
        lambda p, ev: (ev(staircase(p["n"])), ev(_rev_dup_row(p["n"], p["i"], p["k"]))),
    ),
    "hole-one-desc": Family(
        "conjecture", 2,
        "descent insertion with one staircase argument removed matches the refined counts",
        lambda n: [{"n": n, "i": i} for i in range(1, n)],
        _hole_one_desc,
    ),
    "hole-one-desc-i1": Family(
        "proven", 2,
        "the i = 1 case of the descent insertion with a removed argument",
        lambda n: [{"n": n, "i": 1}],
        _hole_one_desc,
    ),
    "ratio-k4": Family(
        "conjecture", 4,
        "doubled-pair insertion at 3,4: twice the value equals (n+4) times the smaller staircase count",
        _simple_points,
        lambda p, ev: (2 * ev(_ratio_row(4, p["n"])),
                       (p["n"] + 4) * ev(staircase(p["n"] - 1))),
    ),
    "ratio-k5": Family(
        "conjecture", 5,
        "doubled-pair insertion at 4,5 with cubic over linear rational factor",
        _simple_points,
        lambda p, ev: ((8 * p["n"] - 12) * ev(_ratio_row(5, p["n"])),
                       (p["n"] ** 3 + 7 * p["n"] ** 2 + 10 * p["n"] - 36) * ev(staircase(p["n"] - 1))),
    ),
    "ratio-k6": Family(
        "conjecture", 6,
        "doubled-pair insertion at 5,6 with quartic over linear rational factor",
        _simple_points,
        lambda p, ev: ((48 * p["n"] - 72) * ev(_ratio_row(6, p["n"])),
                       (p["n"] ** 4 + 12 * p["n"] ** 3 + 53 * p["n"] ** 2 + 54 * p["n"] - 288)
                       * ev(staircase(p["n"] - 1))),
        metadata={"note": "quartic numerator read with a single plus in the n**2 term"},
    ),
}


@dataclass(frozen=True)
class ConjectureSpec:
    """Selection and budgets for a conjecture-suite run.

    ``n_values`` fixes the grid explicitly (fully deterministic report).
    Without it, each family runs at its two smallest parameter values, and a
    positive ``time_budget_secs`` lets the grid extend to larger n while the
    family's elapsed time stays under the budget.  Points are checked in order
    in the calling thread.
    """

    names: tuple[str, ...] | None = None
    n_values: tuple[int, ...] | None = None
    method: str = "operator"
    time_budget_secs: float = 0.0


def run_conjecture_suite(spec: ConjectureSpec | None = None) -> list[VerificationReport]:
    """Check the selected conjecture families; returns one report per family."""
    spec = spec or ConjectureSpec()
    names = spec.names or tuple(CONJECTURES)
    reports = []
    for name in names:
        if name not in CONJECTURES:
            raise ValueError(f"unknown conjecture id {name!r}")
        family = CONJECTURES[name]
        cache = EvalCache()
        ev = make_evaluator(spec.method, cache)
        started = time.perf_counter()
        if spec.n_values is not None:
            ns = [n for n in spec.n_values if n >= family.first_n]
        else:
            ns = [family.first_n, family.first_n + 1]

        results = []
        failures = []

        def run_n(n: int):
            for params in family.points(n):
                lhs, rhs = family.check(params, ev)
                ok = lhs == rhs
                results.append({"params": params, "ok": ok})
                if not ok:
                    failures.append({"params": params, "lhs": str(lhs), "rhs": str(rhs)})

        for n in ns:
            run_n(n)
        if spec.n_values is None and spec.time_budget_secs > 0:
            n = ns[-1] + 1 if ns else family.first_n
            while time.perf_counter() - started < spec.time_budget_secs:
                run_n(n)
                ns.append(n)
                n += 1

        if family.kind == "proven":
            status = "pass" if not failures else "fail"
        else:
            status = "consistent" if not failures else "inconsistent"
        reports.append(VerificationReport(
            name=name,
            grid=f"n in {ns}",
            checked=len(results),
            failures=len(failures),
            status=status,
            counterexample=failures[0] if failures else None,
            metadata={"kind": family.kind, "description": family.description,
                      "results": results, **family.metadata},
            timing_secs=time.perf_counter() - started,
        ))
    return reports


def emit_ratio_sequence(k: int, ns: Iterable[int], method: str = "operator") -> VerificationReport:
    """Report the exact ratios value / staircase-count for the doubled-pair
    insertion at (k-1, k); no assertion is made, the ratios are for external
    inspection of the conjectured rational formulas."""
    if k < 4:
        raise ValueError("the insertion pattern needs k >= 4")
    started = time.perf_counter()
    cache = EvalCache()
    ev = make_evaluator(method, cache)
    ratios = {}
    for n in ns:
        if n < k:
            continue
        value = ev(_ratio_row(k, n))
        base = ev(staircase(n - 1))
        ratios[str(n)] = str(Fraction(value, base)) if base else f"{value}/0"
    return VerificationReport(
        name=f"ratio-scan-k{k}",
        grid=f"n in {sorted(int(n) for n in ratios)}",
        checked=len(ratios),
        failures=0,
        status="info",
        metadata={"ratios": ratios},
        timing_secs=time.perf_counter() - started,
    )
