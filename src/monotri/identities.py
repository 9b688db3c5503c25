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
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterable, Sequence

from .evaluate import MEMO_ROUTES, EvalCache, alpha, applicable_methods, operator_apply, operator_apply_alt
from .report import VerificationReport, build_report
from .rows import gmt_admissible_rows, row_sign_changes
from .triangles import has_equal_triple

Row = tuple[int, ...]
Evaluator = Callable[[Row], int]


def make_evaluator(method: str = "operator", cache: EvalCache | None = None) -> Evaluator:
    """Bind a method and a shared cache into a row -> value function; a
    memoized method without ``cache`` gets a new one, gmt and mt none."""
    if cache is None and method in MEMO_ROUTES:
        cache = EvalCache(method)
    return lambda row: alpha(row, method, cache)


def staircase(n: int) -> Row:
    return tuple(range(1, n + 1))


def _refined_row(n: int, i: int) -> Row:
    """The staircase 1..n without the argument i."""
    return tuple(j for j in range(1, n + 1) if j != i)


def _even_staircase(n: int) -> Row:
    return tuple(range(2, 2 * n + 1, 2))


def _w_row(n: int, i: int) -> Row:
    """The doubled odd staircase with its first argument replaced by i."""
    return (i,) + tuple(range(2, n + 2)) + staircase(n)


# --- ASM quantities ----------------------------------------------------------


def asm_number(n: int) -> int:
    """Number of alternating sign matrices of size n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return alpha(staircase(n))


def refined_asm(n: int, i: int) -> int:
    """ASMs of size n whose first row has its 1 in column i."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 1 <= i <= n:
        raise ValueError(f"column index {i} outside 1..{n}")
    return alpha(_refined_row(n, i))


def vsasm_number(n: int) -> int:
    """Vertically symmetric ASMs of size 2n + 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return alpha(_even_staircase(n))


def w_refinement(n: int, i: int) -> int:
    """Refinement family W(n, i): first staircase argument replaced by i in
    the doubled odd staircase; conjecturally symmetric under i -> 3n + 3 - i."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= i <= 3 * n + 2:
        raise ValueError(f"index {i} outside 1..{3 * n + 2}")
    return alpha(_w_row(n, i))


# --- the identities -----------------------------------------------------------
# Each takes a point (its parameters, as reported) and an evaluator, and returns
# its two sides (lhs, rhs), left side evaluated first.  The evaluator maps a row
# to its value, or to its value by method (theorem1), or a function index to a
# test function (lemma1, operator-alt).


def _lhs_rhs(params: dict, lhs, rhs) -> dict:
    return {"params": params, "lhs": str(lhs), "rhs": str(rhs)}


def _outcomes(identity, points: Iterable[dict], ev,
              counterexample=_lhs_rhs) -> tuple[list[dict], list[dict]]:
    """Results and failures, in point order, of ``identity`` at each point."""
    results, failures = [], []
    for params in points:
        lhs, rhs = identity(params, ev)
        results.append({"params": params, "ok": lhs == rhs})
        if lhs != rhs:
            failures.append(counterexample(params, lhs, rhs))
    return results, failures


def _cyclic(p: dict, ev: Evaluator) -> tuple[int, int]:
    k = tuple(p["row"])
    n = len(k)
    lhs, shifted = ev(k), ev(k[1:] + (k[0] - n,))
    return lhs, shifted if (n - 1) % 2 == 0 else -shifted


def _pair(p: dict, ev: Evaluator) -> tuple[int, int, Callable[[int, int], int]]:
    """(k_i, k_{i+1}, f) at a point with row k and position i, where f(a, b)
    is the value at k with positions i, i + 1 set to a, b."""
    k, i = tuple(p["row"]), p["i"]
    if not 1 <= i <= len(k) - 1:
        raise ValueError(f"index {i} outside 1..{len(k) - 1}")
    return k[i - 1], k[i], lambda a, b: ev(k[: i - 1] + (a, b) + k[i + 1:])


def _neighbor_split(p: dict, ev: Evaluator) -> tuple[int, int]:
    x, _, f = _pair(p, ev)
    return f(x, x + 1), f(x, x) + f(x + 1, x + 1)


def _two_step_split(p: dict, ev: Evaluator) -> tuple[int, int]:
    x, _, f = _pair(p, ev)
    return f(x, x + 2), f(x, x) + f(x + 1, x + 1) + f(x + 2, x + 2) + f(x + 2, x + 1) + f(x + 1, x)


def _shift_antisym(p: dict, ev: Evaluator) -> tuple[int, int]:
    x, y, f = _pair(p, ev)

    def v_at(a: int, b: int) -> int:
        return f(a - 1, b) + f(a, b + 1) - f(a - 1, b + 1)

    return v_at(x, y), -v_at(y + 1, x - 1)


def _agreement(p: dict, ev: Callable[[Row], dict[str, int]]) -> tuple[dict, dict]:
    values = ev(tuple(p["row"]))
    return values, dict.fromkeys(values, next(iter(values.values())))


def _method_values(params: dict, values: dict, _) -> dict:
    return {"row": params["row"], "values": {m: str(v) for m, v in values.items()}}


def _by_method(caches: dict[str, EvalCache]):
    """Row -> value by method, over every method that applies to the row,
    each method with its cache from ``caches`` if there is one."""
    return lambda row: {m: alpha(row, m, caches.get(m)) for m in applicable_methods(row)}


def _row_sum(p: dict, fn_at: Callable[[int], Evaluator], zero_on_triple_rows: bool = False) -> tuple[int, int]:
    return row_sum_identity(p["row"], fn_at(p["function"]), zero_on_triple_rows)


def _recursion_agreement(p: dict, fn_at: Callable[[int], Evaluator]) -> tuple[int, int]:
    """Primary versus alternative operator recursion on one (bounds, function) pair."""
    k, fn = tuple(p["row"]), fn_at(p["function"])
    return operator_apply(k, fn), operator_apply_alt(k, fn)


# --- single-point identity checks -------------------------------------------


def _point_report(name: str, identity, params: dict, method: str, cache: EvalCache | None) -> VerificationReport:
    _, failures = _outcomes(identity, [params], make_evaluator(method, cache))
    return build_report(name, f"single point {params}", "proven", 1, failures, {})


def check_cyclic(k, method: str = "operator", cache: EvalCache | None = None) -> VerificationReport:
    """Cyclic shift identity: the value at (k_1..k_n) equals (-1)**(n-1)
    times the value at (k_2..k_n, k_1 - n)."""
    return _point_report("cyclic", _cyclic, {"row": list(k)}, method, cache)


def check_neighbor_split(k, i: int, method: str = "operator",
                         cache: EvalCache | None = None) -> VerificationReport:
    """Split of an adjacent pair (x, x+1) at positions (i, i+1) into the two
    doubled values: value(.., x, x+1, ..) = value(.., x, x, ..) + value(.., x+1, x+1, ..).

    Position i + 1 of ``k`` is overwritten to x + 1 where x = k_i, so any
    base row works.
    """
    return _point_report("neighbor-split", _neighbor_split, {"row": list(k), "i": i}, method, cache)


def check_two_step_split(k, i: int, method: str = "operator",
                         cache: EvalCache | None = None) -> VerificationReport:
    """Five-term split of an adjacent pair (x, x+2) at positions (i, i+1)."""
    return _point_report("two-step-split", _two_step_split, {"row": list(k), "i": i}, method, cache)


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
    report = _point_report("shift-antisym", _shift_antisym, {"row": list(k), "i": i}, method, cache)
    x, y = k[i - 1], k[i]
    derived = {x - 1: ("neighbor_split_instance", check_neighbor_split),
               x - 2: ("two_step_split_instance", check_two_step_split)}.get(y)
    if derived:
        # the instance at k with positions i, i + 1 swapped
        key, check = derived
        report.metadata[key] = check(k[: i - 1] + (y, x) + k[i + 1:], i, method, cache).passed
    return report


def check_method_agreement(k) -> VerificationReport:
    """All evaluation methods that apply to the row agree on it.  Each
    recursive method uses its own cache so the routes stay independent."""
    k = tuple(k)
    _, failures = _outcomes(_agreement, [{"row": list(k)}], _by_method({}), _method_values)
    return build_report("theorem1", f"single point {list(k)}", "proven", 1, failures,
                        {"methods": list(applicable_methods(k))})


# --- the row-sum expansion of the summation operator -------------------------


def hashed_row_function(seed: int) -> Evaluator:
    """Deterministic pseudo-random integer function on rows, values in
    [-20, 20].  Stable across runs and processes."""

    def fn(row: Row) -> int:
        digest = hashlib.blake2b(repr((seed, row)).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % 41 - 20

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
    masked = (lambda row: 0 if has_equal_triple(row) else fn(row)) if zero_on_triple_rows else fn
    lhs = operator_apply(k, masked)
    rhs = 0
    for row in gmt_admissible_rows(k):
        term = masked(row)
        rhs += -term if row_sign_changes(k, row) & 1 else term
    return lhs, rhs


# --- grid runners -------------------------------------------------------------


def grid_rows(n: int, window: tuple[int, int], samples: int, seed: int,
              exhaustive: bool) -> list[Row]:
    """Rows of length ``n`` over ``window``: every row when ``exhaustive``,
    else ``samples`` rows drawn by a generator seeded with ``seed``."""
    lo, hi = window
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if lo > hi:
        raise ValueError(f"empty window {window}")
    if not exhaustive and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if exhaustive:
        return [row for row in product(range(lo, hi + 1), repeat=n)]
    rng = random.Random(seed)
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(samples)]


# grid check -> the identity it checks at each point
_GRID_IDENTITIES = {
    "theorem1": _agreement,
    "lemma1": _row_sum,
    "operator-alt": _recursion_agreement,
    "cyclic": _cyclic,
    "neighbor-split": _neighbor_split,
    "two-step-split": _two_step_split,
    "shift-antisym": _shift_antisym,
}
GRID_CHECKS = tuple(_GRID_IDENTITIES)
# operator grid check -> the least n at which its recursion applies
_LEAST_N = {"lemma1": 2, "operator-alt": 3}


def run_identity_grid(name: str, n: int, window: tuple[int, int] = (-4, 4),
                      samples: int = 100, seed: int = 0, exhaustive: bool = False,
                      i_values: Sequence[int] | None = None, method: str = "operator",
                      functions: int = 10, zero_on_triple_rows: bool = False) -> VerificationReport:
    """Run one grid identity over rows drawn from ``window``.

    Rows are exhaustive over the window or sampled with the seeded generator,
    and the points are checked in order in the calling thread.  The operator
    identities check ``functions`` test functions at each row, and need n of
    at least 2 (lemma1) or 3 (operator-alt); the pair identities check each
    position of ``i_values`` (default 1..n-1).
    """
    if name not in GRID_CHECKS:
        raise ValueError(f"unknown grid check {name!r}")
    if name in _LEAST_N:
        if n < _LEAST_N[name]:
            raise ValueError(f"{name} needs n of at least {_LEAST_N[name]}, got {n}")
        if functions < 1:
            raise ValueError(f"functions must be at least 1, got {functions}")
    rows = grid_rows(n, window, samples, seed, exhaustive)
    grid = (f"n={n}, window={window[0]}..{window[1]}, "
            + ("exhaustive" if exhaustive else f"samples={samples}, seed={seed}"))

    identity, counterexample, extras, metadata = _GRID_IDENTITIES[name], _lhs_rhs, [{}], {}
    if name == "theorem1":
        # one private cache per method, shared across the grid
        ev, counterexample = _by_method({m: EvalCache(m) for m in MEMO_ROUTES}), _method_values
    elif name in _LEAST_N:
        ev = partial(_mixed_function, seed, n=n)
        extras = [{"function": idx} for idx in range(functions)]
        if name == "lemma1":
            identity = partial(identity, zero_on_triple_rows=zero_on_triple_rows)
            metadata = {"zero_on_triple_rows": zero_on_triple_rows}
    else:
        ev = make_evaluator(method)
        if name != "cyclic":
            extras = [{"i": i} for i in (i_values or range(1, n))]
    points = [{"row": list(row), **extra} for row in rows for extra in extras]

    results, failures = _outcomes(identity, points, ev, counterexample)
    return build_report(name, grid, "proven", len(results), failures, {"results": results, **metadata})


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
        -sum((j - i) * ev(_refined_row(n, j)) for j in range(1, n + 1)),
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
                       (-1) ** p["n"] * ev(_even_staircase(p["n"]))),
    ),
    "vsasm-dup": Family(
        "conjecture", 1,
        "even staircase equals the doubled descending even staircase",
        _simple_points,
        lambda p, ev: (ev(_even_staircase(p["n"])), ev(_descending_doubled(p["n"], step=2))),
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
        lambda p, ev: (ev(_w_row(p["n"], p["i"])), ev(_w_row(p["n"], 3 * p["n"] + 3 - p["i"]))),
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
    positive ``time_budget_secs`` lets the grids extend to larger n while the
    run, over all its families, stays under the budget; the budget must be a
    finite number of seconds >= 0, and every name a key of ``CONJECTURES``.
    Points are checked in order in the calling thread.
    """

    names: tuple[str, ...] | None = None
    n_values: tuple[int, ...] | None = None
    method: str = "operator"
    time_budget_secs: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.time_budget_secs) and self.time_budget_secs >= 0):
            raise ValueError(f"time budget {self.time_budget_secs} s is not a finite number >= 0")
        for name in self.names or ():
            if name not in CONJECTURES:
                raise ValueError(f"unknown conjecture id {name!r}")


def run_conjecture_suite(spec: ConjectureSpec | None = None) -> list[VerificationReport]:
    """Check the selected conjecture families; returns one report per family."""
    spec = spec or ConjectureSpec()
    names = spec.names or tuple(CONJECTURES)
    reports = []
    deadline = time.perf_counter() + spec.time_budget_secs
    for name in names:
        family = CONJECTURES[name]
        ev = make_evaluator(spec.method)
        if spec.n_values is not None:
            ns = [n for n in spec.n_values if n >= family.first_n]
        else:
            ns = [family.first_n, family.first_n + 1]

        def points():
            for n in ns:  # takes in the values appended while under the budget
                yield from family.points(n)
                if spec.n_values is None and n == ns[-1] \
                        and time.perf_counter() < deadline:
                    ns.append(n + 1)

        results, failures = _outcomes(family.check, points(), ev)
        reports.append(build_report(
            name, f"n in {ns}", family.kind, len(results), failures,
            {"kind": family.kind, "description": family.description, "results": results, **family.metadata}))
    return reports


def emit_ratio_sequence(k: int, ns: Iterable[int], method: str = "operator") -> VerificationReport:
    """Report the exact ratios value / staircase-count for the doubled-pair
    insertion at (k-1, k); no assertion is made, the ratios are for external
    inspection of the conjectured rational formulas."""
    if k < 4:
        raise ValueError("the insertion pattern needs k >= 4")
    ev = make_evaluator(method)
    ratios = {}
    for n in ns:
        if n >= k:  # the staircase value is ASM(n - 1) >= 7, never 0
            ratios[str(n)] = str(Fraction(ev(_ratio_row(k, n)), ev(staircase(n - 1))))
    return build_report(f"ratio-scan-k{k}", f"n in {sorted(int(n) for n in ratios)}", "info",
                        len(ratios), [], {"ratios": ratios})
