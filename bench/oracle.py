"""Reference computations made apart from ``monotri``.

Nothing here imports the package under test.  Every function is written from
a definition or a published closed form, so that the benchmark can check the
program's output without trusting the program:

* product formulas for alternating sign matrices (ASM), vertically symmetric
  ASMs and the refined ASM numbers, which the counting polynomial gives at
  staircase, even-staircase and refined-staircase rows;
* monotone-triangle counts of strictly increasing rows by their interlacing
  rows;
* the counting polynomial at any row of length <= 4 by exact interpolation of
  monotone-triangle counts (it is a polynomial of degree <= n - 1 in each entry
  and invariant under translation);
* brute-force signed and unsigned counts of generalized monotone triangles,
  decreasing monotone triangles and decorated triangles, straight from the
  class definitions;
* validators for single triangles of each class, used on streamed output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod

Row = tuple[int, ...]


# --- closed forms -------------------------------------------------------------


def asm_count(n: int) -> int:
    """ASMs of size n: prod_{k=0}^{n-1} (3k+1)! / (n+k)!."""
    num = prod(factorial(3 * k + 1) for k in range(n))
    den = prod(factorial(n + k) for k in range(n))
    assert num % den == 0
    return num // den


def vsasm_count(n: int) -> int:
    """Vertically symmetric ASMs of size 2n+1:
    prod_{i=0}^{n-1} (3i+2)(6i+3)!(2i+1)! / ((4i+2)!(4i+3)!)."""
    value = Fraction(1)
    for i in range(n):
        value *= Fraction((3 * i + 2) * factorial(6 * i + 3) * factorial(2 * i + 1),
                          factorial(4 * i + 2) * factorial(4 * i + 3))
    assert value.denominator == 1
    return value.numerator


def refined_asm_count(n: int, i: int) -> int:
    """ASMs of size n whose first row has its 1 in column i:
    C(n+i-2, i-1) (2n-i-1)! / (n-i)! * prod_{j=0}^{n-2} (3j+1)! / (n+j)!."""
    value = Fraction(comb(n + i - 2, i - 1) * factorial(2 * n - i - 1), factorial(n - i))
    for j in range(n - 1):
        value *= Fraction(factorial(3 * j + 1), factorial(n + j))
    assert value.denominator == 1
    return value.numerator


# --- monotone triangles of strictly increasing rows ---------------------------


def _interlacing(row: Row):
    """Strictly increasing rows l with row[j] <= l[j] <= row[j+1]."""
    m = len(row) - 1

    def fill(j: int, prefix: Row):
        if j == m:
            yield prefix
            return
        lo = row[j] if j == 0 else max(row[j], prefix[-1] + 1)
        for v in range(lo, row[j + 1] + 1):
            yield from fill(j + 1, prefix + (v,))

    yield from fill(0, ())


def mt_count(row) -> int:
    """Number of monotone triangles with the strictly increasing bottom row."""
    row = tuple(row)
    if any(a >= b for a, b in zip(row, row[1:])):
        raise ValueError(f"{row} is not strictly increasing")

    @lru_cache(maxsize=None)
    def count(r: Row) -> int:
        if len(r) == 1:
            return 1
        if len(r) == 2:
            return r[1] - r[0] + 1
        return sum(count(tuple(u)) for u in _interlacing(r))

    return count(row)


def polynomial_alpha(row) -> int:
    """The counting polynomial at any integer row of length <= 4.

    By translation, alpha(k) = P(k_2 - k_1, ..., k_n - k_1) with P of degree
    <= n - 1 in each variable, so P is fixed by its values on the tensor grid
    where the j-th difference ranges over n consecutive values placed so that
    every grid row is strictly increasing.  Those values are monotone-triangle
    counts; Lagrange interpolation then gives P anywhere, exactly.
    """
    row = tuple(row)
    n = len(row)
    if n == 1:
        return 1
    if n > 4:
        raise ValueError("interpolation is limited to rows of length <= 4")
    diffs = [v - row[0] for v in row[1:]]
    nodes = [list(range(j * n + 1, j * n + n + 1)) for j in range(n - 1)]

    def weights(xs: list[int], x: int) -> list[Fraction]:
        out = []
        for a in xs:
            w = Fraction(1)
            for b in xs:
                if b != a:
                    w *= Fraction(x - b, a - b)
            out.append(w)
        return out

    per_axis = [weights(xs, x) for xs, x in zip(nodes, diffs)]
    total = Fraction(0)
    for picks in product(range(n), repeat=n - 1):
        w = prod((per_axis[j][p] for j, p in enumerate(picks)), start=Fraction(1))
        if w:
            total += w * mt_count((0,) + tuple(nodes[j][p] for j, p in enumerate(picks)))
    assert total.denominator == 1
    return total.numerator


def reflect(row) -> Row:
    """alpha(k_1..k_n) = alpha(-k_n, ..., -k_1)."""
    return tuple(-v for v in reversed(tuple(row)))


# --- class conditions on one pair of rows ------------------------------------


def gmt_pair_ok(up: Row, lo: Row) -> bool:
    """The three generalized-monotone-triangle conditions for ``up`` directly
    above ``lo``: (1) each entry weakly between its two lower neighbours;
    (2) a weakly increasing triple below forces a strict increase above;
    (3) under a strict descent below, an entry equal to the larger (smaller)
    lower neighbour needs an equal left (right) neighbour."""
    for j, v in enumerate(up):
        a, b = lo[j], lo[j + 1]
        if not min(a, b) <= v <= max(a, b):
            return False
        if j + 1 < len(up) and a <= b <= lo[j + 2] and not v < up[j + 1]:
            return False
        if a > b:
            if v == a and (j == 0 or up[j - 1] != v):
                return False
            if v == b and (j + 1 == len(up) or up[j + 1] != v):
                return False
    return True


def gmt_pair_sc(up: Row, lo: Row) -> int:
    """Newcomers (strictly inside a strict descent below) plus sign-changing
    pairs (an equal pair above whose interlaced lower entry is equal too)."""
    newcomers = sum(1 for j, v in enumerate(up) if lo[j] > v > lo[j + 1])
    pairs = sum(1 for j in range(len(up) - 1) if up[j] == up[j + 1] == lo[j + 1])
    return newcomers + pairs


def mt_pair_ok(up: Row, lo: Row) -> bool:
    return (all(a < b for a, b in zip(up, up[1:]))
            and all(lo[j] <= v <= lo[j + 1] for j, v in enumerate(up)))


def _at_most_twice(r: Row) -> bool:
    return all(r.count(v) <= 2 for v in set(r))


def dmt_pair_ok(up: Row, lo: Row) -> bool:
    """Weakly decreasing diagonals, each value at most twice in ``up``, and no
    value exactly once in both rows."""
    if not all(lo[j] >= v >= lo[j + 1] for j, v in enumerate(up)):
        return False
    if not _at_most_twice(up):
        return False
    return not any(up.count(v) == 1 and lo.count(v) == 1 for v in set(up))


def _rows_ok(rows, pair_ok) -> bool:
    if any(len(r) != i for i, r in enumerate(rows, start=1)):
        return False
    return all(pair_ok(rows[i], rows[i + 1]) for i in range(len(rows) - 1))


def triangle_ok(klass: str, rows) -> bool:
    rows = [tuple(r) for r in rows]
    if klass == "mt":
        return _rows_ok(rows, mt_pair_ok)
    if klass == "gmt":
        return _rows_ok(rows, gmt_pair_ok)
    if klass == "dmt":
        return _at_most_twice(rows[-1]) and _rows_ok(rows, dmt_pair_ok)
    raise ValueError(f"unknown class {klass!r}")


def triangle_sc(rows) -> int:
    rows = [tuple(r) for r in rows]
    return sum(gmt_pair_sc(rows[i], rows[i + 1]) for i in range(len(rows) - 1))


# --- brute-force counts --------------------------------------------------------


def _gmt_rows_above(lo: Row):
    """Every row satisfying gmt_pair_ok above ``lo``, built left to right and
    cut as soon as a prefix breaks a condition that it alone decides."""
    m = len(lo) - 1

    def fill(j: int, prefix: Row):
        if j == m:
            if gmt_pair_ok(prefix, lo):
                yield prefix
            return
        a, b = lo[j], lo[j + 1]
        for v in range(min(a, b), max(a, b) + 1):
            if j >= 1:
                pa, pb = lo[j - 1], lo[j]
                if pa <= pb <= b and not prefix[-1] < v:
                    continue
                if pa > pb and prefix[-1] == pb and v != pb:
                    continue
            if a > b and v == a and (j == 0 or prefix[-1] != v):
                continue
            yield from fill(j + 1, prefix + (v,))

    yield from fill(0, ())


def gmt_counts(row) -> tuple[int, int]:
    """(number of GMTs, sum of (-1)**sc over them) with the given bottom row."""

    @lru_cache(maxsize=None)
    def count(r: Row) -> tuple[int, int]:
        if len(r) == 1:
            return 1, 1
        total = signed = 0
        for up in _gmt_rows_above(r):
            c, s = count(up)
            total += c
            signed += -s if gmt_pair_sc(up, r) % 2 else s
        return total, signed

    return count(tuple(row))


def dmt_count(row) -> int:
    """Number of decreasing monotone triangles with the given bottom row."""

    @lru_cache(maxsize=None)
    def count(r: Row) -> int:
        if len(r) == 1:
            return 1
        ranges = [range(r[j + 1], r[j] + 1) for j in range(len(r) - 1)]
        return sum(count(up) for up in product(*ranges) if dmt_pair_ok(up, r))

    row = tuple(row)
    if any(a < b for a, b in zip(row, row[1:])) or not _at_most_twice(row):
        return 0
    return count(row)


# --- decorated triangles ------------------------------------------------------


def _nonadjacent_subsets(positions: list[int]):
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    yield from _nonadjacent_subsets(rest)
    for tail in _nonadjacent_subsets([p for p in rest if p > first + 1]):
        yield (first,) + tail


def tn_ok(rows, special) -> bool:
    """Decorated-triangle membership: specials are interior, pairwise not
    adjacent and equal to both parents; every other entry that is not a
    parent of a special lies weakly between a weakly increasing pair below or
    strictly inside a strict descent below."""
    rows = [tuple(r) for r in rows]
    if any(len(r) != i for i, r in enumerate(rows, start=1)):
        return False
    spec = set(special)
    parents = set()
    for i, j in spec:
        if not 1 < j < i <= len(rows) or (i, j + 1) in spec:
            return False
        v = rows[i - 1][j - 1]
        if rows[i - 2][j - 2] != v or rows[i - 2][j - 1] != v:
            return False
        parents |= {(i - 1, j - 1), (i - 1, j)}
    for i in range(1, len(rows)):
        for j in range(1, i + 1):
            if (i, j) in parents:
                continue
            v, a, b = rows[i - 1][j - 1], rows[i][j - 1], rows[i][j]
            if not (a <= v <= b if a <= b else a > v > b):
                return False
    return True


def tn_weight(rows, special) -> int:
    """Specials plus inversions (entries not parents of a special lying
    strictly inside a strict descent below)."""
    parents = set()
    for i, j in special:
        parents |= {(i - 1, j - 1), (i - 1, j)}
    inversions = sum(
        1
        for i in range(1, len(rows))
        for j in range(1, i + 1)
        if (i, j) not in parents and rows[i][j - 1] > rows[i - 1][j - 1] > rows[i][j]
    )
    return len(special) + inversions


def tn_counts(row) -> tuple[int, int]:
    """(number of decorated triangles, sum of their signs) with the given
    bottom row.  For each row, choose its specials (non-adjacent interior
    positions); they pin their two parents, the other entries of the row above
    range over their bounds, and each entry strictly inside a descent is an
    inversion."""

    @lru_cache(maxsize=None)
    def count(r: Row) -> tuple[int, int]:
        i = len(r)
        if i == 1:
            return 1, 1
        total = signed = 0
        for chosen in _nonadjacent_subsets(list(range(2, i))):
            pinned = {}
            for j in chosen:
                pinned[j - 2] = pinned[j - 1] = r[j - 1]
            ranges, inversion = [], []
            for p in range(i - 1):
                a, b = r[p], r[p + 1]
                if p in pinned:
                    ranges.append((pinned[p],))
                    inversion.append(False)
                elif a <= b:
                    ranges.append(range(a, b + 1))
                    inversion.append(False)
                else:
                    ranges.append(range(b + 1, a))
                    inversion.append(True)
            weight = len(chosen) + sum(inversion)
            for up in product(*ranges):
                c, s = count(up)
                total += c
                signed += -s if weight % 2 else s
        return total, signed

    return count(tuple(row))
