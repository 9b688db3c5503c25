"""Admissible predecessor rows and bottom-up triangle enumeration.

Every triangle class here is defined by conditions between consecutive rows,
so triangles with a prescribed bottom row are generated bottom-up: compute the
admissible rows that may sit directly above a given row, then recurse.  All
enumeration is depth-first in lexicographic order of the successive rows,
which makes every stream deterministic.  :func:`count_triangles` walks the
same tree in the same order without building triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .triangles import Triangle


class BudgetExceededError(RuntimeError):
    """An enumeration or evaluation exceeded its configured resource budget."""


@dataclass(frozen=True)
class EnumerationLimits:
    """Resource budgets for triangle streams."""

    max_rows_generated: int = 10_000_000
    max_triangles: int = 1_000_000

    def __post_init__(self):
        if self.max_rows_generated <= 0 or self.max_triangles <= 0:
            raise ValueError("enumeration budgets must be positive")


DEFAULT_LIMITS = EnumerationLimits()


class AdmissibleRow(NamedTuple):
    row: tuple[int, ...]
    sc_contribution: int


def row_sign_changes(lower, upper) -> int:
    """Newcomers and sign-changing pairs of ``upper`` against ``lower`` below.

    ``upper`` must be one entry shorter than ``lower``.
    """
    total = 0
    for j in range(len(upper)):
        if lower[j] > upper[j] > lower[j + 1]:
            total += 1
    for j in range(len(upper) - 1):
        if upper[j] == upper[j + 1] == lower[j + 1]:
            total += 1
    return total


def gmt_admissible_rows(lower) -> list[AdmissibleRow]:
    """Rows admissible directly above ``lower`` in a generalized monotone
    triangle, each with its sign-change contribution, in lexicographic order.

    A row l is admissible when the two-row fragment (l above ``lower``)
    satisfies the three class conditions and l contains no three consecutive
    equal entries (such a row admits no further row above it, hence never
    occurs inside a complete triangle).

    The row is filled left to right.  Candidate values for l[j] come from the
    closed interval between lower[j] and lower[j+1]; a value equal to the
    larger element of a strict descent requires an equal entry to its left,
    and a value equal to the smaller element of a strict descent forces the
    next entry to equal it (or is inadmissible at the right edge).  A weakly
    increasing triple below forces l[j-1] < l[j].
    """
    k = tuple(lower)
    m = len(k)
    if m < 2:
        raise ValueError("the lower row needs at least two entries")
    out: list[AdmissibleRow] = []
    last = m - 2

    def fill(j: int, prefix: tuple[int, ...], forced: int | None):
        if j > last:
            out.append(AdmissibleRow(prefix, row_sign_changes(k, prefix)))
            return
        lo, hi = min(k[j], k[j + 1]), max(k[j], k[j + 1])
        candidates = (forced,) if forced is not None else range(lo, hi + 1)
        for v in candidates:
            if not lo <= v <= hi:
                continue
            if v == k[j] and k[j] > k[j + 1] and (j == 0 or prefix[j - 1] != v):
                continue
            if j >= 1 and k[j - 1] <= k[j] <= k[j + 1] and not prefix[j - 1] < v:
                continue
            if j >= 2 and prefix[j - 2] == prefix[j - 1] == v:
                continue
            next_forced = None
            if k[j] > k[j + 1] == v:
                if j == last:
                    continue
                next_forced = v
            fill(j + 1, prefix + (v,), next_forced)

    fill(0, (), None)
    return out


def mt_admissible_rows(lower) -> list[tuple[int, ...]]:
    """Strictly increasing rows interlacing ``lower``: lower[j] <= l[j] <= lower[j+1]."""
    k = tuple(lower)
    m = len(k)
    if m < 2:
        raise ValueError("the lower row needs at least two entries")
    if any(k[j] >= k[j + 1] for j in range(m - 1)):
        raise ValueError("the lower row must be strictly increasing")
    out: list[tuple[int, ...]] = []

    def fill(j: int, prefix: tuple[int, ...]):
        if j == m - 1:
            out.append(prefix)
            return
        lo = k[j] if j == 0 else max(k[j], prefix[j - 1] + 1)
        for v in range(lo, k[j + 1] + 1):
            fill(j + 1, prefix + (v,))

    fill(0, ())
    return out


def dmt_admissible_rows(lower) -> list[tuple[int, ...]]:
    """Rows admissible above ``lower`` in a decreasing monotone triangle.

    Entries satisfy lower[j] >= l[j] >= lower[j+1], no value occurs more than
    twice in l, and no value occurs exactly once in both l and ``lower``.
    """
    k = tuple(lower)
    m = len(k)
    if m < 2:
        raise ValueError("the lower row needs at least two entries")
    if any(k[j] < k[j + 1] for j in range(m - 1)):
        raise ValueError("the lower row must be weakly decreasing")
    out: list[tuple[int, ...]] = []

    def fill(j: int, prefix: tuple[int, ...]):
        if j == m - 1:
            for v in set(prefix):
                if prefix.count(v) == 1 and k.count(v) == 1:
                    return
            out.append(prefix)
            return
        for v in range(k[j + 1], k[j] + 1):
            if prefix.count(v) >= 2:
                continue
            fill(j + 1, prefix + (v,))

    fill(0, ())
    return out


def _gmt_rows(row: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [ar.row for ar in gmt_admissible_rows(row)]


def _class_expansion(klass: str, bottom) -> tuple[tuple[int, ...], Callable | None]:
    """Check ``bottom`` against the triangle class and return it as a tuple
    with the class's expansion (row -> admissible rows above it).  The
    expansion is None when no triangle of the class has this bottom row."""
    bottom = tuple(bottom)
    if klass == "gmt":
        return bottom, _gmt_rows
    if klass == "mt":
        if any(bottom[j] >= bottom[j + 1] for j in range(len(bottom) - 1)):
            raise ValueError("the bottom row must be strictly increasing")
        return bottom, mt_admissible_rows
    if klass == "dmt":
        if any(bottom[j] < bottom[j + 1] for j in range(len(bottom) - 1)):
            raise ValueError("the bottom row must be weakly decreasing")
        # the at-most-twice condition applies to the bottom row itself
        if any(bottom.count(v) > 2 for v in set(bottom)):
            return bottom, None
        return bottom, dmt_admissible_rows
    raise ValueError(f"unknown triangle class {klass!r}")


def _stream(bottom: tuple[int, ...], expand: Callable[[tuple[int, ...]], list[tuple[int, ...]]],
            limits: EnumerationLimits) -> Iterator[Triangle]:
    """Depth-first walk over an explicit stack: ``path`` holds the rows from
    the bottom up, ``pending`` an iterator over the rows still to try above
    each of them.  Expanding a row charges its admissible rows to the row
    budget; each triangle charges one to the triangle budget before it is
    yielded."""
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    rows_left = limits.max_rows_generated
    triangles_left = limits.max_triangles
    if len(bottom) == 1:
        yield Triangle((bottom,))
        return
    path = [bottom]
    pending = []
    while True:
        top = path[-1]
        above = expand(top)
        rows_left -= len(above)
        if rows_left < 0:
            raise BudgetExceededError("row generation budget exhausted")
        if len(top) == 2:
            below = path[::-1]
            for apex in above:
                if triangles_left == 0:
                    raise BudgetExceededError("triangle budget exhausted")
                triangles_left -= 1
                yield Triangle((apex, *below))
            path.pop()
        else:
            pending.append(iter(above))
        while pending:
            row = next(pending[-1], None)
            if row is not None:
                path.append(row)
                break
            pending.pop()
            path.pop()
        else:
            return


def enumerate_gmt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All generalized monotone triangles with the given bottom row,
    depth-first in lexicographic order of the successive rows."""
    bottom, expand = _class_expansion("gmt", bottom)
    return _stream(bottom, expand, limits or DEFAULT_LIMITS)


def enumerate_mt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All monotone triangles with the given strictly increasing bottom row."""
    bottom, expand = _class_expansion("mt", bottom)
    return _stream(bottom, expand, limits or DEFAULT_LIMITS)


def enumerate_dmt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All decreasing monotone triangles with the given weakly decreasing bottom row."""
    bottom, expand = _class_expansion("dmt", bottom)
    if expand is None:
        return iter(())
    return _stream(bottom, expand, limits or DEFAULT_LIMITS)


def count_triangles(klass: str, bottom, limits: EnumerationLimits | None = None) -> int:
    """Number of triangles of ``klass`` ("gmt", "mt" or "dmt") with the given
    bottom row: the length of ``enumerate_<klass>(bottom, limits)``, without
    building a triangle.

    The walk visits rows in stream order and charges both budgets as the
    stream does.  A row whose subtree was already walked is skipped whole,
    charging the stored (triangles, rows generated) of the subtree, when that
    fits in what is left of both budgets; otherwise the walk goes into it.
    So the walk raises the stream's ``BudgetExceededError`` at the same point
    and never expands a row the stream would not.
    """
    bottom, expand = _class_expansion(klass, bottom)
    if expand is None:
        return 0
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    if len(bottom) == 1:
        return 1
    limits = limits or DEFAULT_LIMITS
    max_rows, max_triangles = limits.max_rows_generated, limits.max_triangles
    walked: dict[tuple[int, ...], tuple[int, int]] = {}
    triangles = rows = 0
    stack = []  # (row, iterator over the rows above it, triangles and rows before it)
    top = bottom
    while True:
        before = triangles, rows
        above = expand(top)
        rows += len(above)
        if rows > max_rows:
            raise BudgetExceededError("row generation budget exhausted")
        if len(top) == 2:
            triangles += len(above)
            if triangles > max_triangles:
                raise BudgetExceededError("triangle budget exhausted")
            walked[top] = (len(above), len(above))
        else:
            stack.append((top, iter(above), before))
        while stack:
            row, rest, (t0, r0) = stack[-1]
            for top in rest:
                seen = walked.get(top)
                if seen is None or triangles + seen[0] > max_triangles or rows + seen[1] > max_rows:
                    break
                triangles += seen[0]
                rows += seen[1]
            else:
                stack.pop()
                walked[row] = (triangles - t0, rows - r0)
                continue
            break
        else:
            return triangles


def signed_gmt_count(bottom) -> int:
    """Sum of (-1)**sc over all generalized monotone triangles with the given
    bottom row, computed as a running sum without materializing triangles.

    The recursion sums sign-weighted counts over admissible predecessor rows;
    memoization on the row makes repeated subproblems cheap.
    """
    start = tuple(bottom)
    if not start:
        raise ValueError("the bottom row must not be empty")
    memo: dict[tuple[int, ...], int] = {}

    def count(row: tuple[int, ...]) -> int:
        if len(row) == 1:
            return 1
        cached = memo.get(row)
        if cached is not None:
            return cached
        total = 0
        for sub, sc in gmt_admissible_rows(row):
            term = count(sub)
            total += term if sc % 2 == 0 else -term
        memo[row] = total
        return total

    return count(start)
