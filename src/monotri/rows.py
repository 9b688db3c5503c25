"""Admissible predecessor rows and bottom-up triangle enumeration.

Every triangle class here is defined by conditions between consecutive rows,
so triangles with a prescribed bottom row are generated bottom-up: compute the
admissible rows that may sit directly above a given row, then recurse.  All
enumeration is depth-first in lexicographic order of the successive rows,
which makes every stream deterministic.  :func:`triangle_totals` walks the
same tree in the same order without building triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import inf
from typing import Callable, Iterator

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


def gmt_admissible_rows(lower) -> list[tuple[int, ...]]:
    """Rows admissible directly above ``lower`` in a generalized monotone
    triangle, in lexicographic order.  The sign-change contribution of a row
    l is ``row_sign_changes(lower, l)``.

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
    out: list[tuple[int, ...]] = []
    last = m - 2

    def fill(j: int, prefix: tuple[int, ...], forced: int | None):
        if j > last:
            out.append(prefix)
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
    rows = product(*[range(k[j], k[j + 1] + 1) for j in range(m - 1)])
    if m == 2:
        return list(rows)
    # l[j] <= k[j+1] <= l[j+1]: a row is weakly increasing, and strict
    # unless two neighbours both equal k[j+1], that is unless a value repeats.
    return [l for l in rows if len(set(l)) == m - 1]


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


def _class_expansion(klass: str, bottom) -> tuple[tuple[int, ...], Callable | None]:
    """Check ``bottom`` against the triangle class and return it as a tuple
    with the class's expansion (row -> admissible rows above it).  The
    expansion is None when no triangle of the class has this bottom row."""
    bottom = tuple(bottom)
    if klass == "gmt":
        return bottom, gmt_admissible_rows
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


def _edge_signs(lower, rows) -> list[int]:
    """(-1)**row_sign_changes(lower, row) for each row above ``lower``."""
    return [-1 if row_sign_changes(lower, row) & 1 else 1 for row in rows]


def _unit_signs(lower, rows) -> list[int]:
    """The edge signs of monotone triangles: a strictly increasing row has
    no descent and no equal neighbours, so every sign is +1."""
    return [1] * len(rows)


def triangle_totals(klass: str, bottom, limits: EnumerationLimits | None) -> tuple[int, int]:
    """(number, sum of the signs (-1)**sc) of the triangles of ``klass``
    ("gmt", "mt" or "dmt") with the given bottom row, without building one;
    no budget applies when ``limits`` is None.  See :func:`_totals`; for "mt"
    every edge sign is +1 and none is computed."""
    return _totals(klass, bottom, limits, _unit_signs if klass == "mt" else _edge_signs)


def _totals(klass: str, bottom, limits: EnumerationLimits | None,
            edge_signs: Callable[[tuple[int, ...], list], list[int]]) -> tuple[int, int]:
    """(number, signed total) of the triangles of ``klass`` with the given
    bottom row, with ``edge_signs(row, rows above)`` as the edge signs.

    The walk visits rows in stream order and charges both budgets as the
    stream does.  A row whose subtree was already walked is skipped whole,
    charging its stored (triangles, rows generated), when that fits in what
    is left of both budgets; otherwise the walk goes into it.  So it raises
    the stream's ``BudgetExceededError`` at the same point and never expands
    a row the stream would not.  A row's signed total is the sum, over the
    rows above it, of their signed totals times the edge sign, computed for
    the rows above a row when it is expanded.  The number does not depend
    on the edge signs.
    """
    bottom, expand = _class_expansion(klass, bottom)
    if expand is None:
        return 0, 0
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    if len(bottom) == 1:
        return 1, 1
    # An unlimited budget is an infinite bound; counts stay exact integers.
    max_rows, max_triangles = (inf, inf) if limits is None else (limits.max_rows_generated, limits.max_triangles)
    walked: dict[tuple[int, ...], tuple[int, int, int]] = {}
    triangles = rows = 0
    # A frame: the row, an iterator over (row above, edge sign), the triangles and rows
    # before it, its signed total so far, and the sign of the edge being walked.
    stack = []
    top = bottom
    while True:
        before = triangles, rows
        above = expand(top)
        rows += len(above)
        if rows > max_rows:
            raise BudgetExceededError("row generation budget exhausted")
        if len(top) > 2:
            stack.append([top, zip(above, edge_signs(top, above)), *before, 0, 1])
        else:
            # each row above a row of two entries is the apex of one triangle
            triangles += len(above)
            if triangles > max_triangles:
                raise BudgetExceededError("triangle budget exhausted")
            signed = sum(edge_signs(top, above))
            stack.append([top, iter(()), *before, signed, 1])
        while True:
            frame = stack[-1]
            for top, sign in frame[1]:
                seen = walked.get(top)
                if seen is None or triangles + seen[0] > max_triangles or rows + seen[1] > max_rows:
                    frame[5] = sign
                    break
                triangles += seen[0]
                rows += seen[1]
                frame[4] += sign * seen[2]
            else:
                stack.pop()
                signed = frame[4]
                walked[frame[0]] = (triangles - frame[2], rows - frame[3], signed)
                if not stack:
                    return triangles, signed
                stack[-1][4] += stack[-1][5] * signed
                continue
            break


def count_triangles(klass: str, bottom, limits: EnumerationLimits | None = None) -> int:
    """Number of triangles of ``klass`` ("gmt", "mt" or "dmt") with the given
    bottom row: the length of ``enumerate_<klass>(bottom, limits)``, or its
    budget error, from the walk of :func:`triangle_totals` without building a
    triangle or computing an edge sign."""
    return _totals(klass, bottom, limits or DEFAULT_LIMITS, _unit_signs)[0]


def signed_gmt_count(bottom) -> int:
    """Sum of (-1)**sc over all generalized monotone triangles with the given
    bottom row, by the walk of :func:`triangle_totals` with no budget."""
    return triangle_totals("gmt", bottom, None)[1]
