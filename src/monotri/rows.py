"""Admissible predecessor rows and bottom-up triangle enumeration.

Every triangle class here is defined by conditions between consecutive rows,
so triangles with a prescribed bottom row are generated bottom-up: compute the
admissible rows that may sit directly above a given row, then recurse.  All
enumeration is depth-first in lexicographic order of the successive rows,
which makes every stream deterministic.  :func:`triangle_totals` walks the
same tree in the same order without building triangles.

The decreasing class (dmt) has no row fill of its own: on a weakly decreasing
bottom row the generalized monotone triangles are exactly the decreasing
ones, so it walks :func:`gmt_admissible_rows` and only decides which bottom
rows it accepts.  The monotone class (mt) fills its rows by their definition,
strictly increasing and interlacing, so that comparing it with the
generalized walk checks more than the signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable, Iterator

from .triangles import (
    StreamRows,
    Triangle,
    check_row,
    extended_range,
    has_equal_triple,
    is_strictly_increasing,
    is_weakly_decreasing,
    row_sign_statistics,
)


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
    """Newcomers plus sign-changing pairs of ``upper`` against ``lower`` below
    (:func:`~monotri.triangles.row_sign_statistics`)."""
    newcomers, pairs = row_sign_statistics(lower, upper)
    return newcomers + pairs


def _extend(width: int, allowed: Callable[[int, tuple[int, ...]], Iterable[int]]) -> list[tuple[int, ...]]:
    """The rows of ``width`` entries with entry j drawn from the increasing
    ``allowed(j, entries left of it)``, in lexicographic order, built one
    position at a time (no recursion, whatever the width)."""
    rows: list[tuple[int, ...]] = [()]
    for j in range(width):
        rows = [p + (v,) for p in rows for v in allowed(j, p)]
    return rows


def gmt_admissible_rows(lower) -> list[tuple[int, ...]]:
    """Rows admissible directly above ``lower`` in a generalized monotone
    triangle, in lexicographic order.  The sign-change contribution of a row
    l is ``row_sign_changes(lower, l)``.

    A row l is admissible when the two-row fragment (l above ``lower``)
    satisfies the three class conditions and l contains no three consecutive
    equal entries (such a row admits no further row above it, hence never
    occurs inside a complete triangle).

    The row is filled left to right (:func:`_extend`).  Candidate values for
    l[j] come from the closed interval between lower[j] and lower[j+1]; a
    value equal to the larger element of a strict descent requires an equal
    entry to its left, and a value equal to the smaller element of a strict
    descent forces the next entry to equal it (or is inadmissible at the
    right edge).  So above a final descent by one, (b + 1, b), the last two
    entries are both b + 1, and the fill keeps no other value before the
    last position.  A weakly increasing triple below forces l[j-1] < l[j], so
    no row fits above three equal neighbours; such a row returns ``[]``
    before any prefix is built.  Above a row (a, b) of two entries these
    conditions leave the apexes a..b when a <= b and the values strictly
    between b and a otherwise, which are returned in closed form.
    """
    k = tuple(lower)
    m = len(k)
    if m < 2:
        raise ValueError("the lower row needs at least two entries")
    if m == 2:
        a, b = k
        return [(v,) for v in extended_range(a, b)[0]]
    if has_equal_triple(k):
        return []
    edge = m - 3 if k[-2] == k[-1] + 1 else None  # the position that must hold k[-2] too

    def allowed(j: int, p: tuple[int, ...]) -> Iterable[int]:
        a, b = k[j], k[j + 1]
        if not j:
            values = range(a, b + 1) if a <= b else range(b, a)
        else:
            c, q = k[j - 1], p[-1]
            if c > a == q:
                values = p[-1:]  # forced; not (a,), so that entries stay the ints range made
            elif a <= b:
                values = range(max(a, q + 1) if c <= a else a, b + 1)
            else:
                values = range(b + (j == m - 2), a + (q == a))
            if j > 1 and p[-2] == q:
                values = [v for v in values if v != q]
        if j == edge:
            return range(k[-2], k[-2] + 1) if k[-2] in values else ()
        return values

    return _extend(m - 1, allowed)


def mt_admissible_rows(lower) -> list[tuple[int, ...]]:
    """Strictly increasing rows l interlacing ``lower``, lower[j] <= l[j] <=
    lower[j+1], in lexicographic order, filled left to right (:func:`_extend`)."""
    k = tuple(lower)
    if len(k) < 2:
        raise ValueError("the lower row needs at least two entries")
    if not is_strictly_increasing(k):
        raise ValueError("the lower row must be strictly increasing")
    return _extend(len(k) - 1, lambda j, p: range(max(k[j], p[-1] + 1) if j else k[j], k[j + 1] + 1))


def dmt_admissible_rows(lower) -> list[tuple[int, ...]]:
    """Rows admissible above the weakly decreasing row ``lower`` in a
    decreasing monotone triangle, in lexicographic order: the rows of
    :func:`gmt_admissible_rows`, since on a weakly decreasing bottom row the
    generalized monotone triangles are exactly the decreasing ones."""
    k = tuple(lower)
    if not is_weakly_decreasing(k):
        raise ValueError("the lower row must be weakly decreasing")
    return gmt_admissible_rows(k)


def _class_expansion(klass: str, bottom) -> tuple[tuple[int, ...], Callable]:
    """Check ``bottom``'s entries and its shape against the triangle class
    and return it as a tuple with the class's expansion (row -> admissible
    rows above it).  Every row above it is then built from ``range`` objects,
    so the streams take their rows unchecked (:class:`StreamRows`)."""
    bottom = tuple(bottom)
    if klass not in ("gmt", "mt", "dmt"):
        raise ValueError(f"unknown triangle class {klass!r}")
    check_row(bottom, len(bottom))
    if klass == "mt" and not is_strictly_increasing(bottom):
        raise ValueError("the bottom row must be strictly increasing")
    if klass == "dmt" and not is_weakly_decreasing(bottom):
        raise ValueError("the bottom row must be weakly decreasing")
    return bottom, mt_admissible_rows if klass == "mt" else gmt_admissible_rows


def _stream(bottom: tuple[int, ...], expand: Callable[[tuple[int, ...]], list[tuple[int, ...]]],
            limits: EnumerationLimits) -> Iterator[Triangle]:
    """Depth-first walk over an explicit stack: ``path`` holds the rows from
    the bottom up, ``pending`` an iterator over the rows still to try above
    each of them.  The rows above a row depend on that row alone, so each
    distinct row is filled once and its list kept for the rest of the
    stream.  Every visit to a row, filled or kept, charges its admissible
    rows to the row budget, so the kept lists hold no more rows than were
    charged; each triangle charges one to the triangle budget before it is
    yielded."""
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    rows_left = limits.max_rows_generated
    triangles_left = limits.max_triangles
    if len(bottom) == 1:
        yield Triangle(StreamRows((bottom,)))
        return
    path = [bottom]
    pending = []
    filled: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    while True:
        top = path[-1]
        above = filled.get(top)
        if above is None:
            above = filled[top] = expand(top)
        rows_left -= len(above)
        if rows_left < 0:
            raise BudgetExceededError("row generation budget exhausted")
        if len(top) == 2:
            below = path[::-1]
            for apex in above:
                if triangles_left == 0:
                    raise BudgetExceededError("triangle budget exhausted")
                triangles_left -= 1
                yield Triangle(StreamRows((apex, *below)))
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
    depth-first in lexicographic order of the successive rows.  The bottom
    row's entries are checked on the call.
    ``limits=None`` means the default budgets, :data:`DEFAULT_LIMITS`."""
    bottom, expand = _class_expansion("gmt", bottom)
    return _stream(bottom, expand, limits or DEFAULT_LIMITS)


def enumerate_mt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All monotone triangles with the given strictly increasing bottom row,
    whose entries are checked on the call.  ``limits=None`` means the
    default budgets, :data:`DEFAULT_LIMITS`."""
    bottom, expand = _class_expansion("mt", bottom)
    return _stream(bottom, expand, limits or DEFAULT_LIMITS)


def enumerate_dmt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All decreasing monotone triangles with the given weakly decreasing
    bottom row, whose entries are checked on the call.  ``limits=None`` means
    the default budgets, :data:`DEFAULT_LIMITS`."""
    bottom, expand = _class_expansion("dmt", bottom)
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
    ("gmt", "mt" or "dmt") with the given bottom row, without building one.
    ``limits=None`` means no budget, not the default budgets.  See
    :func:`_totals`; for "mt" every edge sign is +1 and none is computed."""
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
    triangle or computing an edge sign.  The bottom row's entries are checked
    on the call, as the stream's are.  ``limits=None`` means the default
    budgets, :data:`DEFAULT_LIMITS`."""
    return _totals(klass, bottom, limits or DEFAULT_LIMITS, _unit_signs)[0]


def signed_gmt_count(bottom) -> int:
    """Sum of (-1)**sc over all generalized monotone triangles with the given
    bottom row, by the walk of :func:`triangle_totals` with no budget
    (``limits=None``)."""
    return triangle_totals("gmt", bottom, None)[1]
