"""Admissible predecessor rows and bottom-up triangle enumeration.

Every triangle class here is defined by conditions between consecutive rows,
so triangles with a prescribed bottom row are generated bottom-up: compute the
admissible rows that may sit directly above a given row, then recurse.  All
enumeration is depth-first in lexicographic order of the successive rows,
which makes every stream deterministic.  Two walks charge the budgets, for
these classes and for the decorated triangles of :mod:`monotri.decorated`
alike, each given an expansion and its charging rule: :func:`walk_stream`
yields the path of each object, which the streams turn into triangles, and
:func:`walk_totals` walks the same tree in the same order without building
one, keeping the totals of each row it finishes.

The decreasing class (dmt) has no row fill of its own: on a weakly decreasing
bottom row the generalized monotone triangles are exactly the decreasing
ones, so it walks :func:`gmt_admissible_rows` and only decides which bottom
rows it accepts.  The monotone class (mt) fills its rows by their definition,
strictly increasing and interlacing, so that comparing it with the
generalized walk checks more than the signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat
from math import inf
from typing import Callable, Iterable, Iterator

from .triangles import (
    StreamRows,
    Triangle,
    _is_integer,
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
        # The walks stop where a count equals a budget, so a budget must be an int.
        for name in ("max_rows_generated", "max_triangles"):
            if not _is_integer(getattr(self, name)):
                raise TypeError(f"non-integer budget {name}={getattr(self, name)!r}")
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


def walk_stream(bottom, size: int, expand: Callable[[object], tuple[int, Iterable]], per_edge: int,
                limits: EnumerationLimits) -> Iterator[tuple]:
    """The objects above the node ``bottom``, a bottom row of ``size``
    entries, depth-first: the one stream walk behind the ``enumerate_*``
    streams.  ``expand(node)`` gives the rows charged on entering a node and
    the nodes above it, each charging ``per_edge`` rows as it is taken, as in
    :func:`walk_totals`; the walk does not look inside a node.  A path of
    ``size`` nodes is an object, yielded as a tuple of its nodes top down
    once it has charged the triangle budget.  ``path`` holds the nodes from
    the bottom up and ``pending`` the nodes still to try above each but the
    last; the apexes above the last come in one loop."""
    if not size:
        raise ValueError("the bottom row must not be empty")
    rows_left = limits.max_rows_generated
    objects_left = limits.max_triangles
    if size == 1:  # a budget of at least one triangle admits it
        yield bottom,
        return
    path = [bottom]
    pending = []
    while True:
        charge, above = expand(path[-1])
        rows_left -= charge
        if rows_left < 0:
            raise BudgetExceededError("row generation budget exhausted")
        if len(path) == size - 1:
            below = path[::-1]
            for apex in above:
                rows_left -= per_edge
                if rows_left < 0:
                    raise BudgetExceededError("row generation budget exhausted")
                if objects_left == 0:
                    raise BudgetExceededError("triangle budget exhausted")
                objects_left -= 1
                yield apex, *below
            path.pop()
        else:
            pending.append(iter(above))
        while pending:
            node = next(pending[-1], None)
            if node is not None:
                rows_left -= per_edge
                if rows_left < 0:
                    raise BudgetExceededError("row generation budget exhausted")
                path.append(node)
                break
            pending.pop()
            path.pop()
        else:
            return


def _class_stream(klass: str, bottom, limits: EnumerationLimits | None) -> Iterator[Triangle]:
    """:func:`walk_stream` over the triangles of ``klass``.  Each distinct
    row is filled once and its list kept for the stream; every visit charges
    it to the row budget, so the kept lists hold no more rows than were
    charged."""
    bottom, fill = _class_expansion(klass, bottom)

    @cache
    def expand(row):
        above = fill(row)
        return len(above), above

    return map(Triangle, map(StreamRows, walk_stream(bottom, len(bottom), expand, 0, limits or DEFAULT_LIMITS)))


def enumerate_gmt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All generalized monotone triangles with the given bottom row,
    depth-first in lexicographic order of the successive rows.  The bottom
    row's entries are checked on the call.
    ``limits=None`` means the default budgets, :data:`DEFAULT_LIMITS`."""
    return _class_stream("gmt", bottom, limits)


def enumerate_mt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All monotone triangles with the given strictly increasing bottom row,
    whose entries are checked on the call.  ``limits=None`` means the
    default budgets, :data:`DEFAULT_LIMITS`."""
    return _class_stream("mt", bottom, limits)


def enumerate_dmt(bottom, limits: EnumerationLimits | None = None) -> Iterator[Triangle]:
    """All decreasing monotone triangles with the given weakly decreasing
    bottom row, whose entries are checked on the call.  ``limits=None`` means
    the default budgets, :data:`DEFAULT_LIMITS`."""
    return _class_stream("dmt", bottom, limits)


def _edge_signs(lower, rows) -> list[int]:
    """(-1)**row_sign_changes(lower, row) for each row above ``lower``."""
    return [-1 if row_sign_changes(lower, row) & 1 else 1 for row in rows]


def walk_totals(bottom: tuple[int, ...], expand: Callable[[tuple[int, ...]], tuple[int, Iterable]],
                per_edge: int, limits: EnumerationLimits | None) -> tuple[int, int]:
    """(number, signed total) of the objects above ``bottom``, without
    building one: the one memoized walk behind :func:`triangle_totals`,
    :func:`count_triangles`, :func:`signed_gmt_count` and
    :func:`~monotri.decorated.tn_totals`.

    ``expand(row)`` gives the rows charged on entering ``row`` and an
    iterator over (row above, edge sign).  Taking an edge charges
    ``per_edge`` rows, a row of one entry is one object, and an object's
    sign is the product of the edge signs on its path.  The walk takes the
    edges in stream order and keeps (objects, rows charged, signed total)
    for each row it finishes.  It skips a walked row only when both budgets
    absorb those totals, so it raises the stream's ``BudgetExceededError``
    where the stream does and never expands a row the stream would not.

    ``limits=None`` means no budget here.  :func:`triangle_totals` and
    :func:`signed_gmt_count` pass it on so; :func:`count_triangles`,
    :func:`~monotri.decorated.tn_totals` and
    :func:`~monotri.decorated.signed_tn_count` read it as
    :data:`DEFAULT_LIMITS`.
    """
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    if len(bottom) == 1:
        return 1, 1
    # An unlimited budget is an infinite bound; counts stay exact integers.
    max_rows, max_objects = (inf, inf) if limits is None else (limits.max_rows_generated, limits.max_triangles)
    walked: dict[tuple[int, ...], tuple[int, int, int]] = {}
    objects = rows = 0
    # A frame: the row, its iterator over (row above, edge sign), the objects and rows
    # before it, its signed total so far, and the sign of the edge being walked.
    stack = []
    top = bottom
    while True:
        charge, edges = expand(top)
        stack.append([top, edges, objects, rows, 0, 1])
        rows += charge
        if rows > max_rows:
            raise BudgetExceededError("row generation budget exhausted")
        while True:
            frame = stack[-1]
            for top, sign in frame[1]:
                rows += per_edge
                if rows > max_rows:
                    raise BudgetExceededError("row generation budget exhausted")
                if len(top) == 1:
                    if objects == max_objects:
                        raise BudgetExceededError("triangle budget exhausted")
                    objects += 1
                    frame[4] += sign
                    continue
                seen = walked.get(top)
                if seen is None or objects + seen[0] > max_objects or rows + seen[1] > max_rows:
                    frame[5] = sign
                    break
                objects += seen[0]
                rows += seen[1]
                frame[4] += sign * seen[2]
            else:
                stack.pop()
                signed = frame[4]
                walked[frame[0]] = (objects - frame[2], rows - frame[3], signed)
                if not stack:
                    return objects, signed
                stack[-1][4] += stack[-1][5] * signed
                continue
            break


def _class_totals(klass: str, bottom, limits: EnumerationLimits | None, signed: bool) -> tuple[int, int]:
    """:func:`walk_totals` over the triangles of ``klass`` with the given
    bottom row, charging each row's fill on entering it as the stream,
    :func:`_class_stream`, does; every edge sign is +1 unless ``signed``."""
    bottom, fill = _class_expansion(klass, bottom)

    def expand(row):
        above = fill(row)
        return len(above), zip(above, _edge_signs(row, above) if signed else repeat(1))

    return walk_totals(bottom, expand, 0, limits)


def triangle_totals(klass: str, bottom, limits: EnumerationLimits | None) -> tuple[int, int]:
    """(number, sum of the signs (-1)**sc) of the triangles of ``klass``
    ("gmt", "mt" or "dmt") with the given bottom row: the length of their
    stream under ``limits`` and the sum of its signs, or its budget error,
    by :func:`walk_totals` without building a triangle.
    ``limits=None`` means no budget, not the default budgets.  For "mt"
    every edge sign is +1 and none is computed."""
    return _class_totals(klass, bottom, limits, klass != "mt")


def count_triangles(klass: str, bottom, limits: EnumerationLimits | None = None) -> int:
    """Number of triangles of ``klass`` ("gmt", "mt" or "dmt") with the given
    bottom row: the length of ``enumerate_<klass>(bottom, limits)``, or its
    budget error, by :func:`walk_totals` without building a triangle or
    computing an edge sign.  The bottom row's entries are checked on the
    call, as the stream's are.  ``limits=None`` means the default budgets,
    :data:`DEFAULT_LIMITS`."""
    return _class_totals(klass, bottom, limits or DEFAULT_LIMITS, False)[0]


def signed_gmt_count(bottom) -> int:
    """Sum of (-1)**sc over all generalized monotone triangles with the given
    bottom row, by :func:`triangle_totals` with no budget (``limits=None``)."""
    return triangle_totals("gmt", bottom, None)[1]
