"""Decorated triangles, their signed enumeration, and the sign-reversing
involution that reduces them to generalized monotone triangles.

A decorated triangle marks some interior entries as special.  Special entries
equal both parents (the two entries diagonally above); entries that are not
parents of a special are weakly bounded by a weakly increasing pair below, or
strictly between a strictly decreasing pair below (an inversion).  The signed
count over all decorations equals the counting polynomial; cancelling the
decorated objects that violate the interior strict-increase condition via the
involution leaves exactly the generalized monotone triangles, with specials
turning into sign-changing pairs and inversions into newcomers.

The stream, :func:`enumerate_tn`, and the count, :func:`tn_totals`, run on
the two walks of the triangle classes, :func:`~monotri.rows.walk_stream` and
the memoized :func:`~monotri.rows.walk_totals`, taking the rows of the boxes
above a row as the nodes above it.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product
from typing import Iterator

from .evaluate import third_families
from .report import VerificationReport, build_report
from .rows import DEFAULT_LIMITS, EnumerationLimits, enumerate_gmt, signed_gmt_count, walk_stream, walk_totals
from .triangles import (
    Position,
    StreamRows,
    StreamSpecials,
    TnObject,
    Triangle,
    check_row,
    inferred_special_positions,
    sc_statistic,
    validate_tn,
)


class InternalConsistencyError(RuntimeError):
    """The involution produced an object outside the decorated class."""


def _boxes(row) -> list[tuple[tuple[Position, ...], tuple[range, ...], int]]:
    """(specials it gives ``row``, ranges, sign) of each inclusion-exclusion
    box of rows above ``row``, with the box sign (-1)**(specials + inversions)."""
    return [(tuple((len(row), j) for j in chosen), ranges, sign)
            for chosen, ranges, sign in third_families(row)]


def _tn_object(path) -> TnObject:
    rows, specials = zip(*path)
    return TnObject(Triangle(StreamRows(rows)), StreamSpecials(chain.from_iterable(specials)))


def enumerate_tn(bottom, limits: EnumerationLimits | None = None) -> Iterator[TnObject]:
    """All decorated triangles with the given bottom row.

    Rows are built bottom-up.  Above each already-fixed row, the special
    subset of its interior positions is chosen first (non-adjacent subsets,
    smallest size first); specials pin both parents to their own value, and
    the remaining positions of the row above range over the interval between
    their lower neighbours (strictly between, under a strict descent).  The
    stream is :func:`~monotri.rows.walk_stream` over nodes (row, specials it
    gives the row below); the boxes above a row are kept for the stream and
    their rows built lazily, one charged as each is taken, so a budget stops
    the stream before a wide box is built.  The bottom row's entries are
    checked on the call.  ``limits=None`` means the default budgets,
    ``DEFAULT_LIMITS``.
    """
    bottom = tuple(bottom)
    check_row(bottom, len(bottom))
    boxes = cache(_boxes)

    def expand(node):
        return 0, ((above, special) for special, ranges, _ in boxes(node[0]) for above in product(*ranges))

    return map(_tn_object, walk_stream((bottom, ()), len(bottom), expand, 1, limits or DEFAULT_LIMITS))


def _tn_edges(row):
    """No rows charged on entering ``row``, and the edges above it in stream
    order, each row of each box with the box sign, its rows built lazily."""
    return 0, ((above, sign) for _, ranges, sign in _boxes(row) for above in product(*ranges))


def tn_totals(bottom, limits: EnumerationLimits | None = None) -> tuple[int, int]:
    """(number, sum of the signs) of the decorated triangles with the given
    bottom row: the length of ``enumerate_tn(bottom, limits)`` and the sum of
    its objects' signs, or its budget error, without building an object.
    ``limits=None`` means the default budgets, ``DEFAULT_LIMITS``.

    This is :func:`~monotri.rows.walk_totals` over the stream's boxes, with
    the stream's charges: one row per edge as it is taken, and one triangle
    at each apex.  The boxes are expanded lazily, so a budget stops the walk
    before a wide box is built.
    """
    bottom = tuple(bottom)
    check_row(bottom, len(bottom))
    return walk_totals(bottom, _tn_edges, 1, limits or DEFAULT_LIMITS)


def signed_tn_count(bottom) -> int:
    """Sum of (-1)**s over all decorated triangles with the given bottom row,
    by the memoized walk of :func:`tn_totals` under the default budgets,
    ``DEFAULT_LIMITS``."""
    return tn_totals(bottom)[1]


def _scan_position(rows) -> Position | None:
    """Minimal (i, j), i first then j, with both horizontal neighbours
    present, a(i,j-1) <= a(i,j) <= a(i,j+1), and both parents equal to a(i,j)."""
    n = len(rows)
    for i in range(2, n + 1):
        for j in range(2, i):
            v = rows[i - 1][j - 1]
            if rows[i - 1][j - 2] <= v <= rows[i - 1][j]:
                if rows[i - 2][j - 2] == v == rows[i - 2][j - 1]:
                    return (i, j)
    return None


def involution_step(obj: TnObject) -> TnObject | None:
    """One application of the sign-reversing involution.

    Toggles the special mark at the scan position (minimal row, then minimal
    column, where the entry is weakly between its horizontal neighbours and
    equal to both parents).  Returns None when the object is a fixed point.
    The scan depends only on the entries, so applying the step twice returns
    the original object.
    """
    pos = _scan_position(obj.triangle.rows)
    if pos is None:
        return None
    new_special = obj.special ^ {pos}
    try:
        partner = TnObject(obj.triangle, new_special)
    except ValueError as exc:
        raise InternalConsistencyError(f"toggling {pos} broke the decoration invariants: {exc}") from exc
    if not validate_tn(partner):
        raise InternalConsistencyError(f"toggling {pos} left the decorated class")
    return partner


def verify_reduction(bottom) -> VerificationReport:
    """Check the reduction of decorated triangles to generalized monotone
    triangles over one bottom row.

    Verifies that the involution pairs every non-fixed object with a partner
    of opposite sign inside the enumerated set, that fixed points carry
    exactly the specials inferred from equal parents and map bijectively onto
    the generalized monotone triangles with matching sign statistics, and
    that both signed totals agree.  Both streams run under the default
    budgets, ``DEFAULT_LIMITS``.
    """
    bottom = tuple(bottom)
    objects = list(enumerate_tn(bottom))
    index = {o: pos for pos, o in enumerate(objects)}
    failures = []

    fixed: list[TnObject] = []
    for o in objects:
        partner = involution_step(o)
        if partner is None:
            fixed.append(o)
            continue
        if partner not in index:
            failures.append({"check": "partner enumerated", "object": repr(o)})
            continue
        if partner.weight != o.weight + 1 and partner.weight != o.weight - 1:
            failures.append({"check": "sign reversal", "object": repr(o), "partner": repr(partner)})
        if involution_step(partner) != o:
            failures.append({"check": "involution", "object": repr(o)})

    gmt_triangles = list(enumerate_gmt(bottom))
    fixed_by_triangle = {}
    for o in fixed:
        if o.special != inferred_special_positions(o.triangle):
            failures.append({"check": "specials inferred from parents", "object": repr(o)})
        fixed_by_triangle[o.triangle] = o
    if set(fixed_by_triangle) != set(gmt_triangles) or len(fixed_by_triangle) != len(fixed):
        failures.append({
            "check": "fixed points biject onto triangles",
            "fixed": len(fixed),
            "triangles": len(gmt_triangles),
        })
    else:
        for t, o in fixed_by_triangle.items():
            if o.weight != sc_statistic(t).sc:
                failures.append({"check": "weight equals sign-change count", "object": repr(o)})

    lhs, rhs = sum(o.sign for o in objects), signed_gmt_count(bottom)
    if lhs != rhs:
        failures.append({"check": "signed totals", "lhs": str(lhs), "rhs": str(rhs)})

    return build_report("tn-reduction", f"bottom row {bottom}", "proven", len(objects) + 1, failures, {
        "objects": len(objects),
        "fixed_points": len(fixed),
        "violators": len(objects) - len(fixed),
        "signed_total": str(lhs),
    })
