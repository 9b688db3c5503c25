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
"""

from __future__ import annotations

import time
from typing import Iterator

from .evaluate import nonadjacent_index_sets
from .report import VerificationReport
from .rows import DEFAULT_LIMITS, BudgetExceededError, EnumerationLimits, enumerate_gmt, signed_gmt_count
from .triangles import (
    Position,
    TnObject,
    Triangle,
    inferred_special_positions,
    sc_statistic,
    validate_tn,
)


class InternalConsistencyError(RuntimeError):
    """The involution produced an object outside the decorated class."""


def enumerate_tn(bottom, limits: EnumerationLimits | None = None) -> Iterator[TnObject]:
    """All decorated triangles with the given bottom row.

    Rows are built bottom-up.  For each already-fixed row, the special subset
    of its interior positions is chosen first (non-adjacent subsets, smallest
    size first); specials pin both parents to their own value, and the
    remaining positions of the row above range over the interval between
    their lower neighbours (strictly between, under a strict descent).
    """
    bottom = tuple(bottom)
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    limits = limits or DEFAULT_LIMITS
    n = len(bottom)
    rows_left = limits.max_rows_generated
    triangles_left = limits.max_triangles

    def rec(stack: list[tuple[int, ...]], specials: frozenset[Position]) -> Iterator[TnObject]:
        nonlocal triangles_left
        r = n - len(stack) + 1  # 1-based index of the highest built row
        if r == 1:
            if triangles_left == 0:
                raise BudgetExceededError("triangle budget exhausted")
            triangles_left -= 1
            yield TnObject(Triangle(reversed(stack)), specials)
            return
        current = stack[-1]
        interior = (2, r - 1) if r >= 3 else (2, 1)
        for chosen in nonadjacent_index_sets(*interior):
            pinned = {}
            for j in chosen:  # special at (r, j) pins positions j-1, j above
                pinned[j - 2] = current[j - 1]
                pinned[j - 1] = current[j - 1]
            choices = []
            for idx in range(r - 1):
                if idx in pinned:
                    choices.append((pinned[idx],))
                else:
                    lo, hi = current[idx], current[idx + 1]
                    if lo <= hi:
                        choices.append(tuple(range(lo, hi + 1)))
                    else:
                        choices.append(tuple(range(hi + 1, lo)))
            marked = specials | {(r, j) for j in chosen}

            def product(idx: int, prefix: tuple[int, ...]) -> Iterator[TnObject]:
                nonlocal rows_left
                if idx == r - 1:
                    rows_left -= 1
                    if rows_left < 0:
                        raise BudgetExceededError("row generation budget exhausted")
                    stack.append(prefix)
                    yield from rec(stack, marked)
                    stack.pop()
                    return
                for v in choices[idx]:
                    yield from product(idx + 1, prefix + (v,))

            yield from product(0, ())

    yield from rec([bottom], frozenset())


def signed_tn_count(bottom) -> int:
    """Sum of (-1)**s over all decorated triangles with the given bottom row."""
    return sum(o.sign for o in enumerate_tn(bottom))


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


def verify_reduction(bottom, limits: EnumerationLimits | None = None) -> VerificationReport:
    """Check the reduction of decorated triangles to generalized monotone
    triangles over one bottom row.

    Verifies that the involution pairs every non-fixed object with a partner
    of opposite sign inside the enumerated set, that fixed points carry
    exactly the specials inferred from equal parents and map bijectively onto
    the generalized monotone triangles with matching sign statistics, and
    that both signed totals agree.
    """
    bottom = tuple(bottom)
    started = time.perf_counter()
    objects = list(enumerate_tn(bottom, limits))
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

    gmt_triangles = list(enumerate_gmt(bottom, limits))
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

    return VerificationReport(
        name="tn-reduction",
        grid=f"bottom row {bottom}",
        checked=len(objects) + 1,
        failures=len(failures),
        status="pass" if not failures else "fail",
        counterexample=failures[0] if failures else None,
        metadata={
            "objects": len(objects),
            "fixed_points": len(fixed),
            "violators": len(objects) - len(fixed),
            "signed_total": str(lhs),
        },
        timing_secs=time.perf_counter() - started,
    )
