"""Triangular integer arrays, their validity conditions, and sign statistics.

A triangle of size n is an integer array (a(i,j)) with 1 <= j <= i <= n,
stored top row first.  :func:`validate_gmt` checks the three conditions
between consecutive rows that define generalized monotone triangles.  The
classes they generalize are its restrictions to a bottom-row shape:
monotone triangles (rows strictly increase, NE/SE diagonals weakly
increase) have a strictly increasing bottom row, decreasing monotone
triangles (diagonals weakly decrease, no integer more than twice in a row
nor once in each of two consecutive rows) a weakly decreasing one.

The sign of a generalized monotone triangle is (-1)**sc, where sc counts
newcomers and sign-changing pairs (:func:`sc_statistic`) by the one
row-level count, :func:`row_sign_statistics`.  Decorated triangles
(:class:`TnObject`) carry a set of marked "special" interior entries and are
signed by specials plus inversions (:attr:`TnObject.weight`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Position = tuple[int, int]


def _is_integer(v) -> bool:
    """Other int subclasses are integers, but bool's True is no integer."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_row(row, i: int) -> None:
    """Raise TypeError at the first entry of ``row`` (row ``i`` of a
    triangle) that is not an integer."""
    for v in row:
        if not _is_integer(v):
            raise TypeError(f"non-integer entry {v!r} in row {i}")


class StreamRows(tuple):
    """Rows, top row first, that a stream built above a bottom row it checked
    with :func:`check_row`: every row above it comes from ``range`` objects
    (plain ints) and row i has i entries by construction."""

    __slots__ = ()


class StreamSpecials(tuple):
    """Special positions that the decorated stream chose in each row i, from
    the boxes of :func:`~monotri.evaluate.third_families` above it: ints
    (i, j) with 1 < j < i, no two adjacent, by construction."""

    __slots__ = ()


class Triangle:
    """Immutable triangular integer array, row i (from the top) has i entries.

    Any argument is checked: row lengths, and entries that are ints other
    than bools.  A stream's :class:`StreamRows` is taken unchecked, since the
    stream checked its bottom row and built the rows above it.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        if type(rows) is StreamRows:
            self.rows = tuple(rows)
            return
        rows = tuple(map(tuple, rows))
        if not rows:
            raise ValueError("a triangle needs at least one row")
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} has {len(row)} entries, expected {i}")
            check_row(row, i)
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def bottom_row(self) -> tuple[int, ...]:
        return self.rows[-1]

    def a(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j), 1 <= j <= i <= n."""
        if not (1 <= j <= i <= len(self.rows)):
            raise IndexError(f"position {(i, j)} outside triangle of size {len(self.rows)}")
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        return isinstance(other, Triangle) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Triangle({[list(r) for r in self.rows]})"

    def pretty(self) -> str:
        """Centered multi-line rendering for terminal output."""
        n = len(self.rows)
        width = max(len(str(v)) for row in self.rows for v in row)
        lines = []
        for i, row in enumerate(self.rows, start=1):
            pad = " " * ((n - i) * (width + 1))
            lines.append(pad + (" " * (width + 2)).join(str(v).rjust(width) for v in row))
        return "\n".join(lines)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a generalized-monotone-triangle check.

    ``condition`` is the first violated condition index (1, 2 or 3) and
    ``position`` the 1-based (i, j) anchor of the violation, scanning
    positions row-major from the top; both are None when the check passes.
    """

    ok: bool
    condition: int | None = None
    position: Position | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SignStatistics:
    """Newcomer and sign-changing-pair counts of a triangle."""

    newcomers: int
    sign_changing_pairs: int

    @property
    def sc(self) -> int:
        return self.newcomers + self.sign_changing_pairs

    @property
    def sign(self) -> int:
        return 1 if self.sc % 2 == 0 else -1


def is_strictly_increasing(row) -> bool:
    """The bottom-row shape of monotone triangles."""
    return all(a < b for a, b in zip(row, row[1:]))


def is_weakly_decreasing(row) -> bool:
    """The bottom-row shape of decreasing monotone triangles."""
    return all(a >= b for a, b in zip(row, row[1:]))


def has_equal_triple(row) -> bool:
    """Three consecutive equal entries: no generalized row fits above them."""
    return any(row[j] == row[j + 1] == row[j + 2] for j in range(len(row) - 2))


def extended_range(a: int, b: int) -> tuple[range, int]:
    """The values and the sign of the extended sum over a..b: a..b with sign
    +1 when a <= b, otherwise b+1..a-1 with sign -1 (empty when b == a - 1)."""
    if b >= a:
        return range(a, b + 1), 1
    return range(b + 1, a), -1


def validate_monotone_triangle(t: Triangle) -> bool:
    """Strict increase along rows, weak increase along NE and SE diagonals:
    the generalized monotone triangles with a strictly increasing bottom row."""
    return is_strictly_increasing(t.bottom_row) and validate_gmt(t).ok


def validate_dmt(t: Triangle) -> bool:
    """Weakly decreasing diagonals, no integer more than twice in a row nor
    once in each of two consecutive rows: the generalized monotone triangles
    with a weakly decreasing bottom row."""
    return is_weakly_decreasing(t.bottom_row) and validate_gmt(t).ok


def validate_gmt(t: Triangle) -> ValidationReport:
    """Check the three generalized-monotone-triangle conditions.

    For each upper-row position (i, j), row-major from the top:

    1. a(i,j) lies weakly between its SW and SE neighbours;
    2. a weakly increasing triple below forces a(i,j) < a(i,j+1);
    3. under a strict descent below, an interlaced entry equal to the larger
       (smaller) neighbour must have an equal left (right) neighbour -- a
       missing neighbour is a violation.
    """
    rows = t.rows
    n = len(rows)
    for i in range(1, n):  # 1-based upper row index
        up, lo = rows[i - 1], rows[i]
        for j in range(1, i + 1):
            v = up[j - 1]
            if not (min(lo[j - 1], lo[j]) <= v <= max(lo[j - 1], lo[j])):
                return ValidationReport(False, 1, (i, j))
            if j + 1 <= i and lo[j - 1] <= lo[j] <= lo[j + 1] and not up[j - 1] < up[j]:
                return ValidationReport(False, 2, (i, j))
            if lo[j - 1] > lo[j]:
                if v == lo[j - 1] and (j == 1 or up[j - 2] != v):
                    return ValidationReport(False, 3, (i, j))
                if v == lo[j] and (j == i or up[j] != v):
                    return ValidationReport(False, 3, (i, j))
    return ValidationReport(True)


def row_sign_statistics(lower, upper) -> tuple[int, int]:
    """(newcomers, sign-changing pairs) of ``upper`` against ``lower`` below.

    A newcomer is an entry strictly between a strictly decreasing pair below:
    lower[j] > upper[j] > lower[j+1].  A sign-changing pair is an equal pair
    (upper[j], upper[j+1]) whose interlaced neighbour lower[j+1] equals it as
    well.  ``upper`` must be one entry shorter than ``lower``.
    """
    newcomers = 0
    for j in range(len(upper)):
        if lower[j] > upper[j] > lower[j + 1]:
            newcomers += 1
    pairs = 0
    for j in range(len(upper) - 1):
        if upper[j] == upper[j + 1] == lower[j + 1]:
            pairs += 1
    return newcomers, pairs


def sc_statistic(t: Triangle) -> SignStatistics:
    """Newcomers and sign-changing pairs, the sums of
    :func:`row_sign_statistics` over each row and the row below it.  Both
    counts are literal and well defined on any triangle."""
    rows = t.rows
    counts = [row_sign_statistics(lower, upper) for upper, lower in zip(rows, rows[1:])]
    return SignStatistics(sum(c for c, _ in counts), sum(p for _, p in counts))


class TnObject:
    """Triangle decorated with a set of special interior positions.

    Special positions (i, j) are ints with 1 < j < i <= n, no two in a row
    horizontally adjacent; all of this is enforced at construction, except
    on the stream's :class:`StreamSpecials`, which are taken as given.
    Full membership in the decorated class (specials equal both parents,
    non-exempt entries bounded by the pair below) is checked separately by
    :func:`validate_tn`.
    """

    __slots__ = ("triangle", "special")

    def __init__(self, triangle, special=()):
        self.triangle = triangle if isinstance(triangle, Triangle) else Triangle(triangle)
        if type(special) is StreamSpecials:
            self.special = frozenset(special)
            return
        spec = frozenset((i, j) for i, j in special)
        n = self.triangle.n
        for i, j in spec:
            if not (_is_integer(i) and _is_integer(j)):
                raise TypeError(f"non-integer special position {(i, j)!r}")
            if not (1 < j < i <= n):
                raise ValueError(f"special position {(i, j)} is not interior")
            if (i, j + 1) in spec:
                raise ValueError(f"adjacent special positions {(i, j)}, {(i, j + 1)}")
        self.special = spec

    @property
    def parent_positions(self) -> frozenset[Position]:
        """Positions exempt from the bounding rules: parents of special entries."""
        out = set()
        for i, j in self.special:
            out.add((i - 1, j - 1))
            out.add((i - 1, j))
        return frozenset(out)

    @property
    def inversions(self) -> int:
        """Non-exempt entries lying strictly between a strict descent below."""
        rows = self.triangle.rows
        exempt = self.parent_positions
        count = 0
        for i in range(1, len(rows)):  # 1-based row index with a row below
            for j in range(1, i + 1):
                if (i, j) in exempt:
                    continue
                if rows[i][j - 1] > rows[i - 1][j - 1] > rows[i][j]:
                    count += 1
        return count

    @property
    def weight(self) -> int:
        """Sign exponent: number of specials plus number of inversions."""
        return len(self.special) + self.inversions

    @property
    def sign(self) -> int:
        return 1 if self.weight % 2 == 0 else -1

    def __eq__(self, other):
        return (
            isinstance(other, TnObject)
            and self.triangle == other.triangle
            and self.special == other.special
        )

    def __hash__(self):
        return hash((self.triangle, self.special))

    def __repr__(self):
        return f"TnObject({[list(r) for r in self.triangle.rows]}, special={sorted(self.special)})"


def validate_tn(o: TnObject) -> bool:
    """Membership check for decorated triangles.

    Requires every special entry to equal both parents, and every entry that
    is not a parent of a special to be weakly bounded by a weakly increasing
    pair below, or strictly between a strictly decreasing pair below.
    """
    rows = o.triangle.rows
    for i, j in o.special:
        v = rows[i - 1][j - 1]
        if rows[i - 2][j - 2] != v or rows[i - 2][j - 1] != v:
            return False
    exempt = o.parent_positions
    for i in range(1, len(rows)):
        for j in range(1, i + 1):
            if (i, j) in exempt:
                continue
            v = rows[i - 1][j - 1]
            lo1, lo2 = rows[i][j - 1], rows[i][j]
            if lo1 <= lo2:
                if not lo1 <= v <= lo2:
                    return False
            else:
                if not lo1 > v > lo2:
                    return False
    return True


def inferred_special_positions(t: Triangle) -> frozenset[Position]:
    """Interior positions whose entry equals both parents."""
    rows = t.rows
    out = set()
    for i in range(3, len(rows) + 1):
        for j in range(2, i):
            v = rows[i - 1][j - 1]
            if rows[i - 2][j - 2] == v == rows[i - 2][j - 1]:
                out.add((i, j))
    return frozenset(out)


# --- JSON serialization -----------------------------------------------------
#
# A triangle is a JSON array of arrays, top row first; a decorated triangle is
# an object with "rows" and a sorted "special" list.  Output is canonical
# (compact separators, keys in sorted order) so serialization round-trips
# bit-exactly.  Both are joined from the texts of their rows, which a stream
# keeps in one RowTexts memo across its lines.


# rows are tuples of ints, which cannot nest into a cycle
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)


class RowTexts(dict):
    """Memo of the compact JSON text of tuples of ints (rows and special
    positions), each encoded on its first lookup.  Tuples that compare equal
    get equal texts because entries are never bools, which Triangle rejects:
    (1,) == (True,), but they encode as [1] and [true]."""

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = _COMPACT.encode(row)
        return text


def triangle_to_json(t: Triangle, texts: RowTexts | None = None) -> str:
    get = (RowTexts() if texts is None else texts).__getitem__
    return "[" + ",".join(map(get, t.rows)) + "]"


def triangle_from_json(text: str) -> Triangle:
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("expected a JSON array of arrays")
    return Triangle(data)


def tn_to_json(o: TnObject, texts: RowTexts | None = None) -> str:
    get = (RowTexts() if texts is None else texts).__getitem__
    return ('{"rows":[' + ",".join(map(get, o.triangle.rows))
            + '],"special":[' + ",".join(map(get, sorted(o.special))) + "]}")


def tn_from_json(text: str) -> TnObject:
    data = json.loads(text)
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError("expected a JSON object with a 'rows' field")
    return TnObject(Triangle(data["rows"]), [tuple(p) for p in data.get("special", [])])
