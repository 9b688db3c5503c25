"""Triangular integer arrays, their validity conditions, and sign statistics.

A triangle of size n is an integer array (a(i,j)) with 1 <= j <= i <= n,
stored top row first.  Three classes of triangles are defined by local
conditions between consecutive rows:

* monotone triangles: rows strictly increase, NE/SE diagonals weakly increase;
* decreasing monotone triangles: diagonals weakly decrease, no integer appears
  more than twice in a row, and no integer appears exactly once in each of two
  consecutive rows;
* generalized monotone triangles: the joint generalization given by the three
  conditions checked in :func:`validate_gmt`.

The sign of a generalized monotone triangle is (-1)**sc where sc counts
newcomers and sign-changing pairs (:func:`sc_statistic`).  Decorated triangles
(:class:`TnObject`) carry a set of marked "special" interior entries and are
signed by specials plus inversions (:attr:`TnObject.weight`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Position = tuple[int, int]


class Triangle:
    """Immutable triangular integer array, row i (from the top) has i entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if not rows:
            raise ValueError("a triangle needs at least one row")
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} has {len(row)} entries, expected {i}")
            for v in row:
                if not isinstance(v, int):
                    raise TypeError(f"non-integer entry {v!r} in row {i}")
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


def validate_monotone_triangle(t: Triangle) -> bool:
    """Strict increase along rows, weak increase along NE and SE diagonals."""
    rows = t.rows
    for row in rows:
        for j in range(len(row) - 1):
            if not row[j] < row[j + 1]:
                return False
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for j in range(len(up)):
            if not (lo[j] <= up[j] <= lo[j + 1]):
                return False
    return True


def validate_dmt(t: Triangle) -> bool:
    """Weakly decreasing diagonals, each integer at most twice per row, and no
    integer occurring exactly once in each of two consecutive rows."""
    rows = t.rows
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for j in range(len(up)):
            if not (lo[j] >= up[j] >= lo[j + 1]):
                return False
    for row in rows:
        for v in set(row):
            if row.count(v) > 2:
                return False
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for v in set(up):
            if up.count(v) == 1 and lo.count(v) == 1:
                return False
    return True


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


def sc_statistic(t: Triangle) -> SignStatistics:
    """Count newcomers and sign-changing pairs.

    A newcomer is an entry strictly between a strictly decreasing pair below:
    a(i+1,j) > a(i,j) > a(i+1,j+1).  A sign-changing pair is an equal pair
    (a(i,j), a(i,j+1)) whose interlaced neighbour below equals it as well.
    Both counts are literal and well defined on any triangle.
    """
    rows = t.rows
    newcomers = 0
    pairs = 0
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for j in range(len(up)):
            if lo[j] > up[j] > lo[j + 1]:
                newcomers += 1
        for j in range(len(up) - 1):
            if up[j] == up[j + 1] == lo[j + 1]:
                pairs += 1
    return SignStatistics(newcomers, pairs)


class TnObject:
    """Triangle decorated with a set of special interior positions.

    Special positions (i, j) satisfy 1 < j < i <= n and no two specials in the
    same row are horizontally adjacent; both are enforced at construction.
    Full membership in the decorated class (specials equal both parents,
    non-exempt entries bounded by the pair below) is checked separately by
    :func:`validate_tn`.
    """

    __slots__ = ("triangle", "special")

    def __init__(self, triangle, special=()):
        self.triangle = triangle if isinstance(triangle, Triangle) else Triangle(triangle)
        spec = frozenset((int(i), int(j)) for i, j in special)
        n = self.triangle.n
        for i, j in spec:
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
# (compact separators, sorted keys) so serialization round-trips bit-exactly.


# rows are tuples of ints, which cannot nest into a cycle
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def triangle_to_json(t: Triangle) -> str:
    return _COMPACT.encode(t.rows)


def triangle_from_json(text: str) -> Triangle:
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("expected a JSON array of arrays")
    return Triangle(data)


def tn_to_json(o: TnObject) -> str:
    payload = {
        "rows": [list(r) for r in o.triangle.rows],
        "special": [list(p) for p in sorted(o.special)],
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def tn_from_json(text: str) -> TnObject:
    data = json.loads(text)
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError("expected a JSON object with a 'rows' field")
    return TnObject(Triangle(data["rows"]), [tuple(p) for p in data.get("special", [])])
