"""Exact evaluation of the monotone-triangle counting polynomial.

For strictly increasing arguments the polynomial counts monotone triangles
with that bottom row; at arbitrary integer points it equals the signed
enumeration of generalized monotone triangles.  Five evaluation routes are
provided and must agree wherever they apply:

* ``operator``      -- the recursive summation operator (:func:`operator_apply`);
* ``operator_alt``  -- the alternative recursive description of the same
                       operator (:func:`operator_apply_alt`);
* ``gmt``           -- signed enumeration over generalized monotone triangles;
* ``third``         -- the inclusion-exclusion expansion into simple sums
                       (:func:`third_extension_eval`);
* ``mt``            -- direct monotone-triangle counting, strictly increasing
                       rows only.

All arithmetic is arbitrary-precision integer; there is no floating point in
any value path.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from itertools import combinations, product
from typing import Callable, Iterator

from .rows import BudgetExceededError, enumerate_mt, signed_gmt_count

METHODS = ("operator", "operator_alt", "gmt", "third", "mt")

# Rows longer than this are rejected up front: evaluation cost grows
# super-exponentially and silently recursing would only hide the problem.
MAX_EVAL_LENGTH = 64

Row = tuple[int, ...]
RowFunction = Callable[[Row], int]


def _extended_range(a: int, b: int) -> tuple[range, int]:
    """The values and the sign of the extended sum over a..b: a..b with sign
    +1 when a <= b, otherwise b+1..a-1 with sign -1 (empty when b == a - 1)."""
    if b >= a:
        return range(a, b + 1), 1
    return range(b + 1, a), -1


def extended_sum(f: Callable[[int], int], a: int, b: int) -> int:
    """Sum of f over a..b, extended to inverted bounds.

    Ordinary sum when a <= b; zero when b == a - 1; the negated sum over
    b+1..a-1 when b + 1 <= a - 1.
    """
    values, sign = _extended_range(a, b)
    return sign * sum(f(v) for v in values)


# The operator walks.  The operator over bounds k applies a function of
# len(k) - 1 arguments to a signed family of rows; each walk unrolls one
# recursion for the operator into an explicit stack and yields those
# (row, sign) terms, in the order the recursion calls the function.  A stack
# frame holds the bounds still to expand, the value choices of the row
# positions already fixed (a range for an extended sum, a 1-tuple for a
# pinned value) and the sign.  At a single bound the fixed positions make up
# the whole row and their product lists the terms.  A summed branch over an
# empty range has no terms and is dropped.


def _op_terms(k: Row) -> Iterator[tuple[Row, int]]:
    stack = [(k, (), 1)]
    while stack:
        k, tail, sign = stack.pop()
        if len(k) == 1:
            for row in product(*tail):
                yield row, sign
            continue
        second, last = k[-2], k[-1]
        # The pinned branch goes below the summed one, which is walked first.
        stack.append((k[:-2] + (second - 1,), ((second,),) + tail, sign))
        values, s = _extended_range(second + 1, last)
        if values:
            stack.append((k[:-1], (values,) + tail, sign * s))


def _op_alt_terms(k: Row) -> Iterator[tuple[Row, int]]:
    stack = [(k, (), 1)]
    while stack:
        k, tail, sign = stack.pop()
        if len(k) == 1:
            for row in product(*tail):
                yield row, sign
            continue
        if len(k) == 2:
            values, s = _extended_range(k[0], k[1])
            for row in product(values, *tail):
                yield row, sign * s
            continue
        second, last = k[-2], k[-1]
        # The doubled branch goes below the summed one, which is walked first.
        stack.append((k[:-2], ((second,), (second,)) + tail, -sign))
        values, s = _extended_range(second, last)
        if values:
            stack.append((k[:-1], (values,) + tail, sign * s))


def operator_apply(k, fn: RowFunction) -> int:
    """Apply the summation operator with bounds ``k`` to a function of
    len(k) - 1 integer arguments (passed as one tuple).

    Defined recursively: the operator over (k_1..k_n) splits into the operator
    over (k_1..k_{n-1}) of the extended sum of the last argument over
    (k_{n-1}+1 .. k_n), plus the operator over (k_1..k_{n-2}, k_{n-1}-1) with
    the last argument pinned to k_{n-1}.
    """
    k = tuple(k)
    if len(k) < 2:
        raise ValueError("the operator needs at least two bounds")
    return sum(sign * fn(row) for row, sign in _op_terms(k))


def operator_apply_alt(k, fn: RowFunction) -> int:
    """Alternative recursion for the same operator: the extended sum of the
    last argument over (k_{n-1} .. k_n) under the shorter operator, minus the
    operator over (k_1..k_{n-2}) with the last two arguments pinned to
    k_{n-1}.  Agrees with :func:`operator_apply` on every input."""
    k = tuple(k)
    if len(k) < 3:
        raise ValueError("the alternative recursion needs at least three bounds")
    return sum(sign * fn(row) for row, sign in _op_alt_terms(k))


def nonadjacent_index_sets(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Subsets of {lo..hi} with no two consecutive elements, smallest size
    first, lexicographic within each size.  Yields just () when hi < lo."""
    idxs = range(lo, hi + 1)
    for p in range(len(idxs) + 1):
        for combo in combinations(idxs, p):
            if all(combo[t + 1] - combo[t] >= 2 for t in range(len(combo) - 1)):
                yield combo


_CACHE_VERSION = 1
_CACHE_HEADER = re.compile(r"monotri-cache v(\d+) normalize=([01]) sha256=([0-9a-f]{64})")


class EvalCache:
    """Memo store for polynomial evaluations, keyed by (length, row).

    Values are translation invariant (shifting every argument by a constant
    shifts every triangle entry the same way), so keys are normalized by
    translating the row so its first entry is 0.  Set ``normalize=False`` to
    key on the raw row instead.  Hit and miss counters are kept for
    diagnostics.

    A saved cache file starts with the header line
    ``monotri-cache v1 normalize=<0|1> sha256=<hex>``, where the digest covers
    every record line after it; :meth:`load` rejects a file whose header is
    missing or malformed, whose digest does not match, or which holds a key
    that is not translation-normalized where keys are normalized.
    """

    def __init__(self, normalize: bool = True):
        self.normalize = normalize
        self.hits = 0
        self.misses = 0
        self._store: dict[tuple[int, Row], int] = {}

    def _key(self, row: Row) -> tuple[int, Row]:
        if self.normalize and row[0]:
            base = row[0]
            return len(row), tuple([v - base for v in row])
        return len(row), row

    def get(self, row: Row) -> int | None:
        value = self._store.get(self._key(row))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, row: Row, value: int) -> None:
        self._store[self._key(row)] = value

    def __len__(self) -> int:
        return len(self._store)

    def save(self, path) -> None:
        """Write the header line, then one record per line: length,
        comma-separated row, decimal value.  The file is written beside
        ``path`` and renamed over it, so a reader never sees it half written."""
        body = "".join(f"{n}\t{','.join(str(v) for v in row)}\t{value}\n"
                       for (n, row), value in sorted(self._store.items()))
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
        header = f"monotri-cache v{_CACHE_VERSION} normalize={int(self.normalize)} sha256={digest}\n"
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".monotri-cache-")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(header + body)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load(self, path) -> int:
        """Merge records from ``path``; returns the number of records read.
        Raises ``ValueError`` and merges nothing if the file fails a check."""
        with open(path, "r", encoding="ascii", newline="") as fh:
            header, _, body = fh.read().partition("\n")
        match = _CACHE_HEADER.fullmatch(header)
        if match is None:
            raise ValueError(f"cache file {path}: missing or malformed header {header[:80]!r}")
        if int(match[1]) != _CACHE_VERSION:
            raise ValueError(f"cache file {path}: unsupported format version {match[1]}")
        if hashlib.sha256(body.encode("ascii")).hexdigest() != match[3]:
            raise ValueError(f"cache file {path}: checksum mismatch")
        normalized = self.normalize or match[2] == "1"
        records = {}
        for line in body.splitlines():
            try:
                n_text, row_text, value_text = line.split("\t")
                key = int(n_text), tuple(int(v) for v in row_text.split(","))
                value = int(value_text)
            except ValueError:
                raise ValueError(f"corrupt cache record: {line!r}") from None
            if len(key[1]) != key[0]:
                raise ValueError(f"corrupt cache record: {line!r}")
            if normalized and key[1][0] != 0:
                raise ValueError(f"cache record not translation-normalized: {line!r}")
            records[key] = value
        self._store.update(records)
        return len(records)


def _check_row(row) -> Row:
    row = tuple(row)
    if not row:
        raise ValueError("the argument row must not be empty")
    for v in row:
        if not isinstance(v, int):
            raise TypeError(f"non-integer argument {v!r}")
    if len(row) > MAX_EVAL_LENGTH:
        raise BudgetExceededError(f"row length {len(row)} exceeds the evaluation bound {MAX_EVAL_LENGTH}")
    return row


def _alpha_operator(row: Row, cache: EvalCache, alt: bool) -> int:
    def ev(r: Row) -> int:
        if len(r) == 1:
            return 1
        cached = cache.get(r)
        if cached is not None:
            return cached
        terms = _op_alt_terms(r) if alt and len(r) >= 3 else _op_terms(r)
        value = 0
        for term, sign in terms:
            value += sign * ev(term)
        cache.put(r, value)
        return value

    return ev(row)


def _alpha_third(row: Row, cache: EvalCache) -> int:
    def ev(r: Row) -> int:
        n = len(r)
        if n == 1:
            return 1
        cached = cache.get(r)
        if cached is not None:
            return cached
        total = 0
        for chosen in nonadjacent_index_sets(2, n - 1):
            # Free position j sums from r[j] to r[j+1]; each chosen index i
            # pins positions i-1 and i to the single value r[i-1] (1-based).
            bounds = [(r[j], r[j + 1]) for j in range(n - 1)]
            for i in chosen:
                bounds[i - 2] = (r[i - 1], r[i - 1])
                bounds[i - 1] = (r[i - 1], r[i - 1])

            def nested(j: int, prefix: Row) -> int:
                if j == n - 1:
                    return ev(prefix)
                a, b = bounds[j]
                return extended_sum(lambda v: nested(j + 1, prefix + (v,)), a, b)

            term = nested(0, ())
            total += term if len(chosen) % 2 == 0 else -term
        cache.put(r, total)
        return total

    return ev(row)


def alpha(row, method: str = "operator", cache: EvalCache | None = None) -> int:
    """Evaluate the counting polynomial at an integer row by the given method.

    All methods agree; ``mt`` requires a strictly increasing row.  ``cache``
    memoizes sub-evaluations for the recursive methods and may be shared
    across calls; results are identical with or without one.
    """
    row = _check_row(row)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "mt":
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            raise ValueError("method 'mt' requires a strictly increasing row")
        return sum(1 for _ in enumerate_mt(row))
    if method == "gmt":
        return signed_gmt_count(row)
    if cache is None:
        cache = EvalCache()
    if method == "third":
        return _alpha_third(row, cache)
    return _alpha_operator(row, cache, alt=(method == "operator_alt"))


def third_extension_eval(row, cache: EvalCache | None = None) -> int:
    """Evaluate via the inclusion-exclusion expansion into simple sums.

    Sums over families of non-adjacent indices 2 <= i_1 < ... < i_p <= n-1
    with sign (-1)**p; each chosen index pins two adjacent positions of the
    inner row to a single value, the remaining positions range over extended
    sums between consecutive arguments.
    """
    row = _check_row(row)
    return _alpha_third(row, cache if cache is not None else EvalCache())


def applicable_methods(row) -> tuple[str, ...]:
    """Methods valid for the given row: all five when strictly increasing,
    otherwise everything except ``mt``."""
    row = tuple(row)
    if all(row[j] < row[j + 1] for j in range(len(row) - 1)):
        return METHODS
    return tuple(m for m in METHODS if m != "mt")
