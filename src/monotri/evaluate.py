"""Exact evaluation of the monotone-triangle counting polynomial.

For strictly increasing arguments the polynomial counts monotone triangles
with that bottom row; at arbitrary integer points it equals the signed
enumeration of generalized monotone triangles.  Five evaluation routes are
provided and must agree wherever they apply:

* ``operator``      -- the recursive summation operator (:func:`operator_apply`);
* ``operator_alt``  -- the alternative recursive description of the same
                       operator (:func:`operator_apply_alt`);
* ``gmt``           -- signed enumeration over generalized monotone triangles;
* ``third``         -- the inclusion-exclusion expansion into simple sums;
* ``mt``            -- direct monotone-triangle counting, strictly increasing
                       rows only.

The operator, operator_alt and third routes each write the polynomial at a
row as a signed sum of its values at shorter rows, grouped into boxes
(products of ranges); one memoized evaluator runs all three over their boxes.

All arithmetic is arbitrary-precision integer; there is no floating point in
any value path.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from functools import lru_cache, partial
from itertools import chain, combinations, product
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
# len(k) - 1 arguments to a signed family of rows.  One walk unrolls either
# recursion for the operator into an explicit stack and yields that family as
# signed boxes, in the order the recursion reaches them: a box is a tuple of
# ranges, one per row position, whose product lists its rows in the order the
# recursion calls the function on them.  A stack frame holds the bounds still
# to expand; the ranges of the row positions already fixed (the values of an
# extended sum, or the single value a position is pinned to); the sign; and
# the number of rows in the box.  At a single bound the fixed positions make
# up the whole box.  A summed branch over an empty range has no rows and is
# dropped.

Box = tuple[tuple[range, ...], int, int]


def _op_boxes(k: Row, alt: bool = False) -> Iterator[Box]:
    """(ranges, sign, size) boxes of the operator over bounds k, by the
    recursion of :func:`operator_apply`, or of :func:`operator_apply_alt`
    when ``alt`` is set."""
    stack = [(k, (), 1, 1)]
    while stack:
        k, tail, sign, size = stack.pop()
        if len(k) == 1:
            yield tail, sign, size
            continue
        second, last = k[-2], k[-1]
        pin = range(second, second + 1)
        if not alt:
            # The pinned branch goes below the summed one, which is walked first.
            stack.append((k[:-2] + (second - 1,), (pin,) + tail, sign, size))
            values, s = _extended_range(second + 1, last)
        elif len(k) == 2:
            values, s = _extended_range(second, last)
            if values:
                yield (values,) + tail, sign * s, size * len(values)
            continue
        else:
            # The doubled branch goes below the summed one, which is walked first.
            stack.append((k[:-2], (pin, pin) + tail, -sign, size))
            values, s = _extended_range(second, last)
        if values:
            stack.append((k[:-1], (values,) + tail, sign * s, size * len(values)))


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
    return sum(sign * sum(map(fn, product(*tail))) for tail, sign, _ in _op_boxes(k))


def operator_apply_alt(k, fn: RowFunction) -> int:
    """Alternative recursion for the same operator: the extended sum of the
    last argument over (k_{n-1} .. k_n) under the shorter operator, minus the
    operator over (k_1..k_{n-2}) with the last two arguments pinned to
    k_{n-1}.  Agrees with :func:`operator_apply` on every input."""
    k = tuple(k)
    if len(k) < 3:
        raise ValueError("the alternative recursion needs at least three bounds")
    return sum(sign * sum(map(fn, product(*tail))) for tail, sign, _ in _op_boxes(k, alt=True))


def nonadjacent_index_sets(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Subsets of {lo..hi} with no two consecutive elements, smallest size
    first, lexicographic within each size.  Yields just () when hi < lo."""
    idxs = range(lo, hi + 1)
    for p in range(len(idxs) + 1):
        for combo in combinations(idxs, p):
            if all(combo[t + 1] - combo[t] >= 2 for t in range(len(combo) - 1)):
                yield combo


# The routes that fill a memo; gmt and mt keep none.
_MEMO_ROUTES = ("operator", "operator_alt", "third")

_CACHE_VERSION = 2
_CACHE_HEADER = re.compile(r"monotri-cache v(\d+) (.*)")
_CACHE_FIELDS = re.compile(r"route=(\w+) normalize=([01]) sha256=([0-9a-f]{64})")


class EvalCache:
    """Memo store for polynomial evaluations, keyed by the argument row.

    Values are translation invariant (shifting every argument by a constant
    shifts every triangle entry the same way), so keys are normalized by
    translating the row so its first entry is 0.  Set ``normalize=False`` to
    key on the raw row instead.  Hit and miss counters are kept for
    diagnostics.

    ``route`` names the evaluation method whose values the cache holds.  A
    saved cache file starts with the header line
    ``monotri-cache v2 route=<method> normalize=<0|1> sha256=<hex>``, where
    the digest covers every record line after it; :meth:`load` rejects a file
    of another format version, a file whose header is missing or malformed,
    whose digest does not match, which holds a key that is not
    translation-normalized where keys are normalized, or which was written by
    another memoized route (operator, operator_alt, third).  The gmt and mt
    routes keep no memo, so their files and caches go with any route.
    """

    def __init__(self, normalize: bool = True, route: str = "operator"):
        if route not in METHODS:
            raise ValueError(f"unknown route {route!r}, expected one of {METHODS}")
        self.normalize = normalize
        self.route = route
        self.hits = 0
        self.misses = 0
        self._store: dict[Row, int] = {}

    def _key(self, row: Row) -> Row:
        if self.normalize and row[0]:
            base = row[0]
            return tuple([v - base for v in row])
        return row

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
        records = sorted(self._store.items(), key=lambda record: (len(record[0]), record[0]))
        body = "".join(f"{len(row)}\t{','.join(str(v) for v in row)}\t{value}\n"
                       for row, value in records)
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
        header = (f"monotri-cache v{_CACHE_VERSION} route={self.route} "
                  f"normalize={int(self.normalize)} sha256={digest}\n")
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
        match = _CACHE_FIELDS.fullmatch(match[2])
        if match is None or match[1] not in METHODS:
            raise ValueError(f"cache file {path}: missing or malformed header {header[:80]!r}")
        route = match[1]
        if route != self.route and route in _MEMO_ROUTES and self.route in _MEMO_ROUTES:
            raise ValueError(f"cache file {path} holds values of route {route!r}, not {self.route!r}")
        if hashlib.sha256(body.encode("ascii")).hexdigest() != match[3]:
            raise ValueError(f"cache file {path}: checksum mismatch")
        normalized = self.normalize or match[2] == "1"
        records = {}
        for line in body.splitlines():
            try:
                n_text, row_text, value_text = line.split("\t")
                n, row = int(n_text), tuple(int(v) for v in row_text.split(","))
                value = int(value_text)
            except ValueError:
                raise ValueError(f"corrupt cache record: {line!r}") from None
            if len(row) != n:
                raise ValueError(f"corrupt cache record: {line!r}")
            if normalized and row[0] != 0:
                raise ValueError(f"cache record not translation-normalized: {line!r}")
            records[row] = value
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


@lru_cache(maxsize=None)
def _third_families(n: int) -> tuple[tuple[int, tuple[int | None, ...]], ...]:
    """The families of non-adjacent indices 2 <= i_1 < ... < i_p <= n-1 of
    the inclusion-exclusion expansion at rows of length n, each as its sign
    (-1)**p and, for every inner row position, None where the position is
    free and otherwise the index of the argument it is pinned to: each chosen
    index i pins inner positions i-1 and i to the argument k_i (1-based)."""
    families = []
    for chosen in nonadjacent_index_sets(2, n - 1):
        sources = [None] * (n - 1)
        for i in chosen:
            sources[i - 2] = sources[i - 1] = i - 1
        families.append(((-1) ** len(chosen), tuple(sources)))
    return tuple(families)


def _third_boxes(r: Row) -> Iterator[Box]:
    """(ranges, sign, size) boxes of the inclusion-exclusion expansion at r,
    one per family of non-adjacent indices: free position j ranges over the
    extended sum from r[j] to r[j+1] and a pinned position holds one value."""
    free = [_extended_range(r[j], r[j + 1]) for j in range(len(r) - 1)]
    for sign, sources in _third_families(len(r)):
        tail, size = [], 1
        for (values, s), source in zip(free, sources):
            if source is None:
                sign *= s
            else:
                values = range(r[source], r[source] + 1)
            tail.append(values)
            size *= len(values)
        if size:
            yield tuple(tail), sign, size


# Boxes of at least this many rows build their translation-normalized memo
# keys in C, one product of shifted ranges per value of the first position;
# smaller boxes build them row by row, which costs less than setting up the
# shifted ranges.  Measured with CPython 3.11 on the operator rows of the
# alpha_mix benchmark workload: any cutover from 4 to 64 gives the same time
# within 5%; building every box row by row makes those rows 14% slower and
# the row 0,1000,2000 3.3x slower, and building every box in C makes those
# rows 27% slower.
_WIDE_BOX = 12


def _box_keys(tail: tuple[range, ...], size: int, normalize: bool) -> Iterator[Row]:
    """Memo keys of the rows of one box, in product order."""
    if not normalize:
        return product(*tail)
    if size < _WIDE_BOX:
        return iter([tuple([v - row[0] for v in row]) if row[0] else row
                     for row in product(*tail)])
    first, rest = tail[0], tail[1:]
    return chain.from_iterable(
        product((0,), *[range(r.start - v, r.stop - v) for r in rest])
        for v in first)


def _memo_eval(row: Row, cache: EvalCache, boxes_of: Callable[[Row], Iterator[Box]]) -> int:
    """The polynomial at ``row`` as the signed sum, over the boxes
    ``boxes_of`` gives for it, of its values at the rows of each box; those
    values are memoized in ``cache`` and computed the same way on a miss.

    An explicit stack replaces the recursion and makes the same memo lookups
    in the same order: every row of a box is looked up in product order, a
    miss suspends the box until the missed row is evaluated, and a box of
    rows of length 1 (each worth 1) adds its signed size without lookups.
    Rows are evaluated at their keys, which is exact because the boxes of a
    translated row are the translated boxes.
    """
    if len(row) == 1:
        return 1
    store = cache._store
    key = cache._key(row)
    value = store.get(key)
    if value is not None:
        cache.hits += 1
        return value
    normalize = cache.normalize
    get = store.get
    hits, misses = 0, 1
    try:
        # A frame is the key under evaluation, its remaining boxes, its
        # running total, and the keys still to look up in the current box
        # with that box's sign.  ``keys`` must be an iterator: a suspended
        # box resumes after the missed key, it does not start over.
        stack = []
        boxes, total, keys, sign = boxes_of(key), 0, iter(()), 0
        while True:
            for k in keys:
                value = get(k)
                if value is None:
                    misses += 1
                    stack.append((key, boxes, total, keys, sign))
                    key, boxes, total, keys, sign = k, boxes_of(k), 0, iter(()), 0
                    break
                hits += 1
                total += sign * value
            else:
                box = next(boxes, None)
                if box is not None:
                    tail, sign, size = box
                    if len(tail) == 1:
                        total += sign * size
                    else:
                        keys = _box_keys(tail, size, normalize)
                    continue
                store[key] = total
                if not stack:
                    return total
                value = total
                key, boxes, total, keys, sign = stack.pop()
                total += sign * value
    finally:
        cache.hits += hits
        cache.misses += misses


def alpha(row, method: str = "operator", cache: EvalCache | None = None) -> int:
    """Evaluate the counting polynomial at an integer row by the given method.

    All methods agree; ``mt`` requires a strictly increasing row.  ``cache``
    memoizes sub-evaluations for the recursive methods and may be shared
    across calls of one method; results are identical with or without one.
    An empty cache takes ``method`` as its route; a cache that holds values
    of another route raises ``ValueError``.
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
    elif len(cache) and cache.route != method:
        raise ValueError(f"the cache holds values of route {cache.route!r}, not {method!r}")
    cache.route = method
    if method == "third":
        return _memo_eval(row, cache, _third_boxes)
    return _memo_eval(row, cache, partial(_op_boxes, alt=method == "operator_alt"))


def applicable_methods(row) -> tuple[str, ...]:
    """Methods valid for the given row: all five when strictly increasing,
    otherwise everything except ``mt``."""
    row = tuple(row)
    if all(row[j] < row[j + 1] for j in range(len(row) - 1)):
        return METHODS
    return tuple(m for m in METHODS if m != "mt")
