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

The operator, operator_alt and third routes write the polynomial at a row
as a signed sum of its values at shorter rows, which they memoize in an
:class:`EvalCache`.  One kernel, :func:`_chain`, walks all three without
recursing: the operator routes expand a row into chain states, the third
route into boxes, products of ranges.

All arithmetic is arbitrary-precision integer; there is no floating point in
any value path.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, product, repeat
from math import prod
from typing import Callable, Iterator

from .rows import BudgetExceededError, enumerate_mt, signed_gmt_count
from .triangles import is_strictly_increasing

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


def _pinned_keys(values: range, tail) -> Iterator[Row]:
    """Memo keys of the rows (x,) + tail, x over ``values``, translated to
    start at 0, built in C."""
    a, b = values.start, values.stop
    return zip(repeat(0, b - a), *[range(v - a, v - b, -1) for v in tail])


# The operator chain.  The operator over bounds k, applied to a function of
# len(k) - 1 arguments, unrolls into chain states.  A state (j, s) is a tuple
# s as long as k whose first j entries are bounds still to expand and whose
# other entries are arguments already fixed; its value is the operator over
# s[:j] applied to the function with its last len(k) - j arguments fixed to
# s[j:], so (len(k), k) is the whole operator.  Expanding the last bound gives
# the children of a state, as the recursion of operator_apply or of
# operator_apply_alt defines them:
#
# * operator: the summed branch sets position j - 1 to each x of the extended
#   range s[j-2]+1 .. s[j-1], at j - 1, with the range's sign; the pinned
#   branch sets positions j - 2, j - 1 to (s[j-2] - 1, s[j-2]), at j - 1.
# * operator_alt: the summed branch covers s[j-2] .. s[j-1], at j - 1; for
#   j >= 3 the doubled branch sets both positions to s[j-2], at j - 2, with
#   its sign negated.
#
# A child at j == 1 is a leaf, the function at its s[1:].  A state's value
# depends on nothing else, so each state is expanded once and its value kept
# in a memo, one dict per j.  With a function at the leaves that memo is local
# to the walk; with an EvalCache the leaves are the cache's rows, so the memo
# lives on the cache and later rows reuse the states that earlier rows
# expanded.


def _chain(k: Row, route: str, fn: RowFunction | None = None, cache: EvalCache | None = None) -> int:
    """The operator over bounds ``k`` by the recursion of operator_apply, or
    of operator_apply_alt when ``route`` is ``operator_alt``, walked over its
    chain states with ``fn`` at the leaves.  Given ``cache`` instead of
    ``fn``, it is the polynomial at ``k`` by ``route``: the leaves are its
    values at shorter rows, looked up in ``cache`` and on a miss computed the
    same way and stored there.  The states of a row then start at 0 like its
    key, and so do their children, which keep the first entry; that is exact
    because a translated state has the translated children.  Their values
    are kept in ``cache``'s state dicts, so every call on that cache shares
    them; without a cache they are kept for this call only.  On the third
    route a missed row expands into the boxes of its inclusion-exclusion
    expansion instead (:func:`third_families`), each a group of row keys in
    product order, except that a box of rows of length 1 adds its signed size
    without lookups; that is exact because the boxes of a translated row are
    the translated boxes.

    An explicit stack replaces the recursion.  A frame is the dict and key
    its value goes to, its running total, its remaining groups of children,
    and the keys still to look up in the current group with that group's
    sign, dict and j.  A miss suspends the group until the missed key is
    evaluated.  The whole operator is the one child of a root frame.  Only
    lookups of rows count as cache hits and misses: each is a leaf of a state
    or a row of a box the walk expands.  A row of length 1 is worth 1 and is
    not looked up.
    """
    alt, third = route == "operator_alt", route == "third"
    memos = [{} for _ in k] if cache is None else cache._states
    store = {} if cache is None else cache._store
    lookups, misses, stack = 1, 0, []
    target = key = None
    total, groups, sign = 0, iter(()), 1
    keys, d, j = iter([k if cache is None else cache._key(k)]), store, len(k)
    get = d.get
    try:
        while True:
            for child in keys:
                value = get(child)
                if value is None:
                    misses += d is store
                    stack.append((target, key, total, groups, keys, sign, d, j))
                    target, key, total, groups = d, child, 0, []
                    if third:
                        for _, ranges, sign in third_families(child):
                            if len(ranges) == 1:
                                total += sign * len(ranges[0])
                            else:
                                lookups += prod(map(len, ranges))
                                groups.append((sign, store, _box_keys(ranges), len(ranges)))
                        groups, keys = iter(groups), iter(())
                        break
                    # The summed branch, then the pinned or doubled one.
                    second, last = child[j - 2], child[j - 1]
                    tail = child[j:]
                    values, sign = _extended_range(second if alt else second + 1, last)
                    if j > 2:
                        if values:
                            head = child[:j - 1]
                            groups.append((sign, memos[j - 1], iter([head + (x,) + tail for x in values]), j - 1))
                    elif cache is None:
                        total += sign * sum([fn((x,) + tail) for x in values])
                    elif not tail:
                        total += sign * len(values)
                    elif values:
                        lookups += len(values)
                        groups.append((sign, store, _pinned_keys(values, tail), len(tail) + 1))
                    if not alt or j > 2:
                        # One child, looked up at once: only a miss makes it a group.
                        if alt:
                            i, sign, other = j - 2, -1, child[:j - 2] + (second, second) + tail
                        else:
                            i, sign, other = j - 1, 1, child[:j - 2] + (second - 1, second) + tail
                        if i > 1:
                            dest = memos[i]
                        elif cache is None:
                            dest, total = None, total + sign * fn(other[1:])
                        elif len(other) == 2:
                            dest, total = None, total + sign
                        else:
                            dest, i, lookups = store, len(other) - 1, lookups + 1
                            other = tuple([v - other[1] for v in other[1:]])
                        if dest is not None:
                            value = dest.get(other)
                            if value is None:
                                groups.append((sign, dest, iter((other,)), i))
                            else:
                                total += sign * value
                    groups, keys = iter(groups), iter(())
                    break
                total += sign * value
            else:
                group = next(groups, None)
                if group is not None:
                    sign, d, keys, j = group
                    get = d.get
                    continue
                if not stack:
                    return total
                target[key] = value = total
                target, key, total, groups, keys, sign, d, j = stack.pop()
                get = d.get
                total += sign * value
    finally:
        if cache is not None:
            cache.hits += lookups - misses
            cache.misses += misses


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
    return _chain(k, "operator", fn)


def operator_apply_alt(k, fn: RowFunction) -> int:
    """Alternative recursion for the same operator: the extended sum of the
    last argument over (k_{n-1} .. k_n) under the shorter operator, minus the
    operator over (k_1..k_{n-2}) with the last two arguments pinned to
    k_{n-1}.  Agrees with :func:`operator_apply` on every input."""
    k = tuple(k)
    if len(k) < 3:
        raise ValueError("the alternative recursion needs at least three bounds")
    return _chain(k, "operator_alt", fn)


# The routes that fill a memo; gmt and mt keep none.
_MEMO_ROUTES = ("operator", "operator_alt", "third")

_CACHE_VERSION = 2
_CACHE_HEADER = re.compile(r"monotri-cache v(\d+) (.*)")
_CACHE_FIELDS = re.compile(r"route=(\w+) normalize=([01]) sha256=([0-9a-f]{64})")


class EvalCache:
    """Memo store for polynomial evaluations, keyed by the argument row.

    Values are translation invariant (shifting every argument by a constant
    shifts every triangle entry the same way), so keys are normalized by
    translating the row so its first entry is 0.  Hit and miss counters are
    kept for diagnostics.

    The cache also holds the values of the chain states that the operator
    routes expand (see :func:`_chain`), one dict per j, keyed like rows.
    They live as long as the cache, so later calls reuse them, and they are
    never saved or loaded: a cache file holds rows only.

    ``route`` names the evaluation method whose values the cache holds.  A
    saved cache file starts with the header line
    ``monotri-cache v2 route=<method> normalize=1 sha256=<hex>``, where the
    digest covers every record line after it; :meth:`load` rejects a file of
    another format version, a file whose header is missing or malformed,
    whose digest does not match, which holds a key that is not
    translation-normalized (whatever its header says), or which was written
    by another memoized route (operator, operator_alt, third).  The gmt and mt
    routes keep no memo, so their files and caches go with any route.
    """

    def __init__(self, route: str = "operator"):
        if route not in METHODS:
            raise ValueError(f"unknown route {route!r}, expected one of {METHODS}")
        self.route = route
        self.hits = 0
        self.misses = 0
        self._store: dict[Row, int] = {}
        self._states: defaultdict[int, dict[Row, int]] = defaultdict(dict)

    def _key(self, row: Row) -> Row:
        if row[0]:
            base = row[0]
            return tuple([v - base for v in row])
        return row

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
                  f"normalize=1 sha256={digest}\n")
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
            if row[0] != 0:
                raise ValueError(f"cache record not translation-normalized: {line!r}")
            records[row] = value
        self._store.update(records)
        return len(records)


def _check_row(row) -> Row:
    row = tuple(row)
    if not row:
        raise ValueError("the argument row must not be empty")
    for v in row:
        # bool is an int subclass, but True is no integer argument
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"non-integer argument {v!r}")
    if len(row) > MAX_EVAL_LENGTH:
        raise BudgetExceededError(f"row length {len(row)} exceeds the evaluation bound {MAX_EVAL_LENGTH}")
    return row


@lru_cache(maxsize=None)
def _third_families(n: int) -> tuple[tuple[tuple[int, ...], int, tuple[int | None, ...]], ...]:
    """(chosen, (-1)**p, sources) of each index set 2 <= i_1 < ... < i_p <= n-1
    with no two consecutive, smallest p first and lexicographic within each p.
    sources[j] is None where inner position j is free, and otherwise the
    argument it is pinned to: chosen index i pins inner positions i-1 and i to
    the argument k_i (1-based)."""
    families = []
    indices = range(2, n)
    for p in range(len(indices) + 1):
        for chosen in combinations(indices, p):
            if any(b - a < 2 for a, b in zip(chosen, chosen[1:])):
                continue
            sources = [None] * (n - 1)
            for i in chosen:
                sources[i - 2] = sources[i - 1] = i - 1
            families.append((chosen, (-1) ** p, tuple(sources)))
    return tuple(families)


def third_families(r: Row) -> Iterator[tuple[tuple[int, ...], tuple[range, ...], int]]:
    """(chosen indices, ranges, sign) of each family of the inclusion-exclusion
    expansion at r that has rows: free inner position j ranges over the
    extended sum from r[j] to r[j+1], and a pinned position holds one value.
    The sign is (-1)**len(chosen), times -1 for each free inverted range.  For
    a decorated row above r, the chosen indices are the specials of r, the
    pinned positions their parents, and the entries in inverted ranges its
    inversions, so the sign is (-1)**(specials + inversions)."""
    free = [_extended_range(r[j], r[j + 1]) for j in range(len(r) - 1)]
    for chosen, sign, sources in _third_families(len(r)):
        ranges = []
        for (values, s), source in zip(free, sources):
            if source is None:
                if not values:
                    break
                sign *= s
            else:
                values = range(r[source], r[source] + 1)
            ranges.append(values)
        else:
            yield chosen, tuple(ranges), sign


def _box_keys(ranges: tuple[range, ...]) -> Iterator[Row]:
    """Memo keys of the rows of one box, in product order, translated to
    start at 0, built in C: the pinned keys when every position after the
    first is pinned, and otherwise one product of shifted ranges per value
    of the first position."""
    first, rest = ranges[0], ranges[1:]
    if all(len(r) == 1 for r in rest):
        return _pinned_keys(first, [r.start for r in rest])
    return chain.from_iterable(
        product((0,), *[range(r.start - v, r.stop - v) for r in rest])
        for v in first)


def alpha(row, method: str = "operator", cache: EvalCache | None = None) -> int:
    """Evaluate the counting polynomial at an integer row by the given method.

    All methods agree; ``mt`` requires a strictly increasing row.  ``cache``
    memoizes sub-evaluations for the recursive methods and may be shared
    across calls of one method; results are identical with or without one.
    An empty cache, one without rows or states, takes ``method`` as its
    route; a cache that holds values of another route raises ``ValueError``.
    """
    row = _check_row(row)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "mt":
        if not is_strictly_increasing(row):
            raise ValueError("method 'mt' requires a strictly increasing row")
        return sum(1 for _ in enumerate_mt(row))
    if method == "gmt":
        return signed_gmt_count(row)
    if cache is None:
        cache = EvalCache()
    elif cache.route != method and (len(cache) or any(cache._states.values())):
        raise ValueError(f"the cache holds values of route {cache.route!r}, not {method!r}")
    cache.route = method
    if len(row) == 1:
        return 1
    return _chain(row, method, cache=cache)


def applicable_methods(row) -> tuple[str, ...]:
    """Methods valid for the given row: all five when strictly increasing,
    otherwise everything except ``mt``."""
    if is_strictly_increasing(tuple(row)):
        return METHODS
    return tuple(m for m in METHODS if m != "mt")
