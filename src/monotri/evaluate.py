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
* ``mt``            -- strictly increasing rows only: the walk of ``enumerate mt
                       --count`` under the default budgets, building no triangle.

The operator, operator_alt and third routes write the polynomial at a row
as a signed sum of its values at shorter rows, which they memoize in an
:class:`EvalCache`.  One kernel, :func:`_chain`, walks the two operator
routes without recursing; :func:`_third` recurses over the third route's
boxes, products of ranges, at most one level per entry.

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
from typing import Callable, Iterator

from .rows import BudgetExceededError, count_triangles, enumerate_mt, signed_gmt_count  # noqa: F401 bench/tracing.py patches enumerate_mt here
from .triangles import extended_range, has_equal_triple, is_strictly_increasing

METHODS = ("operator", "operator_alt", "gmt", "third", "mt")

# Rows longer than this are rejected up front: the bound caps the evaluation
# cost, which grows super-exponentially, and the depth of the third route.
MAX_EVAL_LENGTH = 64

Row = tuple[int, ...]
RowFunction = Callable[[Row], int]


def extended_sum(f: Callable[[int], int], a: int, b: int) -> int:
    """Sum of f over a..b, extended to inverted bounds.

    Ordinary sum when a <= b; zero when b == a - 1; the negated sum over
    b+1..a-1 when b + 1 <= a - 1.
    """
    values, sign = extended_range(a, b)
    return sign * sum(f(v) for v in values)


def _pinned_keys(values: range, tail) -> Iterator[Row]:
    """Memo keys of the rows (x,) + tail, x over ``values``, translated to
    start at 0, built in C."""
    a, b = values.start, values.stop
    return zip(repeat(0, b - a), *[range(v - a, v - b, -1) for v in tail])


def _alpha3(a: int, b: int, c: int) -> int:
    """The polynomial at a row of three entries, in closed form."""
    return -(a * a * (b - c - 1) + a * (c * c + 4 * c + 3 - b * b - 2 * b)
             + b * b * c + 2 * b * b - b * c * c - 2 * b * c - c * c - 3 * c) // 2


def _alpha4(b: int, c: int, d: int) -> int:
    """The polynomial at a row (0, b, c, d), in closed form.  It has degree 3
    in each entry and is translation invariant, so this is its value at any
    row of four entries whose gaps to the first entry are b, c, d; it is
    written in Horner form in b, and the division by 12 is exact."""
    e = d + 3
    return ((((e * c * (d - 1 - c) + 2 * d * d + 8 * d + 4) * b
              + e * c * (c * c + 3 * c - d * e) - 2 * d * (d + 2) * (d + 4)) * b
             + e * c * (c * d * d - c * c * (d + 1) + e * (2 * d - 3)) + 4 * (d * d + 4 * d + 5)) * b
            - c * (d + 4) * (c * c * (d + 1) - c * d * (d - 1) - 3 * d * d - 4 * d + 5)) // 12


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
#
# With an EvalCache some leaves and states have a known value and are not
# expanded or looked up.  A leaf (a, b) is worth b - a + 1 on both operator
# routes.  Four more rules hold on the operator route alone, so that the other
# routes, which use none of them, check them.  A row (a, b, c) asked for is
# worth _alpha3(a, b, c); a row of length 3 is never a leaf there, as no row
# of length 4 is expanded.  A row with three equal neighbours is worth 0,
# since no generalized monotone triangle row fits above them, and so is a
# state whose s[j:] holds three, since every leaf below it keeps s[j:]; as
# every descendant keeps s[j:], three equal neighbours can only close at the
# entry a child fixes last.  A row that misses is looked up reflected,
# alpha(k) = alpha(-k_n, ..., -k_1), before it is expanded.  And a row
# (a, b, c, d) that misses both lookups is worth _alpha4(b - a, c - a, d - a):
# it is stored and counted as a miss like an expanded row, but never expanded,
# so rows and counters are those of the expansion and only the states are
# fewer.


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
    them; without a cache they are kept for this call only.

    An explicit stack replaces the recursion.  A frame is the dict and key
    its value goes to, its running total, its remaining groups of children,
    and the keys still to look up in the current group with that group's
    sign, dict and j.  A miss suspends the group until the missed key is
    evaluated.  The whole operator is the one child of a root frame.  Only
    lookups of rows count as cache hits and misses: each is a leaf of a state
    the walk expands.  A row of length 1 is worth 1 and is not looked up.

    With a cache the operator routes settle a leaf of length 2 in closed
    form, summing a state's leaves (x, t) as an arithmetic series.  The
    operator route also returns a row ``k`` of length 3 at once, by
    :func:`_alpha3`.  It settles by rule the rows and states with three
    equal neighbours (see the comment above); it checks the whole row ``k``
    once and then only the entry each child fixes, at s[j:j+3] for a state
    and at the first three entries of a leaf row.  On a miss it looks the
    row up reflected before expanding it; a row of length 4, ``k`` itself or
    a leaf, that misses both lookups it settles by :func:`_alpha4` and
    stores without expanding it, so no row of length 3 is ever a leaf.  A
    row settled by rule or in closed form counts as neither a hit nor
    a miss, except that a settled row of length 4 counts as a miss, as its
    expansion would; a row found reflected counts as a hit.
    """
    alt = route == "operator_alt"
    pruned = route == "operator" and cache is not None
    if pruned and has_equal_triple(k):
        return 0
    if pruned and len(k) == 3:
        return _alpha3(*k)
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
                if value is None and pruned:
                    # Only the entry fixed last can close three equal
                    # neighbours: the ancestors cleared the others.
                    if d is not store:
                        if len(child) > j + 2 and child[j] == child[j + 1] == child[j + 2]:
                            value = 0
                    elif child[1:3] == (0, 0):
                        value, lookups = 0, lookups - 1
                    else:
                        value = get(tuple([child[-1] - v for v in reversed(child)]))
                        if value is None and len(child) == 4:
                            value = d[child] = _alpha4(*child[1:])
                            misses += 1
                if value is None:
                    misses += d is store
                    stack.append((target, key, total, groups, keys, sign, d, j))
                    target, key, total, groups = d, child, 0, []
                    # The summed branch, then the pinned or doubled one.
                    second, last = child[j - 2], child[j - 1]
                    tail = child[j:]
                    values, sign = extended_range(second if alt else second + 1, last)
                    if j > 2:
                        if values:
                            head = child[:j - 1]
                            groups.append((sign, memos[j - 1], iter([head + (x,) + tail for x in values]), j - 1))
                    elif cache is None:
                        total += sign * sum([fn((x,) + tail) for x in values])
                    elif not tail:
                        total += sign * len(values)
                    elif len(tail) == 1:
                        # Rows (x, t) are worth t - x + 1: an arithmetic series.
                        total += sign * (len(values) * (2 * tail[0] + 3 - values.start - values.stop) // 2)
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
                        elif len(other) == 3:
                            dest, total = None, total + sign * (other[2] - other[1] + 1)
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
    the last argument pinned to k_{n-1}.  The bounds are checked as
    :func:`alpha` checks its row, up to ``MAX_EVAL_LENGTH`` of them.
    """
    k = _check_row(k)
    if len(k) < 2:
        raise ValueError("the operator needs at least two bounds")
    return _chain(k, "operator", fn)


def operator_apply_alt(k, fn: RowFunction) -> int:
    """Alternative recursion for the same operator: the extended sum of the
    last argument over (k_{n-1} .. k_n) under the shorter operator, minus the
    operator over (k_1..k_{n-2}) with the last two arguments pinned to
    k_{n-1}.  Agrees with :func:`operator_apply` on every input, and checks
    its bounds the same way."""
    k = _check_row(k)
    if len(k) < 3:
        raise ValueError("the alternative recursion needs at least three bounds")
    return _chain(k, "operator_alt", fn)


# The routes that fill a memo, each in an EvalCache of its own; gmt and mt keep none.
MEMO_ROUTES = ("operator", "operator_alt", "third")

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

    The rows a route settles by rule are not stored (see :func:`_chain`):
    the operator routes store no row of length 2 below the row asked for,
    and the operator route no row of length 3, no row with three equal
    neighbours and at most one of a row and its reflection.  Their cache
    files hold fewer records than files written before these rules; such
    older files still load, since every record in them holds the same value,
    and the operator route then never reads their rows of length 3.  The
    operator route settles a row of length 4 in closed form but still stores
    it and counts it as a miss, so its cache files and counters are those of
    the expansion it replaces; only its states are fewer.

    ``route``, one of ``MEMO_ROUTES``, names the route whose values the
    cache holds; gmt and mt keep no memo.  A saved cache file starts with
    the header line ``monotri-cache v2 route=<method> normalize=1 sha256=<hex>``,
    where the digest covers every record line after it; :meth:`load` rejects
    a file of another format version, a file whose header is missing or
    malformed, whose digest does not match, which holds a key that is not
    translation-normalized (whatever its header says), or which names another
    route.
    """

    def __init__(self, route: str = "operator"):
        if route not in MEMO_ROUTES:
            raise ValueError(f"route {route!r} has no cache, expected one of {MEMO_ROUTES}")
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
        if match is None:
            raise ValueError(f"cache file {path}: missing or malformed header {header[:80]!r}")
        if match[1] != self.route:
            raise ValueError(f"cache file {path} holds values of route {match[1]!r}, not {self.route!r}")
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
    for p in range(max(n - 2, 0) + 1):
        # shifting the t-th element of a p-subset of 2..n-p up by t leaves a
        # gap of two or more between neighbours, and every such set arises once
        for cs in combinations(range(2, n - p + 1), p):
            chosen = tuple(c + t for t, c in enumerate(cs))
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
    free = [extended_range(r[j], r[j + 1]) for j in range(len(r) - 1)]
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
    start at 0, built in C: one product of shifted ranges per value of the
    first position."""
    return chain.from_iterable(
        product((0,), *[range(r.start - v, r.stop - v) for r in ranges[1:]])
        for v in ranges[0])


def _third(key: Row, cache: EvalCache) -> int:
    """The polynomial at the translation-normalized row ``key``, of length 2
    or more, as the signed sum over the boxes of :func:`third_families`,
    memoized in ``cache``; exact because a translated row has the translated
    boxes.  Every row of a box is one entry shorter, so the recursion is at
    most ``len(key)`` deep."""
    value = cache._store.get(key)
    if value is not None:
        cache.hits += 1
        return value
    cache.misses += 1
    total = 0
    for _, ranges, sign in third_families(key):
        if len(ranges) == 1:
            total += sign * len(ranges[0])
        else:
            total += sign * sum(_third(row, cache) for row in _box_keys(ranges))
    cache._store[key] = total
    return total


def alpha(row, method: str = "operator", cache: EvalCache | None = None) -> int:
    """Evaluate the counting polynomial at an integer row by the given method.

    All methods agree; ``mt`` (strictly increasing rows) counts by the walk of
    ``enumerate mt --count`` under the default budgets; it builds no triangle.
    ``cache`` memoizes sub-evaluations for ``MEMO_ROUTES`` (gmt and mt leave
    it alone) and may be shared across calls of one method; results agree
    with or without one.  An empty cache, without rows or states, takes
    ``method`` as its route; one holding another route's values raises ``ValueError``.
    """
    row = _check_row(row)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "mt":
        return count_triangles("mt", row)
    if method == "gmt":
        return signed_gmt_count(row)
    if cache is None:
        cache = EvalCache()
    elif cache.route != method and (len(cache) or any(cache._states.values())):
        raise ValueError(f"the cache holds values of route {cache.route!r}, not {method!r}")
    cache.route = method
    if len(row) == 1:
        return 1
    if method == "third":
        return _third(cache._key(row), cache)
    return _chain(row, method, cache=cache)


def applicable_methods(row) -> tuple[str, ...]:
    """Methods valid for the given row: all five when strictly increasing,
    otherwise everything except ``mt``."""
    if is_strictly_increasing(tuple(row)):
        return METHODS
    return tuple(m for m in METHODS if m != "mt")
