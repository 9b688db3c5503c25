"""Independent brute-force oracles, written straight from the definitions.

Everything here enumerates candidate objects over a bounded value box and
filters with plain predicates, except the recursions at the end: the two
operator recursions and the inclusion-exclusion expansion, written as nested
closures straight from their definitions, the operator recursions over their
chain states as memoized closures, the triangle and decorated-triangle
streams as nested generators, and the signed triangle count as a memoized
closure.
None of it shares code with the package under test; it exists so the fast
implementations are checked against a second, dumb route.
"""

from itertools import combinations, product


def box_triangles(bottom, lo=None, hi=None):
    """All triangular arrays over the value box with the given bottom row.

    Entries of every triangle with this bottom row lie between the bottom
    row's minimum and maximum for each class checked here.
    """
    bottom = tuple(bottom)
    n = len(bottom)
    if lo is None:
        lo = min(bottom)
    if hi is None:
        hi = max(bottom)
    cells = n * (n - 1) // 2
    for values in product(range(lo, hi + 1), repeat=cells):
        rows = []
        pos = 0
        for i in range(1, n):
            rows.append(tuple(values[pos:pos + i]))
            pos += i
        rows.append(bottom)
        yield rows


def mt_ok(rows):
    for row in rows:
        for j in range(len(row) - 1):
            if not row[j] < row[j + 1]:
                return False
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for j in range(len(up)):
            if not lo[j] <= up[j] <= lo[j + 1]:
                return False
    return True


def dmt_ok(rows):
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for j in range(len(up)):
            if not lo[j] >= up[j] >= lo[j + 1]:
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


def gmt_ok(rows):
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for j in range(len(up)):
            if not min(lo[j], lo[j + 1]) <= up[j] <= max(lo[j], lo[j + 1]):
                return False
        for j in range(len(lo) - 2):
            if lo[j] <= lo[j + 1] <= lo[j + 2] and not up[j] < up[j + 1]:
                return False
        for j in range(len(lo) - 1):
            if lo[j] > lo[j + 1]:
                if up[j] == lo[j] and (j == 0 or up[j - 1] != up[j]):
                    return False
                if up[j] == lo[j + 1] and (j + 1 >= len(up) or up[j + 1] != up[j]):
                    return False
    return True


def sc_brute(rows):
    total = 0
    for i in range(len(rows) - 1):
        up, lo = rows[i], rows[i + 1]
        for j in range(len(up)):
            if lo[j] > up[j] > lo[j + 1]:
                total += 1
        for j in range(len(up) - 1):
            if up[j] == up[j + 1] == lo[j + 1]:
                total += 1
    return total


def gmt_set_brute(bottom):
    return [t for t in box_triangles(bottom) if gmt_ok(t)]


def signed_gmt_brute(bottom):
    return sum((-1) ** sc_brute(t) for t in gmt_set_brute(bottom))


def mt_count_brute(bottom):
    return sum(1 for t in box_triangles(bottom) if mt_ok(t))


def _exempt(special):
    out = set()
    for i, j in special:
        out.add((i - 1, j - 1))
        out.add((i - 1, j))
    return out


def tn_ok(rows, special):
    n = len(rows)
    for i, j in special:
        if not 1 < j < i <= n:
            return False
        if (i, j + 1) in special:
            return False
        v = rows[i - 1][j - 1]
        if rows[i - 2][j - 2] != v or rows[i - 2][j - 1] != v:
            return False
    exempt = _exempt(special)
    for i in range(1, n):
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


def s_brute(rows, special):
    exempt = _exempt(special)
    inversions = 0
    for i in range(1, len(rows)):
        for j in range(1, i + 1):
            if (i, j) in exempt:
                continue
            if rows[i][j - 1] > rows[i - 1][j - 1] > rows[i][j]:
                inversions += 1
    return len(special) + inversions


def tn_objects_brute(bottom):
    """All (rows, special) pairs in the decorated class, via box enumeration."""
    bottom = tuple(bottom)
    n = len(bottom)
    interior = [(i, j) for i in range(3, n + 1) for j in range(2, i)]
    out = []
    for rows in box_triangles(bottom):
        for p in range(len(interior) + 1):
            for spec in combinations(interior, p):
                spec = frozenset(spec)
                if any((i, j + 1) in spec for i, j in spec):
                    continue
                if tn_ok(rows, spec):
                    out.append((tuple(rows), spec))
    return out


def _ext_sum(f, a, b):
    """Sum of f over a..b; zero when b == a - 1; minus the sum over
    b+1..a-1 when b < a - 1."""
    if b >= a:
        return sum(f(v) for v in range(a, b + 1))
    if b == a - 1:
        return 0
    return -sum(f(v) for v in range(b + 1, a))


def operator_closures(k, fn):
    """The summation operator as the recursion over nested closures: the
    operator over k_1..k_{n-1} of the extended sum of the last argument over
    k_{n-1}+1..k_n, plus the operator over (k_1..k_{n-2}, k_{n-1}-1) with the
    last argument pinned to k_{n-1}."""
    k = tuple(k)
    if len(k) == 1:
        return fn(())
    second, last = k[-2], k[-1]

    def summed(prefix):
        return _ext_sum(lambda v: fn(prefix + (v,)), second + 1, last)

    def pinned(prefix):
        return fn(prefix + (second,))

    return operator_closures(k[:-1], summed) + operator_closures(k[:-2] + (second - 1,), pinned)


def operator_alt_closures(k, fn):
    """The alternative recursion over nested closures: the extended sum of
    the last argument over k_{n-1}..k_n under the shorter operator, minus the
    operator over k_1..k_{n-2} with the last two arguments pinned to k_{n-1}."""
    k = tuple(k)
    if len(k) == 1:
        return fn(())
    if len(k) == 2:
        return _ext_sum(lambda v: fn((v,)), k[0], k[1])
    second, last = k[-2], k[-1]

    def summed(prefix):
        return _ext_sum(lambda v: fn(prefix + (v,)), second, last)

    def doubled(prefix):
        return fn(prefix + (second, second))

    return operator_alt_closures(k[:-1], summed) - operator_alt_closures(k[:-2], doubled)


def _translated(r):
    return tuple(v - r[0] for v in r)


def _cache_get(cache, r):
    """The value of row ``r`` in an ``EvalCache``'s store, under ``r``
    translated to start at 0, or None; counted as a hit or a miss."""
    value = cache._store.get(_translated(r))
    if value is None:
        cache.misses += 1
    else:
        cache.hits += 1
    return value


def _cache_put(cache, r, value):
    cache._store[_translated(r)] = value


def memo_closures(row, cache, apply):
    """The polynomial at ``row`` by the recursion ``apply(r, ev)`` (one of the
    operator recursions above, applied to the evaluation itself), memoized in
    ``cache`` through :func:`_cache_get` and :func:`_cache_put`."""
    def ev(r):
        if len(r) == 1:
            return 1
        cached = _cache_get(cache, r)
        if cached is not None:
            return cached
        value = apply(r, ev)
        _cache_put(cache, r, value)
        return value

    return ev(tuple(row))


def chain_closures(row, cache, alt=False):
    """The polynomial at ``row`` by the chain states of the operator
    recursion (``alt`` for the alternative one), as memoized closures: a
    state (j, s) is the operator over s[:j] applied to the polynomial with
    its last arguments fixed to s[j:], (len(r), r) is the polynomial at r and
    (1, s) the polynomial at s[1:].  Rows are memoized in ``cache`` through
    :func:`_cache_get` and :func:`_cache_put`, states in a dict under (j, s
    translated to start at 0)."""
    states = {}

    def ev(r):
        if len(r) == 1:
            return 1
        cached = _cache_get(cache, r)
        if cached is not None:
            return cached
        value = state(len(r), r)
        _cache_put(cache, r, value)
        return value

    def state(j, s):
        if j == 1:
            return ev(s[1:])
        key = (j, tuple(v - s[0] for v in s))
        if key in states:
            return states[key]
        second, last = s[j - 2], s[j - 1]

        def summed(x):
            return state(j - 1, s[:j - 1] + (x,) + s[j:])

        if alt:
            value = _ext_sum(summed, second, last)
            if j > 2:
                value -= state(j - 2, s[:j - 2] + (second, second) + s[j:])
        else:
            value = _ext_sum(summed, second + 1, last) + state(j - 1, s[:j - 2] + (second - 1, second) + s[j:])
        states[key] = value
        return value

    return ev(tuple(row))


def _nonadjacent_sets(lo, hi):
    """Subsets of lo..hi with no two consecutive elements, smallest first,
    lexicographic within each size."""
    idxs = range(lo, hi + 1)
    for p in range(len(idxs) + 1):
        for combo in combinations(idxs, p):
            if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
                yield combo


def third_closures(row, cache):
    """The inclusion-exclusion expansion as nested closures over a memo: the
    sum over families of non-adjacent indices 2 <= i_1 < ... < i_p <= n-1,
    with sign (-1)**p, of nested extended sums, free position j from r[j] to
    r[j+1], each chosen index i pinning positions i-1 and i to r[i-1]
    (1-based)."""
    def ev(r):
        n = len(r)
        if n == 1:
            return 1
        cached = _cache_get(cache, r)
        if cached is not None:
            return cached
        total = 0
        for chosen in _nonadjacent_sets(2, n - 1):
            bounds = [(r[j], r[j + 1]) for j in range(n - 1)]
            for i in chosen:
                bounds[i - 2] = (r[i - 1], r[i - 1])
                bounds[i - 1] = (r[i - 1], r[i - 1])

            def nested(j, prefix):
                if j == n - 1:
                    return ev(prefix)
                a, b = bounds[j]
                return _ext_sum(lambda v: nested(j + 1, prefix + (v,)), a, b)

            term = nested(0, ())
            total += term if len(chosen) % 2 == 0 else -term
        _cache_put(cache, r, total)
        return total

    return ev(tuple(row))


class StreamBudgetError(RuntimeError):
    """The reference stream ran out of one of its budgets."""


def stream_generators(bottom, expand, max_rows, max_triangles):
    """The triangle stream as a chain of nested generators, one per row:
    depth-first over ``expand(row)`` (the admissible rows above ``row``),
    yielding each triangle as its rows, top first.  Expanding a row charges
    its admissible rows to the row budget and raises once that is overdrawn;
    each triangle takes one from the triangle budget, and asking for a
    triangle when none is left raises."""
    bottom = tuple(bottom)
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    budget = {"rows": max_rows, "triangles": max_triangles}

    def rec(stack):
        top = stack[-1]
        if len(top) == 1:
            if budget["triangles"] == 0:
                raise StreamBudgetError("triangle budget exhausted")
            budget["triangles"] -= 1
            yield tuple(reversed(stack))
            return
        above = expand(top)
        budget["rows"] -= len(above)
        if budget["rows"] < 0:
            raise StreamBudgetError("row generation budget exhausted")
        for row in above:
            stack.append(row)
            yield from rec(stack)
            stack.pop()

    yield from rec([bottom])


def tn_generators(bottom, max_rows, max_triangles):
    """The decorated-triangle stream as nested generators, yielding each
    object as (rows top first, frozenset of special positions).  Above each
    row of length r, the specials (r, j) are chosen first, non-adjacent j in
    2..r-1 by ``_nonadjacent_sets``; each pins both parents to its value, and
    every other position of the row above ranges over the interval between
    its lower neighbours, strictly between under a strict descent.  Every row
    taken charges one to the row budget and every object one to the triangle
    budget, each raising once overdrawn."""
    bottom = tuple(bottom)
    if not bottom:
        raise ValueError("the bottom row must not be empty")
    n = len(bottom)
    budget = {"rows": max_rows, "triangles": max_triangles}

    def rec(stack, specials):
        r = n - len(stack) + 1  # 1-based index of the highest built row
        if r == 1:
            if budget["triangles"] == 0:
                raise StreamBudgetError("triangle budget exhausted")
            budget["triangles"] -= 1
            yield tuple(reversed(stack)), specials
            return
        current = stack[-1]
        for chosen in _nonadjacent_sets(2, r - 1):
            pinned = {}
            for j in chosen:  # special at (r, j) pins positions j-1, j above
                pinned[j - 2] = pinned[j - 1] = current[j - 1]
            choices = []
            for idx in range(r - 1):
                lo, hi = current[idx], current[idx + 1]
                if idx in pinned:
                    choices.append((pinned[idx],))
                elif lo <= hi:
                    choices.append(range(lo, hi + 1))
                else:
                    choices.append(range(hi + 1, lo))
            marked = specials | {(r, j) for j in chosen}

            def build(idx, prefix):
                if idx == r - 1:
                    budget["rows"] -= 1
                    if budget["rows"] < 0:
                        raise StreamBudgetError("row generation budget exhausted")
                    stack.append(prefix)
                    yield from rec(stack, marked)
                    stack.pop()
                    return
                for v in choices[idx]:
                    yield from build(idx + 1, prefix + (v,))

            yield from build(0, ())

    yield from rec([bottom], frozenset())


def signed_count_closures(bottom, expand):
    """(number, signed total) of the triangles with the given bottom row, by
    a memoized closure recursion over ``expand(row)`` (the admissible rows
    above ``row``): a row's totals are the sums, over the rows above it, of
    their totals, the signed one weighed by (-1)**sc of the two-row fragment."""
    memo = {}

    def count(row):
        if len(row) == 1:
            return 1, 1
        cached = memo.get(row)
        if cached is not None:
            return cached
        number = signed = 0
        for sub in expand(row):
            n, s = count(sub)
            number += n
            signed += s if sc_brute([sub, row]) % 2 == 0 else -s
        memo[row] = number, signed
        return number, signed

    return count(tuple(bottom))
