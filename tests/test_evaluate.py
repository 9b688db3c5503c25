import hashlib
import inspect
import random
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotri import (
    BudgetExceededError,
    EvalCache,
    alpha,
    applicable_methods,
    extended_sum,
    operator_apply,
    operator_apply_alt,
    row_sum_identity,
)
from monotri.identities import hashed_row_function
from oracles import (
    chain_closures,
    memo_closures,
    operator_alt_closures,
    operator_closures,
    signed_gmt_brute,
    third_closures,
)

small_int = st.integers(min_value=-8, max_value=8)


class TestExtendedSum:
    def test_ordinary(self):
        assert extended_sum(lambda v: 1, 1, 3) == 3

    def test_empty(self):
        assert extended_sum(lambda v: 1, 5, 4) == 0

    def test_inverted(self):
        assert extended_sum(lambda v: 1, 3, 1) == -1

    @given(small_int, small_int)
    def test_peeling_the_lower_bound(self, a, b):
        f = hashed_row_function(11)
        g = lambda v: f((v,))
        assert extended_sum(g, a, b) == extended_sum(g, a + 1, b) + g(a)

    @given(small_int, small_int)
    def test_peeling_the_upper_bound(self, a, b):
        f = hashed_row_function(12)
        g = lambda v: f((v,))
        assert extended_sum(g, a, b) == extended_sum(g, a, b - 1) + g(b)


class TestOperator:
    def test_inverted_pair(self):
        assert operator_apply((3, 1), lambda l: 1) == -1

    def test_all_zero_bounds_vanish(self):
        fn = hashed_row_function(3)
        assert operator_apply((0, 0, 0), fn) == 0
        assert operator_apply_alt((0, 0, 0), fn) == 0

    def test_alt_hand_expansion(self):
        fn = hashed_row_function(4)
        assert operator_apply_alt((0, 1, 0), fn) == -fn((1, 1))

    def test_increasing_bounds_count_triangles(self):
        cache = EvalCache()
        count = operator_apply((2, 4, 5), lambda l: alpha(l, "operator", cache))
        assert count == alpha((2, 4, 5), "mt")

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            operator_apply((1,), lambda l: 1)
        with pytest.raises(ValueError):
            operator_apply_alt((1, 2), lambda l: 1)

    def test_alt_agrees_on_random_inputs(self):
        rng = random.Random(123)
        for trial in range(60):
            n = rng.choice([3, 4, 5])
            k = tuple(rng.randint(-4, 4) for _ in range(n))
            fn = hashed_row_function(trial)
            assert operator_apply(k, fn) == operator_apply_alt(k, fn), k


bound = st.integers(min_value=-6, max_value=6)


class TestFlatWalks:
    """The flat term walks against the closure recursions they unroll."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(bound, min_size=2, max_size=5), st.integers(0, 10**6))
    @example([0, 0], 1)
    @example([3, 2], 2)
    @example([5, 1], 3)
    @example([0, 0, 0, 0, 0], 4)
    @example([4, 3, 2, 1, 0], 5)
    @example([2, 1, 1, 0, -1], 6)
    @example([-6, 6, -6, 6, -6], 7)
    def test_operator_matches_closure_recursion(self, k, seed):
        fn = hashed_row_function(seed)
        assert operator_apply(k, fn) == operator_closures(k, fn)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(bound, min_size=3, max_size=5), st.integers(0, 10**6))
    @example([0, 0, 0], 1)
    @example([3, 2, 1], 2)
    @example([0, 0, 0, 0, 0], 4)
    @example([4, 3, 2, 1, 0], 5)
    @example([2, 1, 1, 0, -1], 6)
    @example([-6, 6, -6, 6, -6], 7)
    def test_operator_alt_matches_closure_recursion(self, k, seed):
        fn = hashed_row_function(seed)
        assert operator_apply_alt(k, fn) == operator_alt_closures(k, fn)

    @pytest.mark.parametrize("row, method, value, entries, hits", [
        (tuple(range(1, 12)), "operator", 31095744852375, 1023, 2483),
        ((3, -1, 2, 0, -2, 1, 4), "operator", -2574, 3091, 12503),
        (tuple(range(1, 9)), "operator_alt", 10850216, 803, 3077),
        (tuple(range(1, 9)), "third", 10850216, 803, 47322),
        ((0, 1000, 2000), "operator", 1003003000, 2001, 1000000),
    ])
    def test_memo_counters(self, row, method, value, entries, hits):
        # One row lookup per leaf of each chain state the operator routes
        # expand, and one per term of the boxes of third: a change to the
        # chain or to the term structure moves these counts.
        cache = EvalCache()
        assert alpha(row, method, cache) == value
        assert (len(cache), cache.hits, cache.misses) == (entries, hits, entries)


ROUTES = {
    "operator": lambda row, cache: memo_closures(row, cache, operator_closures),
    "operator_alt": lambda row, cache: memo_closures(
        row, cache, lambda r, ev: (operator_alt_closures if len(r) >= 3 else operator_closures)(r, ev)),
    "third": third_closures,
}


# The operator routes over their chain states: the same row lookups as the
# chain kernel makes.
CHAINS = {
    "operator": lambda row, cache: chain_closures(row, cache),
    "operator_alt": lambda row, cache: chain_closures(row, cache, alt=True),
    "third": third_closures,
}


def counters(cache):
    return len(cache), cache.hits, cache.misses


def walk_row(start_steps):
    start, steps = start_steps
    row = [start]
    for step in steps:
        row.append(max(-6, min(6, row[-1] + step)))
    return row


# Rows of length 1-6 with entries in -6..6 and steps of at most 3.  The cost
# of the closure recursions grows with the steps: on (6, -6, 6, -6, 6, -6)
# memo_closures makes 118 million lookups and takes minutes.
walked_rows = st.tuples(st.integers(-6, 6), st.lists(st.integers(-3, 3), max_size=5)).map(walk_row)


class TestMemoKernel:
    """The memo kernel on each of its three routes against the memoized
    closure recursions: the same values, memo entries and misses, and the
    same row lookups as the recursion it unrolls (the chain states for the
    operator routes, the boxes for third)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(bound, min_size=1, max_size=5))
    @example([5])
    @example([0, 0, 0])
    @example([4, 2, 1, 3])
    @example([6, -6, 6, -6, 6])
    def test_third_matches_closure_recursion(self, row):
        cache, reference = EvalCache(), EvalCache()
        assert alpha(row, "third", cache) == third_closures(row, reference)
        assert counters(cache) == counters(reference)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(ROUTES)),
           st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=5), min_size=1, max_size=3))
    def test_shared_cache_matches_closure_recursion(self, method, rows):
        # One cache across several rows, so later rows hit what earlier rows stored.
        cache, reference, chain = EvalCache(), EvalCache(), EvalCache()
        for row in rows:
            assert alpha(row, method, cache) == ROUTES[method](row, reference) == CHAINS[method](row, chain)
            assert counters(cache) == counters(chain)
            assert (len(cache), cache.misses) == (len(reference), reference.misses)
        assert cache._store == reference._store == chain._store

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["operator", "operator_alt"]), walked_rows)
    @example("operator", [5])
    @example("operator", [6, 3, 0, -3, -6, -3])
    @example("operator_alt", [-6, -3, 0, 3, 6, 3])
    @example("operator_alt", [0, 0, 0, 0, 0, 0])
    def test_chain_matches_memo_closures(self, method, row):
        cache, reference = EvalCache(), EvalCache()
        assert alpha(row, method, cache) == ROUTES[method](row, reference)
        assert cache._store == reference._store
        assert cache.misses == reference.misses

    @pytest.mark.parametrize("shift", [1, 10**9])
    def test_both_key_builders(self, shift):
        # The keys of the chain's leaf rows (operator routes) and of the rows
        # of third's boxes, on rows translated by a small and a large shift:
        # keys are translation-normalized, so neither values nor counters
        # move.  Hits are pinned: third's equal its closure recursion's.
        for row, method, hits in [((3, -1, 2, 0, -2, 1), "operator", 1856), ((7, 0, 9, 2), "operator_alt", 838),
                                  ((2, 9, 1, 4, 4), "third", 5735), ((0, 30, 60), "operator", 900)]:
            row = tuple(v + shift for v in row)
            cache, reference = EvalCache(), EvalCache()
            assert alpha(row, method, cache) == ROUTES[method](row, reference)
            assert counters(cache) == (len(reference), hits, reference.misses)
            if method == "third":
                assert reference.hits == hits

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=5), min_size=1, max_size=4))
    @example([[4, 2, 1, 3], [-3, -1, -2, -4]])
    @example([[0, 0, 0, 0, 0]])
    def test_reflection(self, rows):
        # alpha(k) = alpha(-k_n, ..., -k_1), on one cache per route shared by
        # every row and its reflection, and equal to the signed enumeration.
        caches = {method: EvalCache() for method in ROUTES}
        for row in rows:
            reflected = [-v for v in reversed(row)]
            value = alpha(row, "gmt")
            for method, cache in caches.items():
                assert alpha(row, method, cache) == alpha(reflected, method, cache) == value, method

    def test_kernels_do_not_recurse(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            assert alpha(tuple(range(1, 13))) == 12611311859677500
            assert alpha(tuple(range(1, 9)), "operator_alt") == 10850216
            assert alpha(tuple(range(1, 9)), "third") == 10850216
        finally:
            sys.setrecursionlimit(limit)

    def test_wide_pair_costs_no_lookups(self):
        cache = EvalCache()
        assert alpha((0, 10**8), "operator", cache) == 100000001
        assert counters(cache) == (1, 0, 1)


class TestAlpha:
    def test_golden_values(self):
        assert alpha((2, 4, 5, 8, 9)) == 16939
        assert alpha((4, 2, 1, 3)) == -2
        assert alpha((3, 1)) == -1
        assert alpha((7,)) == 1

    def test_all_methods_agree_on_goldens(self):
        for row in [(2, 4, 5, 8, 9), (4, 2, 1, 3), (3, 1)]:
            values = {alpha(row, m) for m in applicable_methods(row)}
            assert len(values) == 1

    @given(small_int, small_int)
    def test_pair_closed_form(self, a, b):
        assert alpha((a, b)) == b - a + 1

    def test_methods_agree_exhaustively_n3(self):
        caches = {m: EvalCache() for m in ("operator", "operator_alt", "third")}
        for k in product(range(-2, 2), repeat=3):
            values = {alpha(k, m, caches[m]) for m in caches}
            values.add(alpha(k, "gmt"))
            assert len(values) == 1, k

    def test_matches_box_enumeration(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.choice([2, 3])
            k = tuple(rng.randint(-2, 2) for _ in range(n))
            assert alpha(k) == signed_gmt_brute(k), k

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_int, min_size=1, max_size=4), st.integers(-5, 5))
    def test_translation_invariance(self, row, shift):
        # The signed enumeration keys nothing on the row, so it checks the
        # translation the memo keys rest on.
        row = tuple(row)
        shifted = tuple(v + shift for v in row)
        assert alpha(row, "gmt") == alpha(shifted, "operator")

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            alpha(())
        with pytest.raises(ValueError):
            alpha((2, 1), "mt")
        with pytest.raises(ValueError):
            alpha((1, 2), "no-such-method")
        with pytest.raises(BudgetExceededError):
            alpha(tuple(range(100)))


class TestThirdExtension:
    def test_golden_values(self):
        cache = EvalCache()
        assert alpha((4, 2, 1, 3), "third", cache) == -2
        assert alpha((1, 2, 3), "third", cache) == 7
        assert alpha((5,), "third", cache) == 1

    def test_agrees_with_operator_on_window(self):
        cache, third = EvalCache(), EvalCache()
        for k in product(range(0, 3), repeat=4):
            assert alpha(k, "third", third) == alpha(k, "operator", cache), k


class TestEvalCache:
    def test_transparent(self):
        cache = EvalCache()
        first = alpha((4, 2, 1, 3), "operator", cache)
        second = alpha((4, 2, 1, 3), "operator", cache)
        assert first == second == alpha((4, 2, 1, 3), "operator", None)
        assert cache.hits > 0

    def test_counters(self):
        cache = EvalCache()
        alpha((1, 2, 3), "operator", cache)
        misses = cache.misses
        alpha((1, 2, 3), "operator", cache)
        assert cache.misses == misses  # fully served from cache on the second run

    def test_persistence_round_trip(self, tmp_path):
        cache = EvalCache()
        alpha((4, 2, 1, 3), "operator", cache)
        path = tmp_path / "cache.tsv"
        cache.save(path)
        fresh = EvalCache()
        assert fresh.load(path) == len(cache)
        assert alpha((4, 2, 1, 3), "operator", fresh) == -2
        # shifted row hits the translation-normalized records
        assert alpha((5, 3, 2, 4), "operator", fresh) == -2

    def test_corrupt_record_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("3\t0,1\t5\n")
        with pytest.raises(ValueError):
            EvalCache().load(path)

    @staticmethod
    def write_cache_file(path, body, normalize=1, route="operator", version=2):
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
        fields = f"route={route} normalize={normalize}" if version == 2 else f"normalize={normalize}"
        path.write_text(f"monotri-cache v{version} {fields} sha256={digest}\n{body}")

    def test_header_and_checksum(self, tmp_path):
        path = tmp_path / "cache.tsv"
        self.write_cache_file(path, "2\t0,5\t6\n")
        cache = EvalCache()
        assert cache.load(path) == 1
        assert alpha((10, 15), "operator", cache) == 6
        for bad in ("2\t0,5\t6\n",  # no header
                    "monotri-cache v2 route=operator normalize=1\n2\t0,5\t6\n",
                    "monotri-cache v2 normalize=1 sha256=" + "0" * 64 + "\n2\t0,5\t6\n",
                    "monotri-cache v2 route=operator normalize=1 sha256=" + "0" * 64 + "\n2\t0,5\t6\n"):
            path.write_text(bad)
            with pytest.raises(ValueError):
                EvalCache().load(path)
        self.write_cache_file(path, "3\t0,5\t6\n")
        with pytest.raises(ValueError, match="corrupt"):
            EvalCache().load(path)

    def test_unnormalized_key_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        for normalize in (1, 0):
            self.write_cache_file(path, "2\t10,15\t6\n", normalize)
            with pytest.raises(ValueError, match="normalized"):
                EvalCache().load(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        self.write_cache_file(path, "2\t0,5\t6\n", version=1)
        with pytest.raises(ValueError, match="unsupported format version 1"):
            EvalCache().load(path)

    def test_route_named_and_checked(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = EvalCache(route="third")
        alpha((4, 2, 1, 3), "third", cache)
        cache.save(path)
        assert path.read_text().startswith("monotri-cache v2 route=third normalize=1 sha256=")
        assert EvalCache(route="third").load(path) == len(cache)
        for other in ("operator", "operator_alt"):
            with pytest.raises(ValueError, match="route 'third', not '" + other):
                EvalCache(route=other).load(path)
        # gmt and mt keep no memo: their caches read any file, and any route
        # reads theirs.
        assert EvalCache(route="gmt").load(path) == len(cache)
        EvalCache(route="mt").save(path)
        assert EvalCache(route="third").load(path) == 0
        self.write_cache_file(path, "2\t0,5\t6\n", route="nosuch")
        with pytest.raises(ValueError, match="malformed header"):
            EvalCache().load(path)
        with pytest.raises(ValueError, match="unknown route"):
            EvalCache(route="nosuch")

    def test_third_cache_file_bytes_are_pinned(self, tmp_path):
        # The memo entries of third, and so its saved files, do not depend
        # on how the kernel walks the boxes.
        path = tmp_path / "cache.tsv"
        cache = EvalCache()
        assert alpha((2, 9, 1, 4, 4), "third", cache) == -2240
        assert alpha((0, 14, 3, 8), "third", cache) == 17081
        cache.save(path)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "08484e1c446e06a53317bd56cf76570e3bdf74d1fc15434433b4a7a027e8dc76")

    def test_alpha_names_an_empty_cache_by_its_route(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = EvalCache()
        assert alpha((1, 2, 3, 4), "third", cache) == 42
        cache.save(path)
        assert path.read_text().startswith("monotri-cache v2 route=third normalize=1 sha256=")
        with pytest.raises(ValueError, match="route 'third', not 'operator'"):
            EvalCache().load(path)

    def test_alpha_rejects_a_cache_of_another_route(self):
        cache = EvalCache()
        assert alpha((1, 2, 3, 4), "operator", cache) == 42
        entries = len(cache)
        for method in ("third", "operator_alt"):
            with pytest.raises(ValueError, match="holds values of route 'operator', not '" + method):
                alpha((1, 2, 3, 4), method, cache)
        assert len(cache) == entries
        assert alpha((1, 2, 3, 4, 5), "operator", cache) == 429
        # gmt and mt keep no memo and leave the cache alone
        assert alpha((1, 2, 3, 4), "gmt", cache) == alpha((1, 2, 3, 4), "mt", cache) == 42
        assert cache.route == "operator"

    def test_failed_load_merges_nothing(self, tmp_path):
        path = tmp_path / "cache.tsv"
        self.write_cache_file(path, "2\t0,5\t6\n2\t3,5\t3\n")
        cache = EvalCache()
        with pytest.raises(ValueError):
            cache.load(path)
        assert len(cache) == 0

    def test_save_replaces_the_file(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("stale\n")
        cache = EvalCache()
        alpha((4, 2, 1, 3), "operator", cache)
        cache.save(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("monotri-cache v2 route=operator normalize=1 sha256=")
        assert list(tmp_path.iterdir()) == [path]
        assert EvalCache().load(path) == len(cache)


class TestRowSumExpansion:
    def test_holds_for_all_pair_bounds(self):
        rng = random.Random(9)
        for trial in range(40):
            k = (rng.randint(-5, 5), rng.randint(-5, 5))
            fn = hashed_row_function(trial)
            lhs, rhs = row_sum_identity(k, fn)
            assert lhs == rhs, k

    def test_holds_for_all_triple_bounds(self):
        rng = random.Random(10)
        for trial in range(40):
            k = tuple(rng.randint(-5, 5) for _ in range(3))
            fn = hashed_row_function(trial)
            lhs, rhs = row_sum_identity(k, fn)
            assert lhs == rhs, k

    def test_holds_for_functions_vanishing_on_triple_rows(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.choice([4, 5])
            k = tuple(rng.randint(-4, 4) for _ in range(n))
            fn = hashed_row_function(trial)
            lhs, rhs = row_sum_identity(k, fn, zero_on_triple_rows=True)
            assert lhs == rhs, k

    def test_known_boundary_of_validity(self):
        # The operator expansion reaches rows with three consecutive equal
        # entries, which no triangle realizes: an indicator of such a row
        # separates the two sides.  The counting polynomial itself vanishes
        # on those rows, so signed enumeration is unaffected.
        probe = lambda row: 1 if row == (2, 2, 2) else 0
        lhs, rhs = row_sum_identity((4, 2, 1, 3), probe)
        assert rhs == 0
        assert lhs == -1
        assert alpha((2, 2, 2)) == 0
