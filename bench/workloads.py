"""Seeded inputs of the three workloads.

A workload is one round of ``monotri`` CLI invocations.  The round is a pure
function of the workload name and the seed: the seed picks translations of
fixed row shapes, the short random signed rows, the ``verify`` sampling seeds
and the windows of the exhaustive ``theorem1`` grids.  Cost depends on row
length, entry spread and sign pattern, and translation changes none of them,
so every seed gives a round of near-equal cost.  Sampled grids keep fixed
windows, so that only the sample changes with the seed.  The order of the operations is fixed, so that memory
reuse, and with it peak memory, does not depend on the seed.

Each operation carries a ``check``: a tuple naming the independent computation
its output is compared with (see ``checks.py``).  The argument ``{cache}``
stands for the per-run cache file and is filled in by the runner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CACHE_TOKEN = "{cache}"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: tuple


def fmt(row) -> str:
    return ",".join(str(v) for v in row)


def staircase(n: int, start: int = 1, step: int = 1) -> tuple[int, ...]:
    return tuple(start + step * j for j in range(n))


def _signed_short_row(rng: random.Random, n: int, base: int) -> tuple[int, ...]:
    """A row of length n over a window of width 5 with at least one strict
    descent and at least one pair of equal neighbours."""
    while True:
        row = tuple(base + rng.randint(0, 4) for _ in range(n))
        pairs = list(zip(row, row[1:]))
        if any(a > b for a, b in pairs) and any(a == b for a, b in pairs):
            return row


def alpha_mix(seed: int) -> list[Op]:
    """Twenty-four ``alpha`` calls."""
    rng = random.Random(f"alpha_mix/{seed}")
    ops: list[Op] = []

    def alpha(row, check, *extra):
        ops.append(Op(("alpha", "--row", fmt(row)) + extra, check))

    def shift() -> int:
        return rng.randint(10, 60)

    # Length: staircases n = 9..11, even and refined staircases (operator).
    for n in (9, 10, 10, 10, 10, 11):
        alpha(staircase(n, shift()), ("asm", n))
    alpha(staircase(7, 2 * shift(), 2), ("vsasm", 7))
    for n, i in ((10, 3), (10, 8), (11, 6)):
        c = shift()
        alpha(tuple(c + j for j in range(1, n + 1) if j != i), ("refined", n, i))
    # Entry spread: 3-entry rows with gaps in the hundreds.
    d1, d2 = rng.randint(250, 270), rng.randint(250, 270)
    c = shift()
    alpha((c, c + d1, c + d1 + d2), ("mt",))
    alpha((c + d1, c, c - d2), ("signed3",))
    alpha((c, c - 2 * d1 // 3, c + 2 * d2 // 3), ("signed3",))
    # Sign pattern: short rows with descents and ties, a longer signed row on
    # which the operator route does far more work than gmt, and a descending
    # staircase.
    for n in (5, 6, 6):
        alpha(_signed_short_row(rng, n, shift()), ("brute",))
    c = shift()
    alpha(tuple(c + v for v in (1, 3, 0, 2, -1, 1, 2)), ("brute",))
    alpha(staircase(7, shift() + 7, -1), ("brute",))
    # The gmt route, only where it is cheap: short rows.
    alpha(staircase(7, shift() + 7, -1), ("brute",), "--method", "gmt")
    for n in (5, 6):
        alpha(_signed_short_row(rng, n, shift()), ("brute",), "--method", "gmt")
    # One cache file shared by three calls: a cold computation, a larger row
    # whose recursion reuses part of the persisted memo, and a repeat of that
    # row that the file answers outright.
    c1, c2 = shift(), shift()
    alpha(staircase(10, c1), ("asm", 10), "--cache-file", CACHE_TOKEN)
    alpha(staircase(11, c2), ("asm", 11), "--cache-file", CACHE_TOKEN)
    alpha(staircase(11, c1), ("asm", 11), "--cache-file", CACHE_TOKEN)
    return ops


# Bottom-row shapes for enumerate_stream, entries 0..9.  The runner adds an
# offset in 10..80, so every entry of every streamed triangle has two digits
# and the output size is the same for every seed.
ENUM_SHAPES = {
    "increasing6": (0, 1, 2, 3, 4, 5),
    "increasing6b": (0, 1, 2, 3, 4, 6),
    "increasing7": (0, 1, 2, 3, 4, 5, 6),
    "descents6": (3, 1, 4, 2, 5, 0),
    "descents5": (3, 1, 4, 2, 5),
    "ties6": (4, 2, 1, 3, 0, 5),
    "ties6b": (2, 2, 1, 3, 3, 0),
    "ties7": (5, 3, 3, 1, 4, 2, 0),
    "ties7b": (0, 1, 1, 3, 4, 4, 6),
    "decreasing7": (9, 7, 5, 3, 1, 0, 0),
    "decreasing7b": (9, 8, 6, 5, 3, 1, 0),
}

# (class, shape, mode); mode is "stream", "count" or "signed".  Twenty
# operations: five of 0.2 s or more, seven of a few tens of milliseconds and
# eight in between, so the median operation sits among the middle eight.
ENUM_PLAN = (
    ("mt", "increasing7", "count"),
    ("gmt", "increasing6b", "count"),
    ("gmt", "increasing6b", "stream"),
    ("gmt", "ties7b", "stream"),
    ("tn", "ties6", "stream"),
    ("gmt", "increasing6", "stream"),
    ("gmt", "increasing6", "stream"),
    ("gmt", "descents6", "stream"),
    ("gmt", "descents6", "count"),
    ("gmt", "descents6", "signed"),
    ("mt", "increasing6", "stream"),
    ("dmt", "decreasing7", "stream"),
    ("tn", "ties6", "count"),
    ("dmt", "decreasing7", "count"),
    ("dmt", "decreasing7b", "stream"),
    ("gmt", "ties6", "stream"),
    ("gmt", "ties7", "stream"),
    ("tn", "descents5", "stream"),
    ("tn", "ties6b", "stream"),
    ("tn", "ties6b", "signed"),
)


def enumerate_stream(seed: int) -> list[Op]:
    rng = random.Random(f"enumerate_stream/{seed}")
    ops = []
    for klass, shape, mode in ENUM_PLAN:
        offset = rng.randint(10, 80)
        row = tuple(v + offset for v in ENUM_SHAPES[shape])
        argv = ("enumerate", klass, "--row", fmt(row))
        if mode != "stream":
            argv += (f"--{mode}",)
        ops.append(Op(argv, ("enumerate", klass, mode)))
    return ops


# Number of points a conjecture family checks at parameter n, from the family
# definitions: (first n, points at n).
FAMILY_POINTS = {
    "comb-rec": (1, lambda n: 1),
    "vsasm-reverse": (1, lambda n: 1),
    "vsasm-dup": (1, lambda n: 1),
    "prefix-dup": (1, lambda n: n + 1),
    "odd-prefix": (1, lambda n: 1),
    "w-symmetry": (1, lambda n: (3 * n + 2) // 2),
    "one-desc": (2, lambda n: n - 1),
    "rev-dup": (1, lambda n: n * (n + 1) // 2),
    "hole-one-desc": (2, lambda n: n - 1),
    "hole-one-desc-i1": (2, lambda n: 1),
    "ratio-k4": (4, lambda n: 1),
    "ratio-k5": (5, lambda n: 1),
    "ratio-k6": (6, lambda n: 1),
}


def family_points(name: str, lo: int, hi: int) -> int:
    first, per_n = FAMILY_POINTS[name]
    return sum(per_n(n) for n in range(max(lo, first), hi + 1))


def _window(a: int, width: int) -> str:
    return f"{a}..{a + width}"


def verify_suite(seed: int) -> list[Op]:
    """Eighteen ``verify`` calls."""
    rng = random.Random(f"verify_suite/{seed}")
    ops = []

    def verify(expected, *args):
        ops.append(Op(("verify",) + args + ("--jobs", "1", "--format", "json"), ("verify", expected)))

    def s() -> str:
        return str(rng.randint(0, 10**6))

    def a() -> int:
        return rng.randint(-4, -2)

    # Identity grids over seeded samples or exhaustive windows.
    verify((("cyclic", 150),), "cyclic", "--n", "5", "--window", "-2..4", "--samples", "150", "--seed", s())
    verify((("cyclic", 120),), "cyclic", "--n", "4", "--window", "-4..4", "--samples", "120", "--seed", s())
    verify((("neighbor-split", 300 * 3),), "neighbor-split", "--n", "4", "--window", "-3..3",
           "--samples", "300", "--seed", s())
    verify((("shift-antisym", 100 * 3),), "shift-antisym", "--n", "4", "--window", "-3..3",
           "--samples", "100", "--seed", s())
    verify((("theorem1", 3 ** 4),), "theorem1", "--n", "4", "--window", _window(a() + 2, 2), "--exhaustive")
    verify((("theorem1", 5 ** 3),), "theorem1", "--n", "3", "--window", _window(a() + 1, 4), "--exhaustive")
    verify((("lemma1", 100 * 4),), "lemma1", "--n", "4", "--window", "-2..2", "--samples", "100",
           "--functions", "4", "--zero-triple-rows", "--seed", s())
    verify((("operator-alt", 100 * 4),), "operator-alt", "--n", "4", "--window", "-2..2", "--samples", "100",
           "--functions", "4", "--seed", s())
    # The decorated reduction on sampled rows.
    verify((("tn-reduction", None),) * 40, "reduction", "--n", "4", "--window", "0..4",
           "--samples", "40", "--seed", s())
    # Conjecture families over explicit ranges, a ratio scan and the full suite.
    for name, lo, hi in (("rev-dup", 1, 5), ("w-symmetry", 1, 3), ("prefix-dup", 1, 4),
                         ("one-desc", 2, 6), ("hole-one-desc", 2, 6), ("comb-rec", 1, 4),
                         ("ratio-k4", 4, 8)):
        verify(((name, family_points(name, lo, hi)),), name, "--n-range", f"{lo}..{hi}")
    verify((("ratio-scan-k4", 5),), "ratio-scan", "--k", "4", "--n-range", "4..8")
    verify(VERIFY_ALL, "all")
    return ops


# ``verify all``: the fixed grids of the CLI, the reduction check on
# (4, 2, 1, 3), and every conjecture family at its two smallest parameters.
VERIFY_ALL = (
    ("theorem1", 5 ** 3),
    ("cyclic", 100),
    ("neighbor-split", 40 * 2),
    ("two-step-split", 40 * 2),
    ("shift-antisym", 40 * 2),
    ("lemma1", 25 * 4),
    ("operator-alt", 25 * 4),
    ("tn-reduction", None),
) + tuple((name, family_points(name, first, first + 1)) for name, (first, _) in FAMILY_POINTS.items())


WORKLOADS = {
    "alpha_mix": alpha_mix,
    "enumerate_stream": enumerate_stream,
    "verify_suite": verify_suite,
}
