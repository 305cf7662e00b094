"""The central counters: partitions of n classified by their restricted mex.

p_{A,a}(n) counts partitions whose mex over the progression a, a+A, ... is
congruent to a mod 2A; pbar_{A,a}(n) counts those congruent to A+a mod 2A.
Together they exhaust p(n).  Three independent routes are provided:

* enumeration  - walk every distinct-part support S once, carrying the
                 number of partitions of each n with exactly that support,
                 and test the mex class of S directly;
* series       - expand 1/(q)_inf times an alternating theta numerator;
* recurrence   - fold shifted partition numbers p(n - offset) with the
                 memoized pentagonal table.

The enumeration route stops at ``limits.ENUMERATION_CAP`` (checked once,
in :func:`mex_census_rows`) and the recurrence at the p(n) table cap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import limits, partitions
from .series import ResidueCondition, alternating_theta, partition_generating_series
from .statistics import MexParams


@lru_cache(maxsize=None)
def _series_row(A: int, a: int, n_max: int, barred: bool) -> tuple[int, ...]:
    # exponent A*n*(n+1)/2 + a*(n+1) barred, A*n*(n-1)/2 + a*n unbarred
    quadratic = (A, A + 2 * a, 2 * a) if barred else (A, 2 * a - A, 0)
    numerator = alternating_theta(quadratic, 0, n_max)
    return (numerator * partition_generating_series(n_max)).coeffs


def p_mex_series(params: MexParams, n_max: int) -> tuple[int, ...]:
    """Coefficients p_{A,a}(0..n_max) from the generating-function route."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _series_row(params.A, params.a, n_max, False)


def pbar_mex_series(params: MexParams, n_max: int) -> tuple[int, ...]:
    """Coefficients pbar_{A,a}(0..n_max) from the generating-function route."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _series_row(params.A, params.a, n_max, True)


def p_mex_recurrence(params: MexParams, n: int) -> int:
    """p_{A,a}(n) by folding shifted partition numbers; 0 for negative n.

    Evaluates p(n) + sum_{m>=1} [p(n - off(2m)) - p(n - off(2m-1))] with
    off(k) = A*k*(k-1)/2 + a*k, stopping at the first m where both shifted
    arguments are negative (the offsets are strictly increasing in m).
    """
    if n < 0:
        return 0
    A, a = params.A, params.a
    total = partitions.p_count(n)
    m = 1
    while True:
        k_odd = 2 * m - 1
        off_odd = A * (k_odd * (k_odd - 1) // 2) + a * k_odd
        if off_odd > n:
            break
        k_even = 2 * m
        off_even = A * (k_even * (k_even - 1) // 2) + a * k_even
        total += partitions.p_count(n - off_even) - partitions.p_count(n - off_odd)
        m += 1
    return total


def pbar_mex_recurrence(params: MexParams, n: int) -> int:
    """pbar_{A,a}(n) = p(n) - p_{A,a}(n); 0 for negative n."""
    if n < 0:
        return 0
    return partitions.p_count(n) - p_mex_recurrence(params, n)


def mex_census_rows(
    n_max: int, pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]]:
    """Rows (p_{A,a}(0..n_max), pbar_{A,a}(0..n_max)) for every (A, a) in ``pairs``.

    A restricted mex depends only on the support S of a partition (its set
    of distinct parts).  A depth-first walk visits every S with
    sum(S) <= n_max once, carrying the number of partitions of each n with
    support exactly S in one int with a fixed-width slot per n; adding part
    s is one multiply by the packed q^s/(1-q^s).  Each S is classified once
    per pair by walking a, a+A, ... through it; an odd run goes to pbar.
    The slot width comes from the restricted-part DP value p(n_max), so
    the pentagonal p(n) stays an independent route.  ``n_max`` is capped
    at ``limits.ENUMERATION_CAP``.
    """
    if n_max < 0:
        raise ValueError("n must be non-negative")
    limits.check_enumeration(n_max)
    pairs = list(dict.fromkeys(pairs))
    if any(A < 1 or a < 1 for A, a in pairs):
        raise ValueError("A and a must be positive integers")
    every_part = ResidueCondition(1, frozenset({0}))
    width = partitions.count_parts_restricted_row(n_max, every_part)[-1].bit_length()
    mask = (1 << width * (n_max + 1)) - 1
    # step[s] is q^s/(1-q^s) = q^s + q^2s + ... packed, truncated at q^n_max
    step = [0] + [
        sum(1 << width * k for k in range(s, n_max + 1, s)) for s in range(1, n_max + 1)
    ]
    # only parts <= n_max can be present, so a step or start past n_max + 1
    # classifies like n_max + 1; a probe then stops by index 2 * n_max + 1
    probes = [(pair, min(pair[0], n_max + 1), min(pair[1], n_max + 1)) for pair in pairs]
    present = bytearray(2 * n_max + 2)
    total = 0
    odd = dict.fromkeys(pairs, 0)

    def visit(counts: int, smallest: int) -> None:
        nonlocal total
        total += counts
        for pair, A, c in probes:
            run = 0
            while present[c]:
                c += A
                run ^= 1
            if run:
                odd[pair] += counts
        for s in range(smallest, n_max + 1):
            grown = counts * step[s] & mask
            if not grown:  # sum(S) + s > n_max, and so for every larger s
                break
            present[s] = 1
            visit(grown, s + 1)
            present[s] = 0

    visit(1, 1)
    del visit  # the closure holds itself through its cell; drop that cycle now
    slot = (1 << width) - 1
    unpack = lambda packed: tuple(packed >> width * n & slot for n in range(n_max + 1))
    return {pair: (unpack(total - odd[pair]), unpack(odd[pair])) for pair in pairs}


def p_mex_enum(params: MexParams, n: int) -> int:
    """p_{A,a}(n) by classifying the mex of every partition of n (support census)."""
    return mex_census_rows(n, [(params.A, params.a)])[params.A, params.a][0][n]


def pbar_mex_enum(params: MexParams, n: int) -> int:
    """pbar_{A,a}(n) by enumeration (support census)."""
    return mex_census_rows(n, [(params.A, params.a)])[params.A, params.a][1][n]


@lru_cache(maxsize=None)
def mex_census(n: int, a_max: int, big_a_max: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Enumeration tallies (p_{A,a}(n), pbar_{A,a}(n)) for every A <= big_a_max, a <= a_max.

    Entry n of :func:`mex_census_rows` over the whole grid: one support walk
    covers every (A, a) pair.
    """
    grid = [(A, a) for a in range(1, a_max + 1) for A in range(1, big_a_max + 1)]
    return {pair: (p[n], pbar[n]) for pair, (p, pbar) in mex_census_rows(n, grid).items()}
