"""Per-partition statistics (mex, rank, crank) and their aggregates.

Aggregate counts come in two flavours wherever a generating function
exists: a combinatorial one from a single enumeration pass per n (cached
histograms) and a series one read off the corresponding generating series.
The two agree everywhere except the classical crank anomaly at n = 1,
which is exposed, documented and tested rather than hidden.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Literal

from . import limits, partitions
from .series import crank_generating_series, rank_generating_series

Method = Literal["combinatorial", "series"]

MAX_MOMENT_ORDER = 4


@dataclass(frozen=True)
class MexParams:
    """The pair (A, a): step and base residue of the arithmetic progression a, a+A, ..."""

    A: int
    a: int

    def __post_init__(self) -> None:
        if self.A < 1 or self.a < 1:
            raise ValueError(f"A and a must be positive integers, got A={self.A}, a={self.a}")


def mex(parts: Iterable[int], params: MexParams) -> int:
    """Smallest integer >= a, congruent to a mod A, that is not a part."""
    have = set(parts)
    c = params.a
    while c in have:
        c += params.A
    return c


def rank(parts: Iterable[int]) -> int:
    """Largest part minus the number of parts (0 for the empty partition)."""
    ps = tuple(parts)
    if not ps:
        return 0
    return max(ps) - len(ps)


def crank(parts: Iterable[int]) -> int:
    """Largest part if there are no ones; otherwise (#parts > #ones) - #ones.

    0 for the empty partition by convention.
    """
    ps = tuple(parts)
    if not ps:
        return 0
    ones = sum(1 for x in ps if x == 1)
    if ones == 0:
        return max(ps)
    return sum(1 for x in ps if x > ones) - ones


# ---------------------------------------------------------------------------
# one enumeration pass per n, shared by all combinatorial aggregates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _stat_census(n: int) -> tuple[dict[int, int], dict[int, int], int]:
    # returns (rank histogram, crank histogram, spt total); every
    # combinatorial aggregate comes through here, so the n range is checked here
    if n < 1:
        raise ValueError("n must be at least 1")
    limits.check_enumeration(n)
    rank_hist: dict[int, int] = {}
    crank_hist: dict[int, int] = {}
    spt_total = 0
    for parts in partitions.ascending_partitions(n):
        length = len(parts)
        largest = parts[-1]
        r = largest - length
        rank_hist[r] = rank_hist.get(r, 0) + 1
        ones = bisect_right(parts, 1)
        if ones == 0:
            c = largest
        else:
            c = (length - bisect_right(parts, ones)) - ones
        crank_hist[c] = crank_hist.get(c, 0) + 1
        spt_total += bisect_right(parts, parts[0])
    return rank_hist, crank_hist, spt_total


def rank_histogram(n: int) -> dict[int, int]:
    """Map rank value -> number of partitions of n with that rank."""
    return dict(_stat_census(n)[0])


def crank_histogram(n: int) -> dict[int, int]:
    """Map crank value -> number of partitions of n with that crank."""
    return dict(_stat_census(n)[1])


# ---------------------------------------------------------------------------
# series crank aggregates: one row over n = 0..n_max from the M(m, .) series
# ---------------------------------------------------------------------------


def _crank_series_row(n_max: int, weight: Callable[[int], int]) -> tuple[int, ...]:
    # entry n is sum over m in [-n, n] of weight(m) * M(m, n); M(-m, n) = M(m, n),
    # so the pair +-m contributes (weight(m) + weight(-m)) * M(m, n) for n >= m
    if n_max < 0:
        raise ValueError("n must be non-negative")
    out = [0] * (n_max + 1)
    for m in range(n_max + 1):
        w = weight(m) + weight(-m) if m else weight(0)
        if w:
            row = crank_generating_series(m, n_max).coeffs
            for n in range(m, n_max + 1):
                out[n] += w * row[n]
    return tuple(out)


def crank_moment_row(k: int, n_max: int) -> tuple[int, ...]:
    """Series crank moments sum_m m^k M(m, n) for n = 0..n_max."""
    if not 0 <= k <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}")
    return _crank_series_row(n_max, lambda m: m**k)


def crank_count_at_least_row(j: int, n_max: int) -> tuple[int, ...]:
    """Series counts of partitions of n with crank >= j, for n = 0..n_max."""
    return _crank_series_row(n_max, lambda m: m >= j)


def crank_count_below_row(j: int, n_max: int) -> tuple[int, ...]:
    """Series counts of partitions of n with crank < j, for n = 0..n_max."""
    return _crank_series_row(n_max, lambda m: m < j)


# ---------------------------------------------------------------------------
# rank / crank counts
# ---------------------------------------------------------------------------


def rank_count(m: int, n: int, method: Method = "combinatorial") -> int:
    """N(m, n): partitions of n with rank exactly m."""
    if method == "combinatorial":
        return _stat_census(n)[0].get(m, 0)
    if method == "series":
        if n < 0:
            raise ValueError("n must be non-negative")
        return rank_generating_series(abs(m), n).coeff(n)
    raise ValueError(f"unknown method {method!r}")


def crank_count(m: int, n: int, method: Method = "combinatorial") -> int:
    """M(m, n): partitions of n with crank exactly m.

    The two methods agree for n >= 2; at n = 1 the series gives
    (-1, 1, 1) at m = (0, +-1) while the per-partition crank of [1] is -1.
    """
    if method == "combinatorial":
        return _stat_census(n)[1].get(m, 0)
    if method == "series":
        if n < 0:
            raise ValueError("n must be non-negative")
        return crank_generating_series(abs(m), n).coeff(n)
    raise ValueError(f"unknown method {method!r}")


def rank_count_at_least(j: int, n: int) -> int:
    """Partitions of n with rank >= j (combinatorial)."""
    hist = _stat_census(n)[0]
    return sum(c for m, c in hist.items() if m >= j)


def rank_count_below(j: int, n: int) -> int:
    """Partitions of n with rank < j (combinatorial)."""
    hist = _stat_census(n)[0]
    return sum(c for m, c in hist.items() if m < j)


def crank_count_at_least(j: int, n: int, method: Method = "series") -> int:
    """Partitions of n with crank >= j (entry n of :func:`crank_count_at_least_row`)."""
    if method == "series":
        return crank_count_at_least_row(j, n)[n]
    return sum(c for m, c in _stat_census(n)[1].items() if m >= j)


def crank_count_below(j: int, n: int, method: Method = "series") -> int:
    """Partitions of n with crank < j (entry n of :func:`crank_count_below_row`)."""
    if method == "series":
        return crank_count_below_row(j, n)[n]
    return sum(c for m, c in _stat_census(n)[1].items() if m < j)


# ---------------------------------------------------------------------------
# moments, spt, Garden of Eden
# ---------------------------------------------------------------------------


def rank_moment(k: int, n: int) -> int:
    """k-th rank moment: sum over m of m^k N(m, n)."""
    if not 0 <= k <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}")
    return sum(m**k * c for m, c in _stat_census(n)[0].items())


def crank_moment(k: int, n: int) -> int:
    """k-th crank moment: sum over m of m^k M(m, n), with the series M.

    Uses the series-defined crank distribution so that identities hold from
    n = 1 (e.g. the second moment equals 2*n*p(n) for all n >= 1).  For
    n >= 2 it coincides with the enumerated distribution; see
    :func:`crank_moment_enumerated` for the per-partition version.
    Entry n of :func:`crank_moment_row`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return crank_moment_row(k, n)[n]


def crank_moment_enumerated(k: int, n: int) -> int:
    """k-th crank moment over the enumerated (per-partition) distribution."""
    if not 0 <= k <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}")
    return sum(m**k * c for m, c in _stat_census(n)[1].items())


def spt_direct(n: int) -> int:
    """Total appearances of the smallest part over all partitions of n."""
    return _stat_census(n)[2]


def goe_count(n: int) -> int:
    """Partitions of n with rank <= -2 (Garden-of-Eden partitions)."""
    hist = _stat_census(n)[0]
    return sum(c for m, c in hist.items() if m <= -2)
