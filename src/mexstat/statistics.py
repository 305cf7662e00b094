"""Per-partition statistics (mex, rank, crank) and their aggregates.

Aggregate counts come in two flavours wherever a generating function
exists: a combinatorial one and a series one read off the corresponding
generating series.  The combinatorial one counts the per-partition
statistic without listing partitions: counting DPs build one census of the
rank, crank and spt rows over all of n = 0..``limits.ENUMERATION_CAP``
(the hook and Gaussian-binomial count of Ferrers diagrams for the rank,
the split by the number of ones for the Andrews-Garvan crank, the
smallest-part tally over tails for spt), once per process, and kept as plain
int rows, one list per statistic: row functions read the rows |m| <= n_max cut
to entries 0..n_max (weighted and summed for an aggregate), point functions
entry n of the rows |m| <= n.  They share
no code with the series engine or the pentagonal p(n).  The series flavour
is a theta quotient: N(m, n), M(m, n) and every weighted crank sum is a
numerator from ``series.count_numerator`` over (q)_inf.  A crank moment or
crank >= j / < j count has one route: the numerators of every m, weighted,
summed into one numerator, which a row function reads with
``series.theta_quotient`` (one multiply) and a point function reads at n
with ``series.theta_quotient_at``.  The two flavours agree
everywhere except at two points, each exposed, documented and tested rather
than hidden: the classical crank anomaly at n = 1, and the rank at n = 0,
where the census counts the empty partition (rank 0) and the rank series
has no q^0 term (the crank flavours agree at n = 0).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul
from typing import Callable, Iterable, Literal

from . import limits
from .series import FrozenRecord, PackedRows, count_numerator, theta_quotient, theta_quotient_at

Method = Literal["combinatorial", "series"]

MAX_MOMENT_ORDER = 4


class MexParams(FrozenRecord):
    """The pair (A, a): step and base residue of the arithmetic progression a, a+A, ..."""

    __slots__ = ("A", "a")
    A: int
    a: int

    def __init__(self, A: int, a: int) -> None:
        if A < 1 or a < 1:
            raise ValueError(f"A and a must be positive integers, got A={A}, a={a}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)


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
# the census: rank, crank and spt rows over the whole enumeration domain
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _stat_census() -> dict[str, list[tuple[int, ...]]]:
    # one list of int rows per statistic, entry n of a row its count at n for
    # n = 0..ENUMERATION_CAP: the rank and crank rows of m = -n_max..n_max in value
    # order; spt is one row, read as m = 0, so its total is the zeroth moment.  Built
    # packed, weight 4, as spt(n) <= p_2(n): lambda with k of its smallest parts s
    # marked -> (lambda - s^k, s^k) is 1-1; each statistic is unpacked as soon as its
    # DP ends, so no two statistics are held packed at once
    n_max = limits.ENUMERATION_CAP
    rows = PackedRows(n_max, 4)
    census = {}

    # Rank.  Largest part L and k parts: the hook has L + k - 1 = m + 1 cells
    # and the rest fits a (k-1) x (L-1) box, so with j = k - 1 there are
    # q^(m+1) [m choose j]_q of them, of rank m - 2j.  Row m of the Gaussian
    # binomials comes from row m - 1 by [m, j] = [m-1, j-1] + q^j [m-1, j],
    # kept to q^(n_max-m-1), the most that q^(m+1) leaves.
    packed = dict.fromkeys(range(-n_max, n_max + 1), 0)
    packed[0] = 1
    binomials = [1]
    for m in range(n_max):
        if m:
            kept = PackedRows.of_size(n_max - m - 1, rows.size)
            binomials = [
                kept.truncate(
                    (binomials[j - 1] if j else 0) + (kept.lift(binomials[j], j) if j < m else 0)
                )
                for j in range(m + 1)
            ]
        for j, box in enumerate(binomials):
            packed[m - 2 * j] += rows.shift(box, m + 1)
    census["rank"] = list(map(rows.unpack, packed.values()))

    # Crank.  q^w prod_{j=2..w} 1/(1-q^j) counts both the partitions with no
    # ones and largest part w >= 2 (crank w) and w ones together with free
    # parts in [2, w].  The latter take mu parts > w as well,
    # q^(mu(w+1))/(q)_mu, and have crank mu - w.
    packed = dict.fromkeys(range(-n_max, n_max + 1), 0)
    packed[0] = 1
    free = 1
    for w in range(1, n_max + 1):
        if w >= 2:
            free = rows.stride(free, w)
            packed[w] += rows.shift(free, w)
        with_ones = rows.shift(free, w)
        mu = 0
        while with_ones:
            packed[mu - w] += with_ones
            mu += 1
            with_ones = rows.stride(rows.shift(with_ones, w + 1), mu)
    census["crank"] = list(map(rows.unpack, packed.values()))
    del packed

    # spt.  Smallest part s, t >= 1 times, adds t q^(st): q^s/(1-q^s)^2 times
    # the tail T_s of parts above s.
    tails = rows.tails()
    spt = 0
    for s in range(1, n_max + 1):
        spt += rows.stride(rows.stride(rows.shift(tails[s], s), s), s)
    census["spt"] = [rows.unpack(spt)]
    return census


def _census(stat: str, n: int, least: int) -> tuple[range, list[tuple[int, ...]]]:
    # the values m with |m| <= n and the census rows of ``stat`` that hold them (the rows
    # of |m| > n are zero at 0..n), once n is checked: at least ``least`` (0 or 1) and
    # within the cap
    if n < least:
        raise ValueError("n must be at least 1" if least else "n must be non-negative")
    limits.check_enumeration(n)
    rows = _stat_census()[stat]
    middle = len(rows) // 2  # the row of m = 0
    top = min(n, middle)
    return range(-top, top + 1), rows[middle - top : middle + top + 1]


def _census_rows(stat: str, n_max: int) -> dict[int, tuple[int, ...]]:
    # value m -> (count of ``stat`` = m at n for n = 0..n_max), for m in [-n_max, n_max]
    values, rows = _census(stat, n_max, 0)
    return {m: row[: n_max + 1] for m, row in zip(values, rows)}


def _census_row(stat: str, n_max: int, weight: Callable[[int], int]) -> tuple[int, ...]:
    # entry n is the sum over m of weight(m) * (count of ``stat`` = m at n)
    values, rows = _census(stat, n_max, 0)
    cut = n_max + 1
    terms = [
        row if w == 1 else [w * c for c in row[:cut]]
        for w, row in zip(map(weight, values), rows)
        if w
    ]
    return tuple(map(sum, zip([0] * cut, *terms)))


def _census_column(stat: str, n: int) -> tuple[range, tuple[int, ...]]:
    # the values |m| <= n and the count of ``stat`` = m at n of each: entry n of their rows
    values, rows = _census(stat, n, 1)
    return values, tuple(map(itemgetter(n), rows))


def _census_at(stat: str, n: int, weight: Callable[[int], int]) -> int:
    # entry n of _census_row(stat, n, weight), read off entry n of each row alone
    values, column = _census_column(stat, n)
    return sum(map(mul, map(weight, values), column))


# The weights, each a function of the statistic's value m: m >= j is j.__le__(m),
# m < j is j.__gt__(m), m == j is j.__eq__(m).
def _moment(k: int) -> Callable[[int], int]:
    if not 0 <= k <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}")
    return lambda m: m**k


def rank_count_rows(n_max: int) -> dict[int, tuple[int, ...]]:
    """N(m, n) for n = 0..n_max, one row per m in [-n_max, n_max] (counting DP)."""
    return _census_rows("rank", n_max)


def crank_count_rows(n_max: int) -> dict[int, tuple[int, ...]]:
    """Per-partition crank counts for n = 0..n_max, one row per m in [-n_max, n_max]."""
    return _census_rows("crank", n_max)


def rank_count_at_least_row(j: int, n_max: int) -> tuple[int, ...]:
    """Partitions of n with rank >= j, for n = 0..n_max (counting DP)."""
    return _census_row("rank", n_max, j.__le__)


def rank_count_below_row(j: int, n_max: int) -> tuple[int, ...]:
    """Partitions of n with rank < j, for n = 0..n_max (counting DP)."""
    return _census_row("rank", n_max, j.__gt__)


def rank_moment_row(k: int, n_max: int) -> tuple[int, ...]:
    """k-th rank moments sum_m m^k N(m, n) for n = 0..n_max (counting DP)."""
    return _census_row("rank", n_max, _moment(k))


def crank_moment_enumerated_row(k: int, n_max: int) -> tuple[int, ...]:
    """k-th per-partition crank moments for n = 0..n_max (counting DP)."""
    return _census_row("crank", n_max, _moment(k))


def goe_row(n_max: int) -> tuple[int, ...]:
    """Garden-of-Eden counts (rank <= -2) for n = 0..n_max (counting DP)."""
    return _census_row("rank", n_max, (-1).__gt__)


def spt_row(n_max: int) -> tuple[int, ...]:
    """spt(n), the smallest-part tally, for n = 0..n_max (counting DP)."""
    return _census_row("spt", n_max, _moment(0))


def rank_histogram(n: int) -> dict[int, int]:
    """Map rank value -> number of partitions of n with that rank."""
    return {m: c for m, c in zip(*_census_column("rank", n)) if c}


def crank_histogram(n: int) -> dict[int, int]:
    """Map crank value -> number of partitions of n with that crank."""
    return {m: c for m, c in zip(*_census_column("crank", n)) if c}


# ---------------------------------------------------------------------------
# series crank aggregates: one weighted numerator over (q)_inf, read as a row or at n
# ---------------------------------------------------------------------------


def _crank_numerator(n_max: int, weight: Callable[[int], int]) -> dict[int, int]:
    # the sum over m <= n_max of (weight(m) + weight(-m)) times the crank numerator of
    # m (weight(0) at m = 0), as M(-m, n) = M(m, n) and M(m, n) = 0 for m > n
    if n_max < 0:
        raise ValueError("n must be non-negative")
    numerator: dict[int, int] = {}
    for m in range(n_max + 1):
        if w := weight(m) + weight(-m) if m else weight(0):
            count_numerator("crank", m, n_max, w, numerator)
    return numerator


def crank_moment_row(k: int, n_max: int) -> tuple[int, ...]:
    """Series crank moments sum_m m^k M(m, n) for n = 0..n_max."""
    return theta_quotient(_crank_numerator(n_max, _moment(k)), n_max).coeffs


def crank_count_at_least_row(j: int, n_max: int) -> tuple[int, ...]:
    """Series counts of partitions of n with crank >= j, for n = 0..n_max."""
    return theta_quotient(_crank_numerator(n_max, j.__le__), n_max).coeffs


def crank_count_below_row(j: int, n_max: int) -> tuple[int, ...]:
    """Series counts of partitions of n with crank < j, for n = 0..n_max."""
    return theta_quotient(_crank_numerator(n_max, j.__gt__), n_max).coeffs


# ---------------------------------------------------------------------------
# rank / crank counts
# ---------------------------------------------------------------------------


def _count(stat: str, m: int, n: int, method: Method) -> int:
    if method == "combinatorial":
        return _census_at(stat, n, m.__eq__)
    if method == "series":
        if n < 0:
            raise ValueError("n must be non-negative")
        return theta_quotient_at(count_numerator(stat, m, n), n)
    raise ValueError(f"unknown method {method!r}")


def rank_count(m: int, n: int, method: Method = "combinatorial") -> int:
    """N(m, n): partitions of n with rank exactly m.

    The combinatorial method needs n >= 1.  At n = 0 the series gives 0 for
    every m, while the census row gives N(0, 0) = 1 for the empty partition.
    """
    return _count("rank", m, n, method)


def crank_count(m: int, n: int, method: Method = "combinatorial") -> int:
    """M(m, n): partitions of n with crank exactly m.

    The two methods agree for n >= 2; at n = 1 the series gives
    (-1, 1, 1) at m = (0, +-1) while the per-partition crank of [1] is -1.
    """
    return _count("crank", m, n, method)


def rank_count_at_least(j: int, n: int) -> int:
    """Partitions of n with rank >= j (combinatorial)."""
    return _census_at("rank", n, j.__le__)


def rank_count_below(j: int, n: int) -> int:
    """Partitions of n with rank < j (combinatorial)."""
    return _census_at("rank", n, j.__gt__)


def _crank_at(n: int, weight: Callable[[int], int], method: Method) -> int:
    # entry n of the series crank row of ``weight``, read off the same numerator
    if method == "series":
        return theta_quotient_at(_crank_numerator(n, weight), n)
    if method == "combinatorial":
        return _census_at("crank", n, weight)
    raise ValueError(f"unknown method {method!r}")


def crank_count_at_least(j: int, n: int, method: Method = "series") -> int:
    """Partitions of n with crank >= j (entry n of :func:`crank_count_at_least_row`)."""
    return _crank_at(n, j.__le__, method)


def crank_count_below(j: int, n: int, method: Method = "series") -> int:
    """Partitions of n with crank < j (entry n of :func:`crank_count_below_row`)."""
    return _crank_at(n, j.__gt__, method)


# ---------------------------------------------------------------------------
# moments, spt, Garden of Eden
# ---------------------------------------------------------------------------


def rank_moment(k: int, n: int) -> int:
    """k-th rank moment: sum over m of m^k N(m, n)."""
    return _census_at("rank", n, _moment(k))


def crank_moment(k: int, n: int) -> int:
    """k-th crank moment: sum over m of m^k M(m, n), with the series M.

    Uses the series-defined crank distribution so that identities hold from
    n = 1 (e.g. the second moment equals 2*n*p(n) for all n >= 1).  For
    n >= 2 it coincides with the enumerated distribution; see
    :func:`crank_moment_enumerated` for the per-partition version.
    Entry n of :func:`crank_moment_row`, read off one weighted numerator.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _crank_at(n, _moment(k), "series")


def crank_moment_enumerated(k: int, n: int) -> int:
    """k-th crank moment over the enumerated (per-partition) distribution."""
    return _census_at("crank", n, _moment(k))


def spt_direct(n: int) -> int:
    """Total appearances of the smallest part over all partitions of n."""
    return _census_at("spt", n, _moment(0))


def goe_count(n: int) -> int:
    """Partitions of n with rank <= -2 (Garden-of-Eden partitions)."""
    return _census_at("rank", n, (-1).__gt__)
