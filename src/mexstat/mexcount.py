"""The central counters: partitions of n classified by their restricted mex.

p_{A,a}(n) counts partitions whose mex over the progression a, a+A, ... is
congruent to a mod 2A; pbar_{A,a}(n) counts those congruent to A+a mod 2A.
Together they exhaust p(n).  Three independent routes are provided:

* enumeration  - the rows 0..n_max of ``census.mex_census_rows``: the
                 per-partition definition, counted without listing;
* series       - the theta quotient of :func:`mex_numerator` over (q)_inf,
                 read as a row by ``series.theta_quotient`` or at n alone
                 by ``series.theta_quotient_at``;
* recurrence   - the signed offsets of :func:`recurrence_offsets` (from
                 off(k) = A*k(k-1)/2 + a*k), read at n against the
                 pentagonal p(n) table by :func:`recurrence_at`, or at
                 n = 0..n_max by :func:`recurrence_row`.

A signed sum of shifted counts (a list of :data:`Term`) is one sparse
numerator on either route, read as a row by :func:`mex_row`.
The enumeration route keeps n <= ``limits.ENUMERATION_CAP`` (checked once,
in the census); the recurrence checks the p(n) table cap first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from . import census, limits, partitions
from .arith import TruncatedSeries, prefix_cache
from .census import mex_census_rows  # noqa: F401  (re-exported: bench/layers.py reads it here)
from .series import theta_quotient, theta_quotient_at, theta_terms
from .statistics import MexParams

# A signed, shifted mex count: (sign, kind, A, a, shift) is
# sign * p_{A,a}(n - shift) for kind "p" and sign * pbar_{A,a}(n - shift) for
# kind "pbar"; both are 0 for n < shift.  The sign is any integer weight.
Term = tuple[int, str, int, int, int]


def mex_numerator(params: MexParams, barred: bool, precision: int) -> dict[int, int]:
    """The theta numerator of p_{A,a} (pbar_{A,a} when ``barred``) over (q)_inf.

    The sum over n >= 0 of (-1)^n q^(A*n*(n-1)/2 + a*n), or of
    (-1)^n q^(A*n*(n+1)/2 + a*(n+1)) barred (Andrews-Newman), as
    :func:`series.theta_terms` up to q^precision.
    """
    A, a = params.A, params.a
    quadratic = (A, A + 2 * a, 2 * a) if barred else (A, 2 * a - A, 0)
    return theta_terms(quadratic, 0, precision)


@prefix_cache
def _series_row(A: int, a: int, barred: bool, n_max: int) -> TruncatedSeries:
    return theta_quotient(mex_numerator(MexParams(A, a), barred, n_max), n_max)


def p_mex_series(params: MexParams, n_max: int) -> tuple[int, ...]:
    """Coefficients p_{A,a}(0..n_max) from the generating-function route."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _series_row(params.A, params.a, False, n_max).coeffs


def pbar_mex_series(params: MexParams, n_max: int) -> tuple[int, ...]:
    """Coefficients pbar_{A,a}(0..n_max) from the generating-function route."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _series_row(params.A, params.a, True, n_max).coeffs


def mex_series_at(params: MexParams, n: int, barred: bool) -> int:
    """p_{A,a}(n), or pbar_{A,a}(n) when ``barred``, on the series route.

    Entry n of :func:`p_mex_series` (:func:`pbar_mex_series`), read by
    :func:`series.theta_quotient_at`; no row is built or cached.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return theta_quotient_at(mex_numerator(params, barred, n), n)


def recurrence_offsets(params: MexParams, barred: bool, n: int) -> dict[int, int]:
    """The shifted-p(n) numerator {d: c} of p_{A,a} (pbar_{A,a} when ``barred``): the
    count at n is sum c * p(n - d), c = (-1)^k at d = A*k*(k-1)/2 + a*k for k >= 0, or
    barred (pbar = p - p_{A,a}) c = (-1)^(k+1) for k >= 1.  Offsets past n are left
    out (all, for negative n); past the p(n) table cap it raises CapacityError first."""
    limits.check_p_table(n)
    A, a = params.A, params.a
    offsets = {}
    k = int(barred)
    while (d := A * (k * (k - 1) // 2) + a * k) <= n:
        offsets[d] = -1 if (k + barred) & 1 else 1
        k += 1
    return offsets


def recurrence_at(offsets: Mapping[int, int], n: int) -> int:
    """The sum of c * p(n - d) over the ``offsets`` {d: c} with d <= n, p read
    off the pentagonal table (:func:`partitions.p_count`); 0 for negative n."""
    limits.check_p_table(n)
    p = partitions.p_count
    return sum([c * p(n - d) for d, c in offsets.items() if d <= n])


def recurrence_row(offsets: Mapping[int, int], n_max: int) -> list[int]:
    """:func:`recurrence_at` of the ``offsets`` {d: c} at each n = 0..n_max."""
    return [recurrence_at(offsets, n) for n in range(n_max + 1)]


def p_mex_recurrence(params: MexParams, n: int) -> int:
    """p_{A,a}(n) by folding shifted partition numbers; 0 for negative n."""
    return recurrence_at(recurrence_offsets(params, False, n), n)


def pbar_mex_recurrence(params: MexParams, n: int) -> int:
    """pbar_{A,a}(n) by folding shifted partition numbers; 0 for negative n."""
    return recurrence_at(recurrence_offsets(params, True, n), n)


def mex_row(route: str, terms: Sequence[Term], n_max: int) -> list[int]:
    """The sum of ``terms`` at n = 0..n_max: each term's numerator (:func:`mex_numerator`
    on route "series", :func:`recurrence_offsets` on route "recurrence") scaled by its
    sign and moved by its shift into one numerator, read once -- as a theta quotient,
    or by :func:`recurrence_row` against the pentagonal p(n) table."""
    if route not in ("series", "recurrence"):
        raise ValueError(f"unknown route {route!r}")
    numerator_of = mex_numerator if route == "series" else recurrence_offsets
    numerator: dict[int, int] = {}
    for sign, kind, A, a, shift in terms:
        if shift <= n_max:
            for d, c in numerator_of(MexParams(A, a), kind == "pbar", n_max - shift).items():
                numerator[d + shift] = numerator.get(d + shift, 0) + sign * c
    if route == "series":
        return list(theta_quotient(numerator, n_max).coeffs)
    return recurrence_row(numerator, n_max)


def p_mex_enum(params: MexParams, n: int) -> int:
    """p_{A,a}(n) on the enumeration route (entry n of ``census.mex_census_rows``)."""
    return census.mex_census_rows(n, [(params.A, params.a)])[params.A, params.a][0][n]


def pbar_mex_enum(params: MexParams, n: int) -> int:
    """pbar_{A,a}(n) on the enumeration route (entry n of ``census.mex_census_rows``)."""
    return census.mex_census_rows(n, [(params.A, params.a)])[params.A, params.a][1][n]


@lru_cache(maxsize=1)
def mex_census(n: int, a_max: int, big_a_max: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Enumeration tallies (p_{A,a}(n), pbar_{A,a}(n)) for every A <= big_a_max, a <= a_max.

    Entry n of ``census.mex_census_rows`` over the whole grid; the last grid is kept.
    """
    grid = [(A, a) for a in range(1, a_max + 1) for A in range(1, big_a_max + 1)]
    return {pair: (p[n], pbar[n]) for pair, (p, pbar) in census.mex_census_rows(n, grid).items()}
