"""Exact truncated power series in one variable q over the integers.

Everything here is integer arithmetic: coefficients are Python ints, there
is no rounding anywhere, and every operation truncates to the minimum of
the operand precisions rather than silently extending a series.  Besides
the arithmetic, this module generates the series the rest of the package
needs: the pentagonal-number expansion of the Euler product, finite
q-Pochhammer products, alternating theta sums, products of (1 +- q^n) over
congruence classes, the two univariate Jacobi-triple-product
specializations, and the generating series for rank/crank counts and their
second moments.

Every theta sum has an exponent (P*n^2 + Q*n + R)/2, given as the triple
(P, Q, R); the indices that land in [0, precision] are computed exactly.
No function here caps its precision; the command line does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Literal

Sign = Literal["minus", "plus"]
Mode = Literal["include", "exclude"]
Quadratic = tuple[int, int, int]


class TruncatedSeries:
    """A power series with exact integer coefficients, known up to a fixed precision.

    ``coeffs[e]`` is the coefficient of ``q**e`` for ``0 <= e <= precision``;
    nothing is asserted about higher exponents.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        for c in cs:
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be exact integers, got {c!r}")
        self._coeffs = cs

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def precision(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, exponent: int) -> int:
        """Coefficient of q**exponent; refuses to read past the precision."""
        if not 0 <= exponent <= self.precision:
            raise ValueError(
                f"coefficient of q^{exponent} is undefined; series is exact only up to q^{self.precision}"
            )
        return self._coeffs[exponent]

    def truncate(self, precision: int) -> TruncatedSeries:
        """Drop coefficients above ``precision`` (never extends)."""
        if precision < 0:
            raise ValueError("precision must be non-negative")
        if precision > self.precision:
            raise ValueError(f"cannot extend precision {self.precision} to {precision}")
        return TruncatedSeries(self._coeffs[: precision + 1])

    def to_decimal_strings(self) -> list[str]:
        """Coefficients as decimal strings (arbitrary-precision-safe serialization)."""
        return [str(c) for c in self._coeffs]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        p = min(self.precision, other.precision)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[i] + b[i] for i in range(p + 1)])

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        p = min(self.precision, other.precision)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[i] - b[i] for i in range(p + 1)])

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if isinstance(other, int):
            return TruncatedSeries([other * c for c in self._coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        p = min(self.precision, other.precision)
        a, b = self._coeffs, other._coeffs
        out = [0] * (p + 1)
        for i in range(p + 1):
            ai = a[i]
            if ai:
                for j in range(p + 1 - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse; the constant coefficient must be +1 or -1."""
        a = self._coeffs
        a0 = a[0]
        if a0 not in (1, -1):
            raise ValueError(f"series is not invertible over the integers: constant term {a0}")
        p = self.precision
        nonzero = [(k, a[k]) for k in range(1, p + 1) if a[k]]
        b = [0] * (p + 1)
        b[0] = a0
        for m in range(1, p + 1):
            s = 0
            for k, ak in nonzero:
                if k > m:
                    break
                s += ak * b[m - k]
            b[m] = -a0 * s
        return TruncatedSeries(b)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        cs = self._coeffs
        shown = ", ".join(str(c) for c in cs[:8])
        if len(cs) > 8:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], precision={self.precision})"


@dataclass(frozen=True)
class ResidueCondition:
    """Selects integers by residue class, for products of (1 +- q^n) and part filters.

    ``mode="include"`` keeps n whose residue mod ``modulus`` lies in
    ``residues``; ``mode="exclude"`` keeps the complement.  ``sign`` picks
    the factor (1 - q^n) or (1 + q^n) when the condition drives a product.
    """

    modulus: int
    residues: frozenset[int]
    sign: Sign = "minus"
    mode: Mode = "include"

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        object.__setattr__(self, "residues", frozenset(self.residues))
        if any(not 0 <= r < self.modulus for r in self.residues):
            raise ValueError(f"residues must lie in [0, {self.modulus})")
        if self.sign not in ("minus", "plus"):
            raise ValueError(f"sign must be 'minus' or 'plus', got {self.sign!r}")
        if self.mode not in ("include", "exclude"):
            raise ValueError(f"mode must be 'include' or 'exclude', got {self.mode!r}")
        if self.mode == "include" and not self.residues:
            raise ValueError("an include condition needs a non-empty residue set")

    def admits(self, n: int) -> bool:
        inside = n % self.modulus in self.residues
        return inside if self.mode == "include" else not inside


def symmetric_residues(modulus: int, values: Iterable[int]) -> frozenset[int]:
    """The residues +-v mod modulus for each v (closure under negation)."""
    out: set[int] = set()
    for v in values:
        out.add(v % modulus)
        out.add(-v % modulus)
    return frozenset(out)


# ---------------------------------------------------------------------------
# in-place helpers for sparse binomial factors
# ---------------------------------------------------------------------------


def _apply_factor(c: list[int], exponent: int, sign: int) -> None:
    """In-place c *= (1 + sign*q^exponent), truncated to len(c)-1."""
    for j in range(len(c) - 1, exponent - 1, -1):
        c[j] += sign * c[j - exponent]


def _apply_inverse_one_minus(c: list[int], exponent: int) -> None:
    """In-place c *= 1/(1 - q^exponent), truncated to len(c)-1."""
    for j in range(exponent, len(c)):
        c[j] += c[j - exponent]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def euler_product(precision: int) -> TruncatedSeries:
    """The product (1-q)(1-q^2)(1-q^3)... via its pentagonal-number expansion.

    The coefficient at exponent m(3m-1)/2 and m(3m+1)/2 is (-1)^m; every
    other coefficient is zero.  This deliberately does not multiply factors,
    so it can serve as an independent cross-check of the literal product.
    """
    if precision < 0:
        raise ValueError("precision must be non-negative")
    c = [0] * (precision + 1)
    c[0] = 1
    m = 1
    while True:
        e1 = m * (3 * m - 1) // 2
        if e1 > precision:
            break
        sign = -1 if m & 1 else 1
        c[e1] += sign
        e2 = m * (3 * m + 1) // 2
        if e2 <= precision:
            c[e2] += sign
        m += 1
    return TruncatedSeries(c)


def pochhammer_finite(n: int, precision: int) -> TruncatedSeries:
    """The finite product (1-q)(1-q^2)...(1-q^n), truncated."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if precision < 0:
        raise ValueError("precision must be non-negative")
    c = [0] * (precision + 1)
    c[0] = 1
    for e in range(1, min(n, precision) + 1):
        _apply_factor(c, e, -1)
    return TruncatedSeries(c)


def _indices(quadratic: Quadratic, n_start: int, bound: int) -> range:
    # the n >= n_start with P*n^2 + Q*n + R <= 2*bound; one interval, as the
    # quadratic is convex, with ends from integer square roots
    P, Q, R = quadratic
    if P == 0:
        return range(n_start, (2 * bound - R) // Q + 1)
    disc = Q * Q - 4 * P * (R - 2 * bound)
    if disc < 0:
        return range(0)
    root = isqrt(disc)
    return range(max(n_start, -((Q + root) // (2 * P))), (root - Q) // (2 * P) + 1)


def alternating_theta(quadratic: Quadratic, n_start: int, precision: int) -> TruncatedSeries:
    """The sum of (-1)^n q^((P*n^2 + Q*n + R)/2) for n >= n_start, truncated.

    ``quadratic`` is (P, Q, R).  The exponent must grow without bound
    (P > 0, or P = 0 and Q > 0) and be an integer (R and P + Q even), and
    it must not be negative at any n >= n_start; otherwise ValueError.
    """
    P, Q, R = quadratic
    if not (P > 0 or P == 0 and Q > 0) or R % 2 or (P + Q) % 2:
        raise ValueError(f"(P*n^2+Q*n+R)/2 with (P, Q, R) = {quadratic} is not a growing integer")
    if precision < 0:
        raise ValueError("precision must be non-negative")
    negative = _indices(quadratic, n_start, -1)
    if negative:
        raise ValueError(f"the exponent is negative at n={negative[0]}")
    c = [0] * (precision + 1)
    for n in _indices(quadratic, n_start, precision):
        c[(P * n * n + Q * n + R) // 2] += -1 if n & 1 else 1
    return TruncatedSeries(c)


def alternating_theta_bilateral(quadratic: Quadratic, precision: int) -> TruncatedSeries:
    """The two-sided sum of (-1)^n q^((P*n^2 + Q*n + R)/2) over all integers n."""
    P, Q, R = quadratic
    return alternating_theta(quadratic, 0, precision) + alternating_theta((P, -Q, R), 1, precision)


def residue_product(cond: ResidueCondition, precision: int) -> TruncatedSeries:
    """Product of (1 +- q^n) over 1 <= n <= precision with n admitted by ``cond``."""
    if precision < 0:
        raise ValueError("precision must be non-negative")
    sign = -1 if cond.sign == "minus" else 1
    c = [0] * (precision + 1)
    c[0] = 1
    for e in range(1, precision + 1):
        if cond.admits(e):
            _apply_factor(c, e, sign)
    return TruncatedSeries(c)


def jtp_specialized(
    k: int,
    i: int,
    parity: Literal["even", "odd"],
    side: Literal["sum", "product"],
    precision: int,
) -> TruncatedSeries:
    """One side of a univariate Jacobi-triple-product specialization.

    With modulus M = 2k ("even") the identity reads

        sum_{n in Z} (-1)^n q^(k*n*(n+1) - i*n)
            = prod_{n>=0} (1 - q^(M*(n+1))) (1 - q^(M*n+i)) (1 - q^(M*(n+1)-i)),

    and with M = 2k+1 ("odd") the exponent on the left is
    (2k+1)*n*(n+1)/2 - i*n with the same product shape.  Requires
    1 <= i <= M-1.  Both sides agree coefficientwise (this is tested, not
    assumed).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    modulus = 2 * k if parity == "even" else 2 * k + 1
    if not 1 <= i <= modulus - 1:
        raise ValueError(f"i must satisfy 1 <= i <= {modulus - 1}, got {i}")

    if side == "sum":
        # both exponents are M*n*(n+1)/2 - i*n
        return alternating_theta_bilateral((modulus, modulus - 2 * i, 0), precision)
    if side != "product":
        raise ValueError(f"side must be 'sum' or 'product', got {side!r}")

    c = [0] * (precision + 1)
    c[0] = 1
    for start in (modulus, i, modulus - i):
        e = start
        while e <= precision:
            _apply_factor(c, e, -1)
            e += modulus
    return TruncatedSeries(c)


@lru_cache(maxsize=None)
def partition_generating_series(precision: int) -> TruncatedSeries:
    """1/((1-q)(1-q^2)...) truncated: coefficient of q^n is the partition count p(n)."""
    return euler_product(precision).invert()


# ---------------------------------------------------------------------------
# rank / crank series
# ---------------------------------------------------------------------------


def _count_series_from_pentagon_like(P: int, m: int, precision: int) -> TruncatedSeries:
    # numerator sum_{j>=1} (-1)^(j-1) (q^off(j) - q^(off(j)+j)) with
    # off(j) = j*(P*j - 1)/2 + j*|m|, times 1/(q)_inf
    lower = alternating_theta((P, 2 * abs(m) - 1, 0), 1, precision)
    upper = alternating_theta((P, 2 * abs(m) + 1, 0), 1, precision)
    return (upper - lower) * partition_generating_series(precision)


@lru_cache(maxsize=None)
def rank_generating_series(m: int, precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient counts partitions of n with rank m."""
    return _count_series_from_pentagon_like(3, m, precision)


@lru_cache(maxsize=None)
def crank_generating_series(m: int, precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient counts partitions of n with crank m.

    Note the classical n = 1 anomaly: the coefficients at q^1 are -1, 1, 1
    for m = 0, +-1, which differs from the per-partition crank of [1].
    """
    return _count_series_from_pentagon_like(1, m, precision)


def _second_moment_series(P: int, precision: int) -> TruncatedSeries:
    # numerator sum_{n>=1} (-1)^n q^(n*(P*n+1)/2) * sum_{r>=0} (2r+1) q^(r*n), times -2/(q)_inf
    num = [0] * (precision + 1)
    for n in _indices((P, 1, 0), 1, precision):
        sign = -1 if n & 1 else 1
        e = n * (P * n + 1) // 2
        r = 0
        while e <= precision:
            num[e] += sign * (2 * r + 1)
            r += 1
            e += n
    return (-2 * TruncatedSeries(num)) * partition_generating_series(precision)


def second_rank_moment_series(precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient is the second rank moment sum_m m^2 N(m,n)."""
    return _second_moment_series(3, precision)


def second_crank_moment_series(precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient is the second crank moment sum_m m^2 M(m,n)."""
    return _second_moment_series(1, precision)


# ---------------------------------------------------------------------------
# Cauchy / parts-parity sums built from incremental 1/(q)_n
# ---------------------------------------------------------------------------


def cauchy_sum_specialized(t_exponent: int, negate_t: bool, precision: int) -> TruncatedSeries:
    """The sum over n >= 0 of t^n/((1-q)...(1-q^n)) at t = q^j or t = -q^j.

    ``t_exponent`` is j (must be >= 1 so the sum terminates at the
    truncation bound); ``negate_t`` selects the sign of t.
    """
    if t_exponent < 1:
        raise ValueError("t must be a positive power of q for the sum to terminate")
    if precision < 0:
        raise ValueError("precision must be non-negative")
    acc = [0] * (precision + 1)
    inv = [0] * (precision + 1)  # running 1/(q)_n
    inv[0] = 1
    n = 0
    while n * t_exponent <= precision:
        if n:
            _apply_inverse_one_minus(inv, n)
        sign = -1 if (negate_t and n & 1) else 1
        shift = n * t_exponent
        for e in range(shift, precision + 1):
            v = inv[e - shift]
            if v:
                acc[e] += sign * v
        n += 1
    return TruncatedSeries(acc)


def parts_parity_series(parity: Literal["even", "odd"], precision: int) -> TruncatedSeries:
    """Generating series for partitions into an even/odd number of parts.

    Built as the sum over all part-counts j of q^j/((1-q)...(1-q^j)),
    restricted to even or odd j.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    want = 0 if parity == "even" else 1
    acc = [0] * (precision + 1)
    inv = [0] * (precision + 1)
    inv[0] = 1
    for j in range(0, precision + 1):
        if j:
            _apply_inverse_one_minus(inv, j)
        if j % 2 == want:
            for e in range(j, precision + 1):
                v = inv[e - j]
                if v:
                    acc[e] += v
    return TruncatedSeries(acc)
