"""The theta and product series, on the arithmetic of ``arith``.

This module generates the series the rest of the package needs:
alternating theta sums, the Euler product among them as the bilateral
pentagonal theta, finite q-Pochhammer products, products of (1 +- q^n) over
congruence classes, the two univariate Jacobi-triple-product
specializations, the 1/(q)_inf row, and the generating series for rank/crank
counts and their second moments.  It reads ``arith`` alone: no pentagonal
table and no counting DP.

Every theta sum has an exponent (P*n^2 + Q*n + R)/2, given as the triple
(P, Q, R); :func:`theta_terms` expands each, the indices that land in
[0, precision] computed exactly.  No function caps its precision; the CLI does.

Slot widths of the factor products, beside the two bounds of ``arith``:

* a product of (1 +- q^e) whose exponents fall in c residue classes mod
  M, listed with multiplicity, c' of them nonzero: every |c_N| <=
  2^c' * exp(pi*sqrt(c*P/(3M))), which :func:`_binomial_product` takes
  when it is the narrower (``arith.coefficient_bits`` holds equality too).  Proof: as
  for the weight bound |c_N| <= x^-N prod (1+x^e) over the exponents, no
  more than over every exponent of their classes, and the class of r
  contributes sum_{n>=0} log(1+x^(Mn+r)) (n >= 1 when r = 0).  For r >= 1
  its n = 0 term is below log 2 and its n >= 1 terms are each at most
  log(1+x^(Mn)); the sum over n >= 1 of those is log prod (1+y^n) with
  y = x^M = e^-(Mt), below pi^2/(12Mt).  So log |c_N| <= Nt + c' log 2 +
  c pi^2/(12Mt), and t = pi*sqrt(c/(12MN)) gives c' log 2 +
  pi*sqrt(cN/(3M)), which grows with N.  The bound reads only the classes
  the exponents are drawn from, never the identity a product is checked
  against.  A Jacobi triple product mod M draws from 3 classes, 0, i and
  M - i: the odd one at k = 6 (M = 13, P = 1000) takes 46 bits against the
  86 of weight 1.
* the Euler transform of a product of (1 - q^e)^(r_e) (see
  :func:`_euler_transform`): bitlen(max |F_j| found so far) + bitlen(sum
  of |c_k|) + 1, since every partial sum sum_j F_j c_(n-j) it holds is at
  most max|F_j| * sum_k |c_k| over the F_j added; a coefficient that
  outgrows the slots widens those ahead, and a theta with coefficients in
  {-1, 0, 1} runs in 3-byte slots at P = 1000, on the word path of
  ``arith.PackedRows``.

A sum of s(n) q^(tn)/(q)_n with periodic signs reads one running 1/(q)_n,
which stops where every later term reads it whole: at n = P/2 for t = 1, not
at P (see :func:`_cauchy_terms`).

A product of factors (1 +- q^e) takes one shifted add per factor, or, for
sign -1 and many factors, the Euler transform: the logarithmic-derivative
recurrence solved online, one packed pass per nonzero coefficient.  Jacobi
triple products and prod (1 - q^n) are thetas with O(sqrt P) nonzeros; a
product whose coefficients prove dense hands back to shifted adds.

Theta quotients.  Every count with a series route -- p_{A,a} and
pbar_{A,a}, N(m, n), M(m, n), their second moments and the weighted crank
sums -- is a sparse numerator over (q)_inf.  A numerator is a dict
{exponent: coefficient}, summed from weighted alternating thetas by
:func:`theta_terms`.  :func:`theta_quotient` reads it as a row, one multiply
by ``partition_generating_series``; :func:`theta_quotient_at` reads
coefficient n alone, a sum over the numerator's terms against the same
series, read in place wherever the cache holds it at n or above: a point
read copies no row.

Caches.  ``partition_generating_series`` and the rank and crank count
series are held by ``arith.prefix_cache``.  The 1/(q)_inf row grows: the sparse recurrence over
the Euler product reads only the coefficients below the one it computes
(the online, "relaxed" setting of J. van der Hoeven, "Relax, but don't be
too lazy", J. Symbolic Comput. 2002), so a request above the held
precision resumes it after the coefficients held, and a sweep over rising
precisions computes each coefficient once.  The recurrence reads the
Euler product as its O(sqrt P) pentagonal terms, never as a dense row, so
a growth by one coefficient costs no O(P) rebuild of (q)_inf.  The
theta-quotient rows on it (the rank and crank count series here, the mex
rows of ``mexcount``) are one multiply each and rebuild once per new
maximum.  Rising precisions within one process come from point queries (a
sweep of ``mex_series_at`` over n grows the row by one coefficient per
point); the identity catalog builds it at one or two precisions.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain, compress, repeat
from math import isqrt
from operator import add, mul, sub
from typing import Iterable, Literal, Mapping, Sequence

from .arith import (
    PackedRows,
    ResidueCondition,
    TruncatedSeries,
    coefficient_bits,
    prefix_cache,
    recurrence_inverse,
)

Quadratic = tuple[int, int, int]

# For a product of factors (1 - q^e), the Euler transform beats one shift-add per
# factor from _EULER_STEPS steps on (CPython 3.11, 2-vCPU x86-64 VM): at P = 1000
# the triple products of 115 steps take 0.52 ms against 0.68, those of 250 steps
# 0.72 against 2.1, prod (1 - q^n) 1.2 against 5.4; it wins from 113 steps at
# P = 300.  At P = 200 the one catalog product past 115 steps, jtp-even-lemma at
# k = 1 (150), takes 0.26 ms against 0.31; the other 41 triple products stay on
# shift-adds.  A dense product hands back within its first _BLOCK coefficients.
_EULER_STEPS = 115
_BLOCK = 64


Classes = tuple[int, Sequence[int]]


def _slot_size(counts: Mapping[int, int], precision: int, classes: Classes) -> int:
    """Bytes per slot of :func:`_binomial_product`: the weight-r bound, r the
    largest count, or the per-class bound of ``classes`` when it is narrower
    (see the module docstring)."""
    modulus, residues = classes
    nonzero = sum(1 for r in residues if r % modulus)
    bits = coefficient_bits(max(counts.values(), default=1), precision)
    return (min(bits, nonzero + coefficient_bits(len(residues), precision, modulus)) + 7) // 8


def _binomial_product(
    counts: Mapping[int, int], sign: int, precision: int, classes: Classes
) -> TruncatedSeries:
    """The product of (1 + sign*q^e)^r over ``counts`` {e: r}, each
    1 <= e <= precision, truncated at q^precision.

    ``classes`` is (M, residues): the exponents are drawn from the classes
    of those residues mod M, each residue listed as often as its class may
    repeat ((1, (0,)) for any exponent, once).  Two routes, both from the
    factors alone: shift-adds (:func:`_factor_shift_add`), one full-row pass
    per factor with 2e <= precision in slots of the bound :func:`_slot_size`
    picks, and for sign -1 with at least _EULER_STEPS such factors the Euler
    transform (:func:`_euler_transform`), one pass per nonzero coefficient in
    slots sized from the coefficients found, which hands back to shift-adds
    when they are not sparse.
    """
    if precision < 0:
        raise ValueError("precision must be non-negative")
    size = _slot_size(counts, precision, classes)
    steps = sum(r for e, r in counts.items() if 2 * e <= precision)
    coeffs = None
    if sign < 0 and steps >= _EULER_STEPS:
        coeffs = _euler_transform(counts, precision, steps, classes)
    if coeffs is None:
        coeffs = _factor_shift_add(counts, sign, precision, size)
    return TruncatedSeries._of_checked(tuple(coeffs))


def _factor_shift_add(
    counts: Mapping[int, int], sign: int, precision: int, size: int
) -> list[int]:
    """The coefficients of :func:`_binomial_product` in slots of ``size`` bytes.  The
    factors with 2e > precision multiply to 1 + sign * sum r q^e (no product of two
    of their terms fits), which is placed as the start; every other factor adds or
    subtracts the row shifted by e slots.  A difference is reduced modulo
    q^(precision+1), as a shift of a negative int costs more."""
    rows = PackedRows.of_size(precision, size)
    packed = 1 + sign * rows.place({e: r for e, r in counts.items() if 2 * e > precision})
    for e, r in counts.items():
        if 2 * e <= precision:
            for _ in range(r):
                low = rows.shift(packed, e)
                packed = packed + low if sign > 0 else rows.truncate(packed - low)
    return rows.signed(packed)


def _euler_transform(
    counts: Mapping[int, int], precision: int, steps: int, classes: Classes
) -> list[int] | None:
    """The coefficients F_0..F_precision of prod (1 - q^e)^r over ``counts`` {e: r},
    each 1 <= e <= precision, the e drawn from ``classes`` as in
    :func:`_binomial_product`.  It returns None as soon as the nonzeros found,
    projected from the end of their block to the precision at the sqrt(n) growth
    of a theta, pass ``steps`` / 4: one pass per nonzero would then cost about what
    ``steps`` shift-adds cost.

    The logarithmic derivative gives F_0 = 1 and n F_n = sum_{k=1}^n c_k F_(n-k)
    (see :func:`_log_derivative`), solved online: each nonzero F_j adds F_j times
    the packed c row, shifted j slots, into one accumulator, which is read _BLOCK
    slots at a time; within the block, each slot is read after the terms of the
    nonzeros before it, added by one list pass each.  A finished block is dropped
    by one right shift, plus 1 when its highest nonzero n F_n is negative (the
    floor of its low slots), and the accumulator and c row are cut to the slots
    still ahead.  The slots hold bitlen(max|F_j| found) + bitlen(sum |c_k|) + 1
    bits (see the module docstring); a block whose F_j outgrow them first packs
    the slots ahead wider.  The first block reads F_0 = 1 alone, so it needs only
    c below _BLOCK, and a dense product falls back before the whole row is built.
    """
    f, largest, nonzero, rows = [1] + [0] * precision, 1, 1, None
    w = [0] * (precision + 1)
    for e, r in counts.items():
        w[e] = r * e
    c = _log_derivative(w, min(precision, _BLOCK - 1), classes)
    for start in range(0, precision + 1, _BLOCK):
        stop = min(_BLOCK, precision + 1 - start)
        sums = head.signed(acc & head.mask)[:stop] if start else c[:stop]
        near, top = [] if start else [0], 0
        for i in compress(range(stop), sums):  # each sums[i] read after the passes before it
            s, n, nonzero = sums[i], start + i, nonzero + 1
            if 16 * nonzero * nonzero * (precision + 1) > (start + stop) * steps * steps:
                return None
            f[n], rest = divmod(s, n)
            if rest:
                raise ArithmeticError(f"n F_n = {s} at n = {n} is not a multiple of n")
            sums[i + 1 :] = map(add, sums[i + 1 :], map(mul, c[1 : stop - i], repeat(f[n])))
            near.append(n)
            largest, top = max(largest, abs(f[n])), s
        if not start:
            c = _log_derivative(w, precision, classes)
            spread = (-sum(c)).bit_length() + 1  # bitlen(sum |c_k|) and a sign bit
        size = (largest.bit_length() + spread + 7) // 8
        if rows is None or size > rows.size:
            ahead = precision + 1 - start
            held = rows.signed(acc)[:ahead] if rows else ()
            rows, head = PackedRows.of_size(ahead - 1, size), PackedRows.of_size(_BLOCK - 1, size)
            acc, packed, keep = rows.pack(held), rows.pack(c[:ahead]), rows.mask
        for j in near:
            acc += f[j] * packed << rows.width * (j - start)
        acc >>= rows.width * _BLOCK
        if top < 0:
            acc += 1
        keep >>= rows.width * _BLOCK
        packed, acc = packed & keep, acc & keep
    return f


def _log_derivative(w: Sequence[int], top: int, classes: Classes) -> list[int]:
    """c_0..c_top of q F'/F for F = prod (1 - q^e)^r, given w_e = r_e e at each
    e <= top: c_k = -sum_{e | k} w_e (Apostol, Introduction to Analytic Number
    Theory, ch. 14).  Every e with w_e != 0 lies in a class of ``classes`` (M,
    residues), as in :func:`_binomial_product`.  Each pair e * m = k <= top of such
    an e is read once, by strided slice updates: one per e <= sqrt(M * top) over its
    multiples, and one per m and class over its larger e."""
    modulus, residues = classes
    c, split = [0] * (top + 1), min(top, isqrt(modulus * top))
    for e in range(1, split + 1):
        if w[e]:
            c[e::e] = map(sub, c[e::e], repeat(w[e]))
    for r in {r % modulus for r in residues}:
        low = split + 1 + (r - split - 1) % modulus  # the least e > split in the class
        for m in range(1, top // low + 1):
            row = slice(m * low, None, m * modulus)
            c[row] = map(sub, c[row], w[low : top // m + 1 : modulus])
    return c


def _cauchy_terms(
    cases: Sequence[tuple[Sequence[int], int]], precision: int
) -> list[TruncatedSeries]:
    """For each case (pattern, t), the sum over n >= 0 of
    pattern[n % len(pattern)] * q^(t*n) / ((1-q)...(1-q^n)), truncated; one series
    per case.  Each pattern is non-empty and each t >= 1.

    Every case reads one running 1/(q)_n, built once: 1/(1 - q^n) is one
    :meth:`PackedRows.stride`.  Term m reads 1/(q)_m only below degree
    precision - t*m, and 1/(q)_m = 1/(q)_n below degree n + 1 for m >= n.  So from
    n = ceil((precision - t) / (t + 1)) on, where precision - t*(n + 1) <= n, every
    term reads 1/(q)_n itself, and the tail of the case is the terms n .. n + L - 1
    (L = len(pattern)) over 1/(q)_n, divided by 1 - q^(t*L): one stride.  A case is
    live until that n.  The inverse is strided on rows as narrow as the slots the
    live case of smallest t still reads, and the pass stops when no case is live.
    Terms before the tail are added untruncated; the final decode drops what lies
    above the precision.  With every sign in {-1, 0, 1} the coefficients are at
    most p(precision) in absolute value, the weight-2 bound: adding t - 1 to each
    of the n parts of a partition counted by q^n/(q)_n is injective into the
    partitions of the shifted size.
    """
    if precision < 0:
        raise ValueError("precision must be non-negative")
    size = (coefficient_bits(2, precision) + 7) // 8
    rows = PackedRows.of_size(precision, size)
    tails = [max(0, -((t - precision) // (t + 1))) for _, t in cases]
    inverse, totals = 1, [0] * len(cases)  # 1/(q)_n and the sums, packed
    live = range(len(cases))
    n = 0
    while live:
        if n:
            # this n and every later one read only the low ``room`` slots
            room = precision + 1 - n * min(cases[c][1] for c in live)
            inverse = rows.stride(inverse, n, room)
        for c in live:
            pattern, t = cases[c]
            if n < tails[c]:
                sign = pattern[n % len(pattern)]
                if sign > 0:
                    totals[c] += rows.lift(inverse, n * t)
                elif sign < 0:
                    totals[c] -= rows.lift(inverse, n * t)
                continue
            period = len(pattern)
            tail = sum(
                pattern[m % period] * rows.lift(inverse, m * t)
                for m in range(n, n + period)
                if m * t <= precision and pattern[m % period]
            )
            totals[c] += rows.stride(rows.truncate(tail), t * period)
        live = [c for c in live if n < tails[c]]
        n += 1
    return [TruncatedSeries._of_checked(tuple(rows.signed(total))) for total in totals]


# -- generators ---------------------------------------------------------------


# (q)_inf = sum over n in Z of (-1)^n q^(n(3n-1)/2): Euler's pentagonal theorem
_PENTAGONAL = (3, -1, 0)


def euler_product(precision: int) -> TruncatedSeries:
    """The product (1-q)(1-q^2)(1-q^3)... via its pentagonal-number expansion.

    By Euler's pentagonal theorem it is the bilateral theta on (3, -1, 0).  This
    deliberately does not multiply factors, so it can serve as an independent
    cross-check of the literal product.
    """
    return alternating_theta_bilateral(_PENTAGONAL, precision)


def pochhammer_finite(n: int, precision: int) -> TruncatedSeries:
    """The finite product (1-q)(1-q^2)...(1-q^n), truncated."""
    if n < 0:
        raise ValueError("n must be non-negative")
    exponents = dict.fromkeys(range(1, min(n, precision) + 1), 1)
    return _binomial_product(exponents, -1, precision, (1, (0,)))


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


def theta_terms(
    quadratic: Quadratic, n_start: int, precision: int, weight: int = 1, into: dict | None = None
) -> dict[int, int]:
    """``weight`` times :func:`alternating_theta` as terms {exponent: coefficient},
    added to ``into`` (a new dict by default), so that thetas sum into one numerator."""
    P, Q, R = quadratic
    terms = {} if into is None else into
    indices = _theta_indices(quadratic, n_start, precision)
    if indices:
        # e(n + 1) - e(n) = P*n + (P + Q)/2: each exponent is the last plus a step
        # that grows by P, and the sign alternates
        n = indices.start
        e, step = (P * n * n + Q * n + R) // 2, P * n + (P + Q) // 2
        c = -weight if n & 1 else weight
        for _ in indices:
            terms[e] = terms.get(e, 0) + c
            e, step, c = e + step, step + P, -c
    return terms


def _truncated(terms: Mapping[int, int], precision: int) -> TruncatedSeries:
    # the series of the terms with exponent at most ``precision``
    c = [0] * (precision + 1)
    for e, x in terms.items():
        if e <= precision:
            c[e] += x
    return TruncatedSeries._of_checked(tuple(c))


def alternating_theta(quadratic: Quadratic, n_start: int, precision: int) -> TruncatedSeries:
    """The sum of (-1)^n q^((P*n^2 + Q*n + R)/2) for n >= n_start, truncated.

    ``quadratic`` is (P, Q, R).  The exponent must grow without bound
    (P > 0, or P = 0 and Q > 0) and be an integer (R and P + Q even), and
    it must not be negative at any n >= n_start; otherwise ValueError.
    """
    return _truncated(theta_terms(quadratic, n_start, precision), precision)


def _theta_indices(quadratic: Quadratic, n_start: int, precision: int) -> range:
    # the indices of the terms up to q^precision, once the quadratic is checked
    P, Q, R = quadratic
    if not (P > 0 or P == 0 and Q > 0) or R % 2 or (P + Q) % 2:
        raise ValueError(f"(P*n^2+Q*n+R)/2 with (P, Q, R) = {quadratic} is not a growing integer")
    if precision < 0:
        raise ValueError("precision must be non-negative")
    negative = _indices(quadratic, n_start, -1)
    if negative:
        raise ValueError(f"the exponent is negative at n={negative[0]}")
    return _indices(quadratic, n_start, precision)


def alternating_theta_bilateral(quadratic: Quadratic, precision: int) -> TruncatedSeries:
    """The two-sided sum of (-1)^n q^((P*n^2 + Q*n + R)/2) over all integers n."""
    return _truncated(_bilateral_terms(quadratic, precision), precision)


def _bilateral_terms(quadratic: Quadratic, precision: int) -> dict[int, int]:
    # the terms of alternating_theta_bilateral: n >= 0 on the quadratic, n <= -1 as
    # n >= 1 on its mirror (P, -Q, R)
    P, Q, R = quadratic
    return theta_terms((P, -Q, R), 1, precision, into=theta_terms(quadratic, 0, precision))


def residue_product(cond: ResidueCondition, precision: int) -> TruncatedSeries:
    """Product of (1 +- q^n) over 1 <= n <= precision with n admitted by ``cond``,
    built from its factors alone on either route of :func:`_binomial_product`,
    never from a theta expansion."""
    sign = -1 if cond.sign == "minus" else 1
    # every exponent up to the precision has its residue below min(M, precision + 1);
    # the exponents of residue r are r (or M for r = 0) plus the multiples of M
    modulus = cond.modulus
    admitted = [r for r in range(min(modulus, precision + 1)) if cond.admits(r)]
    exponents = chain.from_iterable(range(r or modulus, precision + 1, modulus) for r in admitted)
    return _binomial_product(dict.fromkeys(exponents, 1), sign, precision, (modulus, admitted))


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

    # with i = k (even) the classes i and M - i coincide: each factor twice
    starts = (modulus, i, modulus - i)
    exponents = chain.from_iterable(range(start, precision + 1, modulus) for start in starts)
    return _binomial_product(Counter(exponents), -1, precision, (modulus, starts))


def _partition_row(precision: int, known: Sequence[int] = ()) -> TruncatedSeries:
    # the sparse recurrence over the O(sqrt(precision)) pentagonal terms of (q)_inf,
    # resumed after the ``known`` coefficients
    terms = _bilateral_terms(_PENTAGONAL, precision)
    return TruncatedSeries._of_checked(tuple(recurrence_inverse(terms, precision, known)))


@partial(prefix_cache, grow=lambda held, precision: _partition_row(precision, held.coeffs))
def partition_generating_series(precision: int) -> TruncatedSeries:
    """1/((1-q)(1-q^2)...) truncated: coefficient of q^n is the partition count p(n).

    The sparse recurrence inverts the Euler product, read as its pentagonal
    terms; the cached series grows from the coefficients it holds (see
    :func:`prefix_cache`)."""
    return _partition_row(precision)


# the held 1/(q)_inf row at a precision or above, read in place by point reads; bound
# here, so that it stays the cache's own when the module name is rebound
_partition_row_at_least = partition_generating_series.at_least


def theta_quotient(numerator: Mapping[int, int], precision: int) -> TruncatedSeries:
    """``numerator`` ({exponent: coefficient}, see :func:`theta_terms`) times
    1/(q)_inf, truncated: one multiply by :func:`partition_generating_series`."""
    row = partition_generating_series(precision)
    return _truncated(numerator, precision) * row


def theta_quotient_at(numerator: Mapping[int, int], n: int) -> int:
    """Coefficient n of :func:`theta_quotient`: the sum of c * p(n - e) over the
    terms c q^e with e <= n, p read in place off the series that
    ``partition_generating_series`` holds at precision n or above, with no copy."""
    p = _partition_row_at_least(n).coeffs
    return sum([c * p[n - e] for e, c in numerator.items() if e <= n])


# -- rank / crank series ------------------------------------------------------

# P of the count numerators' exponents j*(P*j - 1)/2 + j*|m|
_COUNT_P = {"rank": 3, "crank": 1}


def count_numerator(
    stat: str, m: int, precision: int, weight: int = 1, into: dict | None = None
) -> dict[int, int]:
    """``weight`` times the numerator of the rank or crank count series of m, added
    to ``into`` as by :func:`theta_terms`: sum_{j>=1} (-1)^(j-1) (q^off(j) -
    q^(off(j)+j)), off(j) = j*(P*j - 1)/2 + j*|m|, P = 3 (rank) or 1 (crank)."""
    P, m = _COUNT_P[stat], abs(m)
    terms = theta_terms((P, 2 * m + 1, 0), 1, precision, weight, into)
    return theta_terms((P, 2 * m - 1, 0), 1, precision, -weight, terms)


@prefix_cache
def rank_generating_series(m: int, precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient counts partitions of n with rank m."""
    return theta_quotient(count_numerator("rank", m, precision), precision)


@prefix_cache
def crank_generating_series(m: int, precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient counts partitions of n with crank m.

    Note the classical n = 1 anomaly: the coefficients at q^1 are -1, 1, 1
    for m = 0, +-1, which differs from the per-partition crank of [1].
    """
    return theta_quotient(count_numerator("crank", m, precision), precision)


def _second_moment_series(stat: str, precision: int) -> TruncatedSeries:
    # numerator -2 sum_{n>=1} (-1)^n q^(n*(P*n+1)/2) * sum_{r>=0} (2r+1) q^(r*n), one
    # theta of weight -2(2r+1) per r
    P, terms = _COUNT_P[stat], {}
    for r in range(precision + 1):
        theta_terms((P, 2 * r + 1, 0), 1, precision, -2 * (2 * r + 1), terms)
    return theta_quotient(terms, precision)


def second_rank_moment_series(precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient is the second rank moment sum_m m^2 N(m,n)."""
    return _second_moment_series("rank", precision)


def second_crank_moment_series(precision: int) -> TruncatedSeries:
    """Series whose q^n coefficient is the second crank moment sum_m m^2 M(m,n)."""
    return _second_moment_series("crank", precision)


# -- Cauchy / parts-parity sums built from incremental 1/(q)_n ----------------


def cauchy_sums_specialized(
    cases: Iterable[tuple[int, bool]], precision: int
) -> list[TruncatedSeries]:
    """:func:`cauchy_sum_specialized` at each (t_exponent, negate_t) of ``cases``,
    in order, from one running 1/(q)_n."""
    patterns = []
    for t_exponent, negate_t in cases:
        if t_exponent < 1:
            raise ValueError("t must be a positive power of q for the sum to terminate")
        patterns.append(((1, -1) if negate_t else (1,), t_exponent))
    return _cauchy_terms(patterns, precision)


def cauchy_sum_specialized(t_exponent: int, negate_t: bool, precision: int) -> TruncatedSeries:
    """The sum over n >= 0 of t^n/((1-q)...(1-q^n)) at t = q^j or t = -q^j.

    ``t_exponent`` is j (must be >= 1 so the sum terminates at the
    truncation bound); ``negate_t`` selects the sign of t.
    """
    return cauchy_sums_specialized([(t_exponent, negate_t)], precision)[0]


def parts_parity_sums(
    parities: Iterable[Literal["even", "odd"]], precision: int
) -> list[TruncatedSeries]:
    """:func:`parts_parity_series` of each parity in ``parities``, in order, from
    one running 1/(q)_j."""
    patterns = []
    for parity in parities:
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        patterns.append(((1, 0) if parity == "even" else (0, 1), 1))
    return _cauchy_terms(patterns, precision)


def parts_parity_series(parity: Literal["even", "odd"], precision: int) -> TruncatedSeries:
    """Generating series for partitions into an even/odd number of parts.

    Built as the sum over all part-counts j of q^j/((1-q)...(1-q^j)),
    restricted to even or odd j.
    """
    return parts_parity_sums([parity], precision)[0]
