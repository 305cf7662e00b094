"""Exact truncated power series in one variable q over the integers.

Everything here is integer arithmetic: coefficients are Python ints, there
is no rounding anywhere, and every operation truncates to the minimum of
the operand precisions rather than silently extending a series.  Besides
the arithmetic, this module generates the series the rest of the package
needs: alternating theta sums, the Euler product among them as the
bilateral pentagonal theta, finite q-Pochhammer products, products of
(1 +- q^n) over congruence classes, the two univariate Jacobi-triple-product
specializations, and the generating series for rank/crank counts and their
second moments.

Every theta sum has an exponent (P*n^2 + Q*n + R)/2, given as the triple
(P, Q, R); :func:`theta_terms` expands each, the indices that land in
[0, precision] computed exactly.  No function caps its precision; the CLI does.

Packed arithmetic.  The products, inverses and sums work on one Python int
per series: coefficient c_i sits in a byte-aligned slot of w bits, i.e.
the int is the series evaluated at X = 2^w.  Evaluation at X is a ring
homomorphism from Z[q]/(q^(P+1)) to Z/2^(w(P+1)), so a product of series is
one big-int multiply (Kronecker substitution; D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
arXiv:0712.4046), a factor (1 +- q^e) is one shifted add of the low
P+1-e slots, and intermediate slots may overflow and borrow freely.  Only
the final coefficients must satisfy |c| < 2^(w-1): adding 2^(w-1) to every
slot then leaves each in [0, 2^w), and one pass over the bytes reads them
back.  :class:`PackedRows` holds this format for these kernels and the
counting DPs alike, and converts whole rows in bulk.  A slot of at most 8
bytes is widened to an 8-byte word by one extended-slice copy per byte
position, and one ``struct`` call with an explicit little-endian format
reads or writes every word; in a biased slot the top byte with its bias
bit flipped is the top byte of c in two's complement, and the sign fill of
the word is a second ``bytes.translate`` of that byte.  A wider slot is
read as one ``struct`` string each, by ``int.from_bytes`` through ``map``,
and written by one ``to_bytes`` per slot, which splitting into words does
not beat; the Euler transform's slots follow its coefficients and so stay
on the word path for a theta.  The width comes from one of four places:

* a multiply of known operands: bitlen(max|a|) + bitlen(max|b|) +
  bitlen(nnz of the sparser operand) + 1, since no coefficient of the
  product sums more than that many terms;
* a product of factors (1 +- q^e), or a sum of q^(jn)/(q)_n over n with
  signs: :func:`_coefficient_bits` with a weight r, which holds every
  |c| < exp(pi*sqrt(r*P/3)).  A product of (1 +- q^e)^(r_e) with every
  r_e <= r has coefficients no larger in absolute value than those of
  prod_k (1+q^k)^r.  Write prod (1+x^k) = prod 1/(1-x^(2k-1)); at
  x = e^-t its logarithm is sum_m 1/(2m sinh(mt)) < sum_m 1/(2m^2 t) =
  pi^2/(12t), so [q^N] prod (1+q^k)^r <= x^-N exp(r pi^2/(12t)), and
  t = pi*sqrt(r/(12N)) gives exp(pi*sqrt(rN/3)) (the argument of
  T. M. Apostol, Introduction to Analytic Number Theory, Thm 14.5).  So
  distinct factors take r = 1 and the even Jacobi triple product with
  i = k, which repeats each M*n + i = M*(n+1) - i, takes r = 2.  A sum of
  q^(jn)/(q)_n with signs in {-1, 0, 1} counts, with signs, partitions of
  some N <= P (see :func:`_cauchy_terms`), so it takes r = 2: p(P) <
  exp(pi*sqrt(2P/3)).
* a product of (1 +- q^e) whose exponents fall in c residue classes mod
  M, listed with multiplicity, c' of them nonzero: every |c_N| <=
  2^c' * exp(pi*sqrt(c*P/(3M))), which :func:`_binomial_product` takes
  when it is the narrower (:func:`_coefficient_bits` holds equality too).  Proof: as above |c_N| <= x^-N prod (1+x^e)
  over the exponents, no more than over every exponent of their
  classes, and the class of r contributes sum_{n>=0}
  log(1+x^(Mn+r)) (n >= 1 when r = 0).  For r >= 1 its n = 0 term is
  below log 2 and its n >= 1 terms are each at most log(1+x^(Mn)); the
  sum over n >= 1 of those is log prod (1+y^n) with y = x^M = e^-(Mt),
  below pi^2/(12Mt).  So log |c_N| <= Nt + c' log 2 + c pi^2/(12Mt), and
  t = pi*sqrt(c/(12MN)) gives c' log 2 + pi*sqrt(cN/(3M)), which grows
  with N.  The bound reads only the classes the exponents are drawn
  from, never the identity a product is checked against.  A Jacobi
  triple product mod M draws from 3 classes, 0, i and M - i: the odd
  one at k = 6 (M = 13, P = 1000) takes 46 bits against the 86 of
  weight 1.
* the Euler transform of a product of (1 - q^e)^(r_e) (see
  :func:`_euler_transform`): bitlen(max |F_j| found so far) + bitlen(sum
  of |c_k|) + 1, since every partial sum sum_j F_j c_(n-j) it holds is at
  most max|F_j| * sum_k |c_k| over the F_j added; a coefficient that
  outgrows the slots widens those ahead, and a theta with coefficients in
  {-1, 0, 1} runs in 3-byte slots at P = 1000.

A sum of s(n) q^(tn)/(q)_n with periodic signs, s(n) = pattern[n mod L],
needs 1/(q)_n only while it still changes where the terms read it.  Term m
reads 1/(q)_m below degree P - tm, and 1/(q)_m agrees with 1/(q)_n below
degree n + 1 whenever m >= n.  At n = ceil((P - t)/(t + 1)), P - t(n+1) <= n,
so every term from n on reads 1/(q)_n itself, and the tail is exactly
(sum_{j<L} s(n+j) q^(t(n+j))) / (q)_n / (1 - q^(tL)): one period of terms
and one stride (see :func:`_cauchy_terms`).  For t = 1 the running inverse
stops at n = P/2 instead of P.

Which route a multiply takes depends on the nonzero counts: a loop over
nonzero pairs, shifted adds of the packed dense operand over the sparse
operand's nonzeros, or one Kronecker multiply.  Dense series invert by
Newton iteration (Brent and Zimmermann, Modern Computer Arithmetic, 4.2)
on that multiply; sparse ones by the O(P * nnz) recurrence.  A product of
factors (1 +- q^e) takes one shifted add per factor, or, for sign -1 and
many factors above the catalog's precision, the Euler transform: the
logarithmic-derivative recurrence solved online, one packed pass per
nonzero coefficient.  Jacobi triple products and prod (1 - q^n) are thetas
with O(sqrt P) nonzeros; a product whose coefficients prove dense hands
back to shifted adds.

Theta quotients.  Every count with a series route -- p_{A,a} and
pbar_{A,a}, N(m, n), M(m, n), their second moments and the weighted crank
sums -- is a sparse numerator over (q)_inf.  A numerator is a dict
{exponent: coefficient}, summed from weighted alternating thetas by
:func:`theta_terms`.  :func:`theta_quotient` reads it as a row, one multiply
by ``partition_generating_series``; :func:`theta_quotient_at` reads
coefficient n alone, a sum over the numerator's terms against the same
series, read in place wherever the cache holds it at n or above: a point
read copies no row.  :func:`theta_terms` steps each theta's exponents by
running sums, e(n + 1) - e(n) = P*n + (P + Q)/2, with no quadratic per index.

Caches.  ``partition_generating_series`` and the rank and crank count
series are cached by :func:`prefix_cache`: one series per key (none, or
m), at the largest precision reached so far, and a lower precision is
read as its prefix.  The 1/(q)_inf row grows: the sparse recurrence over
the Euler product reads only the coefficients below the one it computes
(the online, "relaxed" setting of J. van der Hoeven, "Relax, but don't be
too lazy", J. Symbolic Comput. 2002), so a request above the held
precision resumes it after the coefficients held, and a sweep over rising
precisions computes each coefficient once.  The recurrence reads the
Euler product as its O(sqrt P) pentagonal terms, never as a dense row, so
a growth by one coefficient costs no O(P) rebuild of (q)_inf.  The
theta-quotient rows on it (the rank and crank count series here, the mex
rows of ``mexcount``) are one multiply each and rebuild once per new
maximum.  Rising precisions within one process come from point queries:
the ``queries`` workload of ``perfbench`` reads the row at the n of each
series query, and a sweep of ``mex_series_at`` over n grows it by one
coefficient per point, while the identity catalog and the deep series
checks build it at one or two precisions.  A weighted crank sum is one numerator, not a sum of count
series: read as a row by :func:`theta_quotient` or at n by
:func:`theta_quotient_at`, it touches only ``partition_generating_series``,
as does every point read.
"""

from __future__ import annotations

import struct
from _thread import allocate_lock
from collections import Counter
from functools import _CacheInfo, partial, wraps
from itertools import chain, compress, repeat
from math import isqrt
from operator import add, attrgetter, itemgetter, mul, sub
from typing import Callable, Iterable, Literal, Mapping, Sequence

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

    @classmethod
    def _of_checked(cls, coeffs: tuple[int, ...]) -> TruncatedSeries:
        """A series over a non-empty tuple of ints that is known to be valid."""
        series = object.__new__(cls)
        series._coeffs = coeffs
        return series

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
        return TruncatedSeries._of_checked(self._coeffs[: precision + 1])

    def to_decimal_strings(self) -> list[str]:
        """Coefficients as decimal strings (arbitrary-precision-safe serialization)."""
        return [str(c) for c in self._coeffs]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries._of_checked(tuple(map(add, self._coeffs, other._coeffs)))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries._of_checked(tuple(map(sub, self._coeffs, other._coeffs)))

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries._of_checked(tuple([-c for c in self._coeffs]))

    def __mul__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if isinstance(other, int):
            return TruncatedSeries._of_checked(tuple([other * c for c in self._coeffs]))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries._of_checked(tuple(_product(self._coeffs, other._coeffs)))

    __rmul__ = __mul__

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse; the constant coefficient must be +1 or -1.

        Sparse series such as the Euler product take the O(P * nnz)
        recurrence, dense ones Newton iteration on the packed multiply.
        """
        a = self._coeffs
        if a[0] not in (1, -1):
            raise ValueError(f"series is not invertible over the integers: constant term {a[0]}")
        nonzero = len(a) - a.count(0)
        dense = nonzero * nonzero > _NEWTON_SCALE * len(a)
        if dense:
            return TruncatedSeries._of_checked(tuple(_newton_inverse(a)))
        terms = dict(compress(enumerate(a), a))
        return TruncatedSeries._of_checked(tuple(_recurrence_inverse(terms, len(a) - 1)))

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


class FrozenRecord:
    """A record of read-only fields, with the repr, equality and hash over its
    fields that a frozen dataclass has, without importing ``dataclasses`` (and
    ``inspect``) at start-up.  A subclass names its fields, two or more, in
    ``__slots__`` and sets them in ``__init__`` by ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)


class ResidueCondition(FrozenRecord):
    """Selects integers by residue class, for products of (1 +- q^n) and part filters.

    ``mode="include"`` keeps n whose residue mod ``modulus`` lies in
    ``residues``; ``mode="exclude"`` keeps the complement.  ``sign`` picks
    the factor (1 - q^n) or (1 + q^n) when the condition drives a product.
    """

    __slots__ = ("modulus", "residues", "sign", "mode")
    modulus: int
    residues: frozenset[int]
    sign: Sign
    mode: Mode

    def __init__(
        self, modulus: int, residues: Iterable[int], sign: Sign = "minus", mode: Mode = "include"
    ) -> None:
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        residues = frozenset(residues)
        if any(not 0 <= r < modulus for r in residues):
            raise ValueError(f"residues must lie in [0, {modulus})")
        if sign not in ("minus", "plus"):
            raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
        if mode not in ("include", "exclude"):
            raise ValueError(f"mode must be 'include' or 'exclude', got {mode!r}")
        if mode == "include" and not residues:
            raise ValueError("an include condition needs a non-empty residue set")
        for name, value in zip(self.__slots__, (modulus, residues, sign, mode)):
            object.__setattr__(self, name, value)

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
# packed-integer kernels
# ---------------------------------------------------------------------------

# Crossovers between the routes, from timings of each route on CPython 3.11
# (2-vCPU x86-64 VM) at P = 200..5000 with partition-sized coefficients:
# - a loop over the nonzero pairs beats packing while there are at most
#   _SCHOOLBOOK_PAIRS pairs per output coefficient (about 8-16 nonzeros
#   against a dense operand);
# - shift-adds of the packed dense operand beat one Kronecker multiply
#   while the sparser operand has at most sqrt(_SHIFT_ADD_SCALE * bytes)
#   nonzeros, bytes being the packed size of one operand (about 60 at
#   P = 200, 300 at P = 1000, 500 at P = 2000; CPython multiplies by
#   Karatsuba, so one multiply costs as much as ~sqrt(bytes) passes);
# - Newton inversion beats the O(P * nnz) recurrence past
#   sqrt(_NEWTON_SCALE * P) nonzeros (the Euler product, with about
#   1.6 * sqrt(P), stays on the recurrence);
# - for a product of factors (1 - q^e), the Euler transform beats one
#   shift-add per factor from _EULER_STEPS steps on at _EULER_PRECISION and
#   above: at P = 1000 the triple products of 115 steps take 0.52 ms against
#   0.68, those of 250 steps 0.72 against 2.1, prod (1 - q^n) 1.2 against 5.4;
#   it wins from 113 steps at P = 300 and is even at 106 at P = 500; at P = 200
#   only the product of 150 steps gains (0.25 ms against 0.31), and the 42
#   triple products with k <= 6 take 1.5x as long, so the catalog stays on
#   shift-adds.  A dense product hands back within its first _BLOCK coefficients.
_SCHOOLBOOK_PAIRS = 8
_SHIFT_ADD_SCALE = 6
_NEWTON_SCALE = 16
_EULER_STEPS = 115
_EULER_PRECISION = 300
_BLOCK = 64


def _coefficient_bits(weight: int, precision: int, modulus: int = 1) -> int:
    """Bits of a slot, sign included, that holds every
    |c| <= exp(pi * sqrt(weight * precision / (3 * modulus))).

    21/8 > pi / (sqrt(3) * ln 2) = 2.6168..., and the square root of
    weight * precision / modulus is below isqrt(weight * precision // modulus) + 1,
    so the bound is below 2^(21 * (isqrt(weight * precision // modulus) + 1) / 8);
    one bit more covers the floor division and one the sign.
    """
    return 21 * (isqrt(weight * precision // modulus) + 1) // 8 + 2


# bytes.translate tables on the top byte of a slot biased by 2^(width - 1): the same
# byte with the bias bit flipped (the top byte of c in two's complement), and the
# sign fill of the word that widens the slot (0xff where c < 0)
_FLIP = bytes([b ^ 0x80 for b in range(256)])
_NEGATIVE_FILL = b"\xff" * 128 + bytes(128)


class PackedRows:
    """Series truncated at q^n_max, each one int: coefficient n in the byte-aligned slot
    of bits [n * width, (n + 1) * width), the series at X = 2^width; the one code that
    knows this layout.  ``PackedRows(n_max, weight)`` holds counting DPs' rows: each
    count at n is below exp(pi*sqrt(weight*n/3)), weight 2 for sub-counts of p(n),
    3 for overpartitions, 4 for pairs of partitions, so whole-byte slots of
    :func:`_coefficient_bits` less the sign bit never overflow.  The series kernels
    pick their own slot size (:meth:`of_size`) and signed coefficients."""

    def __init__(self, n_max: int, weight: int = 2) -> None:
        if n_max < 0:
            raise ValueError("n must be non-negative")
        self._fit(n_max, (_coefficient_bits(weight, n_max) + 6) // 8)

    @classmethod
    def of_size(cls, n_max: int, size: int) -> PackedRows:
        """Rows over q^0..q^n_max in slots of ``size`` bytes."""
        rows = cls.__new__(cls)
        rows._fit(n_max, size)
        return rows

    def _fit(self, n_max: int, size: int) -> None:
        self.n_max, self.size, self.width = n_max, size, 8 * size
        self.mask = (1 << self.width * (n_max + 1)) - 1

    def _bias(self, slots: int) -> int:
        # 2^(width - 1) in each of the low ``slots`` slots
        return int.from_bytes((bytes(self.size - 1) + b"\x80") * slots, "little")

    def pack(self, coeffs: Sequence[int]) -> int:
        """The sum of coeffs[n] * X^n, n <= n_max, each |coeffs[n]| < 2^(width - 1)."""
        s, count = self.size, len(coeffs)
        if s <= 8:
            # two's complement words; their low s bytes, bias bit flipped, are c + 2^(w-1)
            words = struct.pack(f"<{count}q", *coeffs)
            data = bytearray(s * count)
            for i in range(s - 1):
                data[i::s] = words[i::8]
            data[s - 1 :: s] = words[s - 1 :: 8].translate(_FLIP)
        else:
            # one to_bytes per slot: through map, or split into words, it is no faster
            half = 1 << self.width - 1
            data = b"".join([(c + half).to_bytes(s, "little") for c in coeffs])
        return int.from_bytes(data, "little") - self._bias(count)

    def place(self, terms: Mapping[int, int]) -> int:
        """The row sum c * q^e over ``terms`` {e: c}, each e <= n_max and c a
        multiplicity, 0 <= c < 256: it fills the low byte of its slot."""
        data = bytearray(self.size * (self.n_max + 1))
        for e, c in terms.items():
            data[self.size * e] = c
        return int.from_bytes(data, "little")

    def truncate(self, x: int) -> int:
        """x modulo q^(n_max + 1)."""
        return x & self.mask

    def shift(self, x: int, e: int) -> int:
        """x * q^e, truncated at q^n_max."""
        return x << self.width * e & self.mask

    def lift(self, x: int, e: int) -> int:
        """x * q^e, not truncated: slots above n_max are left for a later
        :meth:`truncate` or :meth:`signed` to drop."""
        return x << self.width * e

    def stride(self, x: int, e: int, slots: int | None = None) -> int:
        """x / (1 - q^e) = x + q^e x + q^2e x + ..., truncated at q^n_max; e >= 1.
        With ``slots``, 1 <= slots <= n_max + 1, x and the result are truncated
        below q^slots instead.

        Doubling: after t steps x carries the factor 1 + q^e + ... + q^((2^t - 1)e).
        """
        if e < 1:
            raise ValueError(f"stride needs a positive exponent, got {e}")
        mask, top = self.mask, self.n_max
        if slots is not None:
            mask, top = (1 << self.width * slots) - 1, slots - 1
            x &= mask
        step = e
        while step <= top:
            x = (x + (x << self.width * step)) & mask
            step <<= 1
        return x

    def tails(self) -> list[int]:
        """[T_0, ..., T_n_max] with T_s = prod_{j>s} 1/(1-q^j): parts above s, freely."""
        out = [1] * (self.n_max + 1)
        for s in range(self.n_max, 0, -1):
            out[s - 1] = self.stride(out[s], s)
        return out

    def unpack(self, x: int) -> tuple[int, ...]:
        """The entries of a row of non-negative counts, entry n at index n."""
        return tuple(self._slots(x.to_bytes(self.size * (self.n_max + 1), "little"), False))

    def signed(self, x: int) -> list[int]:
        """Coefficients 0..n_max of x, exact if each |c| < 2^(width - 1); higher
        slots may hold anything.  The bias puts each slot in [0, 2^width)."""
        stop = self.n_max + 1
        data = self.truncate(x + self._bias(stop)).to_bytes(self.size * stop, "little")
        return list(self._slots(data, True))

    def _slots(self, data: bytes, biased: bool) -> Iterable[int]:
        # The slots of ``data`` as ints, less 2^(width - 1) each if ``biased``.  Slots
        # of at most 8 bytes are widened to 8-byte words by extended-slice copies, the
        # high bytes of a biased slot filled with its sign, and struct reads every word
        # at once; wider slots are read one struct string at a time by int.from_bytes.
        s, count = self.size, len(data) // self.size
        if s > 8:
            chunks = chain.from_iterable(struct.iter_unpack(f"<{s}s", data))
            slots = map(int.from_bytes, chunks, repeat("little"))
            return map(sub, slots, repeat(1 << self.width - 1)) if biased else slots
        words = bytearray(8 * count)
        for i in range(s - 1 if biased else s):
            words[i::8] = data[i::s]
        if biased:
            top = data[s - 1 :: s]
            words[s - 1 :: 8] = top.translate(_FLIP)
            fill = top.translate(_NEGATIVE_FILL)
            for i in range(s, 8):
                words[i::8] = fill
        return struct.unpack(f"<{count}{'q' if biased else 'Q'}", words)


def _bit_length(coeffs: Sequence[int]) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length()


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two coefficient sequences truncated to the shorter length."""
    stop = min(len(a), len(b))
    a, b = a[:stop], b[:stop]
    na, nb = stop - a.count(0), stop - b.count(0)
    if na > nb:
        a, b, na, nb = b, a, nb, na
    if na * nb <= _SCHOOLBOOK_PAIRS * stop:
        return _schoolbook(a, b)
    # |c_k| <= na * max|a| * max|b|, plus a sign bit
    size = (_bit_length(a) + _bit_length(b) + na.bit_length() + 8) // 8
    if na * na <= _SHIFT_ADD_SCALE * stop * size:
        return _shift_add(a, b, size)
    return _kronecker(a, b, size)


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Truncated product by a loop over the pairs of nonzero coefficients."""
    stop = len(a)
    out = [0] * stop
    bs = [(j, c) for j, c in enumerate(b) if c]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in bs:
                if i + j >= stop:
                    break
                out[i + j] += ai * bj
    return out


def _shift_add(sparse: Sequence[int], dense: Sequence[int], size: int) -> list[int]:
    """Truncated product as one shifted add of the packed ``dense`` per nonzero of ``sparse``."""
    rows = PackedRows.of_size(len(sparse) - 1, size)
    packed = rows.truncate(rows.pack(dense))  # non-negative: each shift then costs less
    acc = 0
    for e, c in enumerate(sparse):
        if c:
            acc += c * rows.shift(packed, e)
    return rows.signed(acc)


def _kronecker(a: Sequence[int], b: Sequence[int], size: int) -> list[int]:
    """Truncated product as one multiply of the packed operands."""
    rows = PackedRows.of_size(len(a) - 1, size)
    return rows.signed(rows.pack(a) * rows.pack(b))


def _recurrence_inverse(
    terms: Mapping[int, int], precision: int, known: Sequence[int] = ()
) -> list[int]:
    """1/a to q^precision for the series a = sum terms[k] q^k, terms[0] = +-1, from
    b[m] = -a[0] * sum_k a[k] b[m-k] over its nonzero terms; ``terms`` may leave out
    any zero coefficient, so a sparse series is read in O(nnz), with no dense row.

    ``known``, if given, holds b[0..len(known) - 1], at most precision + 1 entries:
    it is kept and the recurrence resumes after it, as b[m] reads only the b below m.
    With m entries of b known, b[m-k] is b[-k]: the terms of one coefficient value v
    are gathered by one itemgetter over the offsets -k of its k <= m, rebuilt when m
    reaches a new k of that value.
    """
    b = list(known) or [terms[0]]
    offsets: dict[int, list[int]] = {}
    for k in sorted(terms):
        if 1 <= k < len(b) and terms[k]:
            offsets.setdefault(terms[k], []).append(-k)
    getters = {v: gather(ks) for v, ks in offsets.items()}
    for m in range(len(b), precision + 1):
        v = terms.get(m)
        if v:
            ks = offsets.setdefault(v, [])
            ks.append(-m)
            getters[v] = gather(ks)
        b.append(-b[0] * sum([v * sum(get(b)) for v, get in getters.items()]))
    return b


def gather(offsets: list[int]) -> Callable[[list[int]], Sequence[int]]:
    """A getter of the items at the negative ``offsets`` of a list, as a sequence.
    itemgetter of one index returns the item and of none refuses, so one offset is
    read as a one-item slice and none as an empty one."""
    if len(offsets) > 1:
        return itemgetter(*offsets)
    if not offsets:
        return itemgetter(slice(0))
    k = offsets[0]
    return itemgetter(slice(k, k + 1 or None))


def _newton_inverse(a: Sequence[int]) -> list[int]:
    """1/a for a[0] = +-1 by Newton iteration b <- b + b(1 - ab), doubling the
    known coefficients each round (Brent and Zimmermann, Modern Computer
    Arithmetic, 4.2)."""
    b = [a[0]]
    known = 1
    while known < len(a):
        stop = min(2 * known, len(a))
        # a*b = 1 + q^known * err (mod q^stop); then b -= q^known * b * err
        err = _product(a[:stop], b + [0] * (stop - known))[known:]
        b += [-c for c in _product(b[: stop - known], err)]
        known = stop
    return b


Classes = tuple[int, Sequence[int]]


def _slot_size(counts: Mapping[int, int], precision: int, classes: Classes | None) -> int:
    """Bytes per slot of :func:`_binomial_product`: the weight-r bound, r the
    largest count, or the per-class bound when ``classes`` is given and it is
    narrower (see the module docstring)."""
    bits = _coefficient_bits(max(counts.values(), default=1), precision)
    if classes is not None:
        modulus, residues = classes
        nonzero = sum(1 for r in residues if r % modulus)
        bits = min(bits, nonzero + _coefficient_bits(len(residues), precision, modulus))
    return (bits + 7) // 8


def _binomial_product(
    counts: Mapping[int, int], sign: int, precision: int, classes: Classes | None = None
) -> TruncatedSeries:
    """The product of (1 + sign*q^e)^r over ``counts`` {e: r}, each
    1 <= e <= precision, truncated at q^precision.

    ``classes``, if given, is (M, residues): the exponents are drawn from
    the classes of those residues mod M, each residue listed as often as
    its class may repeat.  Two routes, both from the factors alone:
    shift-adds (:func:`_factor_shift_add`), one full-row pass per factor with
    2e <= precision in slots of the bound :func:`_slot_size` picks, and for
    sign -1 with at least _EULER_STEPS such factors and a precision of at
    least _EULER_PRECISION the Euler transform (:func:`_euler_transform`),
    one pass per nonzero coefficient in slots sized from the coefficients
    found, which hands back to shift-adds when they are not sparse.
    """
    if precision < 0:
        raise ValueError("precision must be non-negative")
    size = _slot_size(counts, precision, classes)
    steps = sum(r for e, r in counts.items() if 2 * e <= precision)
    coeffs = None
    if sign < 0 and steps >= _EULER_STEPS and precision >= _EULER_PRECISION:
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
    counts: Mapping[int, int], precision: int, steps: int, classes: Classes | None = None
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


def _log_derivative(w: Sequence[int], top: int, classes: Classes | None) -> list[int]:
    """c_0..c_top of q F'/F for F = prod (1 - q^e)^r, given w_e = r_e e at each
    e <= top: c_k = -sum_{e | k} w_e (Apostol, Introduction to Analytic Number
    Theory, ch. 14).  Every e with w_e != 0 lies in a class of ``classes`` (M,
    residues), as in :func:`_binomial_product` (any e when None, M = 1).  Each pair
    e * m = k <= top of such an e is read once, by strided slice updates: one per
    e <= sqrt(M * top) over its multiples, and one per m and class over its larger e."""
    modulus, residues = classes or (1, (0,))
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
    size = (_coefficient_bits(2, precision) + 7) // 8
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


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


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
    return _binomial_product(dict.fromkeys(range(1, min(n, precision) + 1), 1), -1, precision)


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


# ---------------------------------------------------------------------------
# prefix-reusing caches
# ---------------------------------------------------------------------------


def prefix_cache(
    build: Callable[..., TruncatedSeries], grow: Callable[..., TruncatedSeries] | None = None
) -> Callable[..., TruncatedSeries]:
    """Cache ``build(*key, precision)`` by key, serving lower precisions by prefix.

    One entry per key holds the series at the largest precision reached so far.
    A request at or below it is that entry truncated (the entry itself at
    equal precision): a truncated product is the product built at the lower
    precision.  A request above it is a miss: ``grow(held, *key, precision)``,
    if given, extends the held series without computing its coefficients
    again, and otherwise ``build`` builds the whole series.  The result
    replaces the entry whole unless a concurrent caller stored a longer one
    meanwhile; callers share nothing mutable but the entries, so at worst
    they repeat work.  So memory is one series per key, and a sweep of
    rising precisions computes each coefficient once with ``grow`` and
    rebuilds once per new maximum without.  ``cache_info()`` and
    ``cache_clear()`` behave as those of ``functools.lru_cache`` (``maxsize``
    is None, ``currsize`` counts keys, a growth is a miss); after a clear
    every key builds from scratch.  ``at_least(*key, precision)`` is the same
    lookup without the prefix copy: the held series itself whenever it
    reaches the precision, so its precision may be higher.
    """
    entries: dict[tuple, TruncatedSeries] = {}
    store = allocate_lock()
    hits = misses = 0

    def at_least(*args: int) -> TruncatedSeries:
        # the entry of the key when it reaches the precision, else the miss's result
        nonlocal hits, misses
        key, precision = args[:-1], args[-1]
        if precision < 0:
            raise ValueError("precision must be non-negative")
        held = entries.get(key)
        if held is not None and precision <= held.precision:
            hits += 1
            return held
        misses += 1
        value = build(*args) if held is None or grow is None else grow(held, *args)
        with store:
            held = entries.get(key)
            if held is None or held.precision < precision:
                entries[key] = value
        return value

    @wraps(build)
    def cached(*args: int) -> TruncatedSeries:
        series = at_least(*args)
        precision = args[-1]
        return series if series.precision == precision else series.truncate(precision)

    def cache_info() -> _CacheInfo:
        return _CacheInfo(hits, misses, None, len(entries))

    def cache_clear() -> None:
        nonlocal hits, misses
        entries.clear()
        hits = misses = 0

    cached.at_least = at_least
    cached.cache_info = cache_info
    cached.cache_clear = cache_clear
    return cached


def _partition_row(precision: int, known: Sequence[int] = ()) -> TruncatedSeries:
    # the sparse recurrence over the O(sqrt(precision)) pentagonal terms of (q)_inf,
    # resumed after the ``known`` coefficients
    terms = _bilateral_terms(_PENTAGONAL, precision)
    return TruncatedSeries._of_checked(tuple(_recurrence_inverse(terms, precision, known)))


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


# ---------------------------------------------------------------------------
# rank / crank series
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Cauchy / parts-parity sums built from incremental 1/(q)_n
# ---------------------------------------------------------------------------


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
