"""Exact truncated power series in q over the integers: the arithmetic that
every route shares -- the series type, residue conditions, the packed format,
the multiply and inverse routes and the prefix cache -- and no route.

Coefficients are Python ints, there is no rounding anywhere, and every
operation truncates to the minimum of the operand precisions rather than
silently extending a series.  The pentagonal table and restricted DPs
(``partitions``), the counting DPs (``census``) and the thetas and products
(``series``) each read this module, and it reads none of them.

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
back.  :class:`PackedRows` holds this format for the series kernels and the
counting DPs alike, and converts whole rows in bulk: slots of at most 8
bytes as 8-byte words, one ``struct`` call a row, and wider ones one slot at
a time (see :meth:`PackedRows._slots`).  Two widths are set here
(``series`` adds those of its factor products):

* a multiply of known operands: bitlen(max|a|) + bitlen(max|b|) +
  bitlen(nnz of the sparser operand) + 1, since no coefficient of the
  product sums more than that many terms;
* a product of factors (1 +- q^e), or a sum of q^(jn)/(q)_n over n with
  signs: :func:`coefficient_bits` with a weight r, which holds every
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
  some N <= P (see ``series._cauchy_terms``), so it takes r = 2: p(P) <
  exp(pi*sqrt(2P/3)).

Which route a multiply takes depends on the nonzero counts: a loop over
nonzero pairs, shifted adds of the packed dense operand over the sparse
operand's nonzeros, or one Kronecker multiply.  Dense series invert by
Newton iteration (Brent and Zimmermann, Modern Computer Arithmetic, 4.2)
on that multiply; sparse ones by the O(P * nnz) recurrence.
"""

from __future__ import annotations

import struct
from _thread import allocate_lock
from functools import _CacheInfo, wraps
from itertools import chain, compress, repeat
from math import isqrt
from operator import add, attrgetter, itemgetter, sub
from typing import Callable, Iterable, Literal, Mapping, Sequence

Sign = Literal["minus", "plus"]
Mode = Literal["include", "exclude"]


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
        if nonzero * nonzero > _NEWTON_SCALE * len(a):  # dense
            return TruncatedSeries._of_checked(tuple(_newton_inverse(a)))
        terms = dict(compress(enumerate(a), a))
        return TruncatedSeries._of_checked(tuple(recurrence_inverse(terms, len(a) - 1)))

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


# -- packed-integer kernels ---------------------------------------------------

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
#   1.6 * sqrt(P), stays on the recurrence).
_SCHOOLBOOK_PAIRS = 8
_SHIFT_ADD_SCALE = 6
_NEWTON_SCALE = 16


def coefficient_bits(weight: int, precision: int, modulus: int = 1) -> int:
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
    :func:`coefficient_bits` less the sign bit never overflow.  The series kernels
    pick their own slot size (:meth:`of_size`) and signed coefficients."""

    def __init__(self, n_max: int, weight: int = 2) -> None:
        if n_max < 0:
            raise ValueError("n must be non-negative")
        self._fit(n_max, (coefficient_bits(weight, n_max) + 6) // 8)

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


def recurrence_inverse(
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
