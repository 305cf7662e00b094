"""Enumeration and exact counting of integer partitions.

A partition is represented as a plain tuple of positive ints in
non-increasing (canonical) order.  Counting goes through the pentagonal
recurrence and bounded dynamic programming, deliberately independent of
the series engine so the two can cross-check each other.  Every counting
DP -- the restricted-part and parity rows here and the rows that stand in
for enumeration in ``statistics`` and ``mexcount`` -- runs on
``series.PackedRows`` (re-exported here), whose slot width reads no p(n):
shared integer arithmetic, not a route, as no DP reads a series, a theta
sum or the pentagonal p(n).  No library route walks partitions one by one.
One recursive walk lists them: :func:`enumerate_partitions` (tables, tests)
stops it at ``limits.ENUMERATION_CAP``, and :func:`ascending_partitions`
yields it reversed, uncapped.  :func:`p_count` reads one shared p(n) table:
it grows, under a lock, to the largest n asked so far and never shrinks,
so every smaller n is a list read; it stops at ``limits.P_TABLE_CAP``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from functools import lru_cache
from math import isqrt
from operator import sub
from typing import Callable, Iterable, Iterator

from . import limits
from .limits import CapacityError  # noqa: F401  (re-exported: callers import it from here)
from .series import PackedRows, ResidueCondition, gather

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize an iterable of parts: sorted non-increasing, all parts >= 1."""
    ps = tuple(sorted(parts, reverse=True))
    for p in ps:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
    return ps


def format_partition(parts: Partition) -> str:
    """Render a partition as '5+1'; the empty partition as '-'."""
    return "+".join(str(p) for p in parts) if parts else "-"


def _descending_partitions(remaining: int, largest: int) -> Iterator[Partition]:
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, largest), 0, -1):
        for rest in _descending_partitions(remaining - first, first):
            yield (first,) + rest


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse-lexicographic order.

    Yields the single empty partition for n = 0.  Raises CapacityError above
    the enumeration cap.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    limits.check_enumeration(n)
    return _descending_partitions(n, n if n else 1)


def ascending_partitions(n: int) -> Iterator[list[int]]:
    """All partitions of n as ascending lists, in no particular order.

    The partitions of :func:`enumerate_partitions`, each reversed into a
    list, without its cap; the library's own aggregates come from counting
    DPs instead.  Use :func:`enumerate_partitions` when order matters.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for parts in _descending_partitions(n, n or 1):
        yield list(reversed(parts))


# ---------------------------------------------------------------------------
# p(n) via the pentagonal recurrence (initialize-once shared table)
# ---------------------------------------------------------------------------

_p_table: list[int] = [1]
_p_lock = threading.Lock()


# the generalized pentagonal numbers g = k(3k-1)/2, k(3k+1)/2 for k = 1, 2, ...,
# increasing and past the table cap; entry j has k = j // 2 + 1
_PENTAGONAL = tuple(
    k * (3 * k + s) // 2 for k in range(1, isqrt(limits.P_TABLE_CAP) + 2) for s in (-1, 1)
)


def _pentagonal_gathers(count: int) -> tuple[Callable, Callable]:
    """Gathers of t[-g] over the first ``count`` offsets g, for k odd and for k even."""
    offsets = _PENTAGONAL[:count]
    return (
        gather([-g for j, g in enumerate(offsets) if not j & 2]),
        gather([-g for j, g in enumerate(offsets) if j & 2]),
    )


def p_count(n: int) -> int:
    """The partition count p(n); p(0) = 1 and p(n) = 0 for negative n.

    The shared table grows by the pentagonal recurrence
    p(m) = sum over k >= 1 of (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)].
    With the table holding p(0..m-1), the term p(m - g) is ``table[-g]``, so
    each step is one gather of the offsets g <= m with k odd, minus one with
    k even.  The table grows one run of m between consecutive offsets at a
    time, each run with one pair of gathers.  Growing the table past
    ``limits.P_TABLE_CAP`` raises CapacityError.
    """
    if n < 0:
        return 0
    table = _p_table
    if n < len(table):
        return table[n]
    limits.check_p_table(n)
    with _p_lock:
        count = bisect_right(_PENTAGONAL, len(table))
        while len(table) <= n:
            # every m below the next offset gathers the same offsets
            take_plus, take_minus = _pentagonal_gathers(count)
            for _ in range(len(table), min(n + 1, _PENTAGONAL[count])):
                table.append(sum(take_plus(table)) - sum(take_minus(table)))
            count += 1
    return table[n]


# ---------------------------------------------------------------------------
# restricted counts (bounded dynamic programming, no series involved)
# ---------------------------------------------------------------------------


def count_parts_restricted_row(
    n_max: int, allowed: ResidueCondition, distinct: ResidueCondition | None = None
) -> tuple[int, ...]:
    """Restricted counts for n = 0..n_max from one packed DP pass.

    Every part size admitted by ``allowed`` may repeat freely.  When
    ``distinct`` is given, each part size it admits additionally contributes
    an at-most-once factor (1 + q^m) on top of whatever ``allowed`` grants
    it, i.e. entry n is the q^n coefficient of

        prod_{allowed m} 1/(1-q^m) * prod_{distinct m} (1+q^m).

    With disjoint conditions this is the plain "parts from ``distinct``
    appear at most once" count.  Entry n is at most the number of
    overpartitions of n, so the slots take weight 3 with marks, else 2.
    """
    if n_max < 0:
        raise ValueError("n must be non-negative")
    rows = PackedRows(n_max, 2 if distinct is None else 3)
    return rows.unpack(_restricted(rows, allowed, distinct))


def _restricted(rows: PackedRows, allowed: ResidueCondition, distinct=None) -> int:
    # the packed row of count_parts_restricted_row; each partial product is a sub-count
    # of it.  A part above n_max/2 fits at most once, so its factors truncate to
    # 1 + c q^part, c = [allowed] + [distinct], and no two of them multiply below
    # q^n_max: together they start the row as 1 + sum c q^part, and only the
    # parts up to n_max/2 are strided
    marks = (lambda part: False) if distinct is None else distinct.admits
    half = rows.n_max // 2
    x = 1 + rows.place({p: allowed.admits(p) + marks(p) for p in range(half + 1, rows.n_max + 1)})
    for part in range(1, half + 1):
        if allowed.admits(part):
            x = rows.stride(x, part)
        if marks(part):
            x += rows.shift(x, part)
    return x


def count_parts_restricted(
    n: int,
    allowed: ResidueCondition,
    distinct: ResidueCondition | None = None,
) -> int:
    """Partitions of n whose parts satisfy ``allowed``, with optional distinct marks.

    Entry n of :func:`count_parts_restricted_row`; the DP fills the whole
    row anyway, so read it there when many n are needed.
    """
    return count_parts_restricted_row(n, allowed, distinct)[n]


# ---------------------------------------------------------------------------
# partitions by parity of the number of parts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def parts_parity_counts(n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tables (even, odd) where even[n] counts partitions of n with evenly many parts.

    E + O = p(n), and E - O = (-1)^n sc(n) with sc(n) the partitions of n
    into distinct odd parts: prod 1/(1+q^m) = prod_{m odd} (1-q^m) (Euler),
    whose q^n coefficient has the sign (-1)^n.  Both rows are packed
    restricted DPs.  (p(n) - sc(n)) / 2 is O(n) at even n and E(n) at odd
    n; its slots are even and non-negative before the shift that halves
    them, so no slot borrows or carries, and each other count is p(n) minus
    one already known.
    """
    if n_max < 0:
        raise ValueError("n must be non-negative")
    rows = PackedRows(n_max)
    every = _restricted(rows, ResidueCondition(1, frozenset({0})))
    no_part = ResidueCondition(1, frozenset({0}), mode="exclude")
    half = every - _restricted(rows, no_part, ResidueCondition(2, frozenset({1}))) >> 1
    p, odd = rows.unpack(every), list(rows.unpack(half))
    odd[1::2] = map(sub, p[1::2], odd[1::2])
    return tuple(map(sub, p, odd)), tuple(odd)


def p_even_parts(n: int) -> int:
    """Partitions of n into an even number of parts."""
    return parts_parity_counts(n)[0][n]


def p_odd_parts(n: int) -> int:
    """Partitions of n into an odd number of parts."""
    return parts_parity_counts(n)[1][n]
