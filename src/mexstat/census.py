"""The counting DPs that stand in for enumeration, on ``arith.PackedRows``.

They count a per-partition statistic without listing partitions, and read no
series, theta sum or pentagonal p(n): their slot widths come from n_max alone,
so the routes they are checked against stay independent.  Both stop at
``limits.ENUMERATION_CAP``.  :func:`stat_census` builds the rank, crank and spt
rows once per process (the hook and Gaussian-binomial count of Ferrers
diagrams, the split by the number of ones for the Andrews-Garvan crank, the
smallest-part tally over tails); :func:`mex_census_rows` counts partitions by
where the chain a, a+A, ... first breaks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import limits
from .arith import PackedRows


@lru_cache(maxsize=1)
def stat_census() -> dict[str, list[tuple[int, ...]]]:
    """One list of int rows per statistic, entry n of a row its count at n for
    n = 0..ENUMERATION_CAP: the rank and crank rows of m = -n_max..n_max in value
    order; spt is one row, read as m = 0, so its total is the zeroth moment.  Built
    packed, weight 4, as spt(n) <= p_2(n): lambda with k of its smallest parts s
    marked -> (lambda - s^k, s^k) is 1-1; each statistic is unpacked as soon as its
    DP ends, so no two statistics are held packed at once."""
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


def mex_census_rows(
    n_max: int, pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]]:
    """Rows (p_{A,a}(0..n_max), pbar_{A,a}(0..n_max)) for every (A, a) in ``pairs``.

    A counting automaton per pair, on packed rows (:class:`arith.PackedRows`).
    It walks the part sizes upwards and keeps one row: the partitions whose
    parts decided so far include every chain element a, a+A, ... passed.
    A free part size j multiplies it by 1/(1-q^j).  At chain element c_k
    the branch "c_k absent" fixes the mex at c_k: the row times the tail
    T_{c_k} of free parts above c_k goes to p for even k and to pbar for odd
    k; the branch "c_k present" goes on with the row times q^c_k/(1-q^c_k).
    Past n_max (or once no partition of n <= n_max keeps the chain) the mex
    is the next chain element.  The slots take the Apostol width of p(n_max)
    and read no count, so the pentagonal p(n) stays an independent route.
    ``n_max`` is capped at ``limits.ENUMERATION_CAP``.
    """
    if n_max < 0:
        raise ValueError("n must be non-negative")
    limits.check_enumeration(n_max)
    pairs = list(dict.fromkeys(pairs))
    if any(A < 1 or a < 1 for A, a in pairs):
        raise ValueError("A and a must be positive integers")
    rows = PackedRows(n_max)
    tails = rows.tails()
    out = {}
    for A, a in pairs:
        counts = [0, 0]  # packed p and pbar rows
        chain = 1  # parts below `part` decided, every chain element among them present
        part, c, k = 1, a, 0
        while c <= n_max and chain:
            for j in range(part, c):
                chain = rows.stride(chain, j)
            counts[k & 1] += rows.truncate(chain * tails[c])
            chain = rows.stride(rows.shift(chain, c), c)
            part, c, k = c + 1, c + A, k + 1
        counts[k & 1] += rows.truncate(chain * tails[part - 1])
        out[A, a] = (rows.unpack(counts[0]), rows.unpack(counts[1]))
    return out
