"""Registry of exact identity checks with structured pass/fail reports.

Each check pairs two independent evaluators of a quantity indexed by n
(lhs and rhs always come from different modules or different methods) and
is verified over a configurable range.  Multi-part statements compare
tuples.  Checks with an enumerated side (a per-partition statistic,
counted) are flagged so callers can cap them separately from pure series
checks.

The catalog is declared as columns.  A check is one (lhs, rhs) pair of
columns (a scalar statement) or a list of such members, read at n as the
tuple of the members whose span holds n.  A column (:class:`_Column`) is a
row request -- a builder key from the closed set of :func:`_build` and its
arguments -- and the span [first, last] of n where it appears.  Each
parameterized family (rank and crank bounds j, Thm 3.10 at (M, i), JTP at
(k, i), Thm 5.1, Thm 3.2 and the lemma at (A, a)) is a function from its
parameters to one member, mapped over a grid by :func:`build_registry`.
``make_lhs(n_max)``, the one factory, builds each distinct request of the
side once, to the last n a column reads, zips the rows over the segments
between span ends and returns the values' ``__getitem__``, so no route runs
in an evaluator call.  A signed sum of mex counts is one
``mexcount.mex_row``.  Builders are looked up on their modules (the series
ones in this module's namespace) as they run, so a rebinding sees each call.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import islice
from operator import mul, sub
from typing import Callable, Sequence

from . import limits, mexcount, partitions, statistics

# the series functions the requests name: read from this namespace by _build
from .series import (  # noqa: F401
    ResidueCondition,
    TruncatedSeries,
    alternating_theta,
    cauchy_sums_specialized,
    crank_generating_series,
    euler_product,
    jtp_specialized,
    parts_parity_sums,
    rank_generating_series,
    residue_product,
    second_crank_moment_series,
    second_rank_moment_series,
    symmetric_residues,
)
from .statistics import MexParams

Value = int | tuple[int, ...]
Evaluator = Callable[[int], Value]
EvaluatorFactory = Callable[[int], Evaluator]

# Sweep bounds (identity-family parameters, not the n range).
RANK_CRANK_J_MAX = 8
CONGRUENCE_K_MAX = 5
JTP_K_MAX = 6
CAUCHY_T_EXPONENT_MAX = 5
SWEEP_A_MAX = 10
SWEEP_a_MAX = 15
SHIFT_A_MAX = 8


@dataclass(frozen=True)
class IdentityCheck:
    """One verifiable identity: two evaluator factories plus its n range.

    ``make_lhs(n_max)`` and ``make_rhs(n_max)`` are called once per
    verification and build their rows for n = 0..n_max there; the evaluator
    each returns is a lookup, called once for every n in [valid_from, n_max].
    """

    check_id: str
    description: str
    valid_from: int
    make_lhs: EvaluatorFactory
    make_rhs: EvaluatorFactory
    requires_enumeration: bool = False
    notes: str = ""


@dataclass
class IdentityReport:
    """Outcome of verifying one identity over [n_from, n_to]."""

    check_id: str
    description: str
    n_from: int
    n_to: int
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    notes: str = ""
    elapsed_ms: float = 0.0

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "description": self.description,
            "range": {"from": self.n_from, "to": self.n_to},
            "status": self.status,
            "failures": [
                {"n": n, "lhs": lhs, "rhs": rhs} for n, lhs, rhs in self.failures
            ],
            "notes": self.notes,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def csv_row(self) -> list[str]:
        return [
            self.check_id,
            str(self.n_from),
            str(self.n_to),
            self.status,
            str(len(self.failures)),
        ]


CSV_HEADER = ["id", "n_from", "n_to", "status", "num_failures"]


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return str(value)


# ---------------------------------------------------------------------------
# columns and the one side factory
# ---------------------------------------------------------------------------

_OPEN = sys.maxsize  # the last n of a column that holds from its first n on


class _Column:
    """The row of ``request`` (a builder key and its arguments, see :func:`_build`) at
    first <= n <= last; ``pick`` takes one of the rows when the builder gives several."""

    __slots__ = ("request", "first", "last", "pick")

    def __init__(self, *request, first: int = 0, last: int = _OPEN, pick: object = None):
        self.request, self.first, self.last, self.pick = request, first, last, pick


def _mex(route: str, *terms: mexcount.Term, last: int = _OPEN) -> _Column:
    return _Column("mex", route, terms, last=last)


_stat, _series = partial(_Column, "statistics"), partial(_Column, "series")
Member = tuple[_Column, _Column]  # the (lhs, rhs) columns of one component of a check


def _odd_weighted_row(
    scale: int, last: int, terms: Sequence[tuple[int, str, int, int]], n_max: int
) -> list[int]:
    """Entry n is scale * sum_{r=0}^{n-last} (2r+1) * (the sum at n of the base terms
    (sign, kind, A, a) read at a + r), by recurrence, as one term list weighted
    scale * (2r+1) over r <= n_max - last: the sum at r is 0 at n < r + last
    (pbar_{A,a}(n) = 0, p_{A,a}(n) = p(n), a > n)."""
    weighted = [
        (scale * (2 * r + 1) * sign, kind, A, a + r, 0)
        for r in range(n_max - last + 1)
        for sign, kind, A, a in terms
    ]
    return mexcount.mex_row("recurrence", weighted, n_max)


def _residue_quotient(top, bottom, precision: int) -> TruncatedSeries:
    # the residue products of ``top`` times the inverses of those of ``bottom``
    factors = [residue_product(c, precision) for c in top]
    return reduce(mul, factors + [residue_product(c, precision).invert() for c in bottom])


def _theta_gap(c2: int, c1: int, precision: int) -> TruncatedSeries:
    # sum_{n>=1} (-1)^n (q^(c2*n^2-1) - q^(c1*n^2-1))
    higher = alternating_theta((2 * c2, 0, -2), 1, precision)
    return higher - alternating_theta((2 * c1, 0, -2), 1, precision)


def _cauchy_products(cases, precision: int) -> list[TruncatedSeries]:
    # 1/((1-t)(1-tq)...) at t = q^j, or t = -q when negated: 1/((1-q^j)(1-q^(j+1))...)
    # = (1-q)...(1-q^(j-1)) / (q)_inf, from 1/(q)_inf one shifted subtract per factor
    minus, plus = (ResidueCondition(1, frozenset({0}), sign=sign) for sign in ("minus", "plus"))
    rows = [residue_product(minus, precision).invert()]
    for j in range(1, max(j for j, _ in cases)):
        row = rows[-1].coeffs
        rows.append(TruncatedSeries(map(sub, row, ((0,) * j + row)[: len(row)])))
    all_plus = residue_product(plus, precision).invert()
    return [all_plus if negate else rows[j - 1] for j, negate in cases]


def _build(request: tuple, first: int, last: int):
    """The row of ``request`` at n = 0..last, or the rows its columns pick from.

    The closed set of builder keys, with their arguments: "mex" (route, terms), of
    ``mexcount.mex_row``; "odd" (scale, last, terms), of :func:`_odd_weighted_row`;
    "diagonal" (terms), entry n the sum of sign * p_{A+dA*n,a+da*n}(n) by recurrence
    over the terms (sign, (A, dA), (a, da)); "dp" (conditions), a restricted-part row;
    "parity", the two parts-parity rows; "census" (A', a'), the enumerated p_{A,a}
    rows of A <= A', a <= a', by (A, a); "statistics" (name, *args), a census or
    crank-series row, or the rows by m; "series" (name, *args), a series function of
    this module's namespace, read as coefficients; "p" (add,), p(n) + add read by
    ``p_count``, the table grown by one call; "constant" (c,).  Only "diagonal"
    leaves out n < ``first``.
    """
    key, *args = request
    if key == "mex":
        return mexcount.mex_row(*args, last)
    if key == "odd":
        return _odd_weighted_row(*args, last)
    if key == "diagonal":
        p_at = mexcount.p_mex_recurrence
        return [None] * first + [
            sum(s * p_at(MexParams(A + dA * n, a + da * n), n) for s, (A, dA), (a, da) in args)
            for n in range(first, last + 1)
        ]
    if key == "dp":
        return partitions.count_parts_restricted_row(last, *args)
    if key == "parity":
        return partitions.parts_parity_counts(last)
    if key == "census":
        grid = [(A, a) for A in range(1, args[0] + 1) for a in range(1, args[1] + 1)]
        return {pair: p for pair, (p, _) in mexcount.mex_census_rows(last, grid).items()}
    if key == "statistics":
        return getattr(statistics, args[0])(*args[1:], last)
    if key == "series":
        out = globals()[args[0]](*args[1:], last)
        return out.coeffs if isinstance(out, TruncatedSeries) else [s.coeffs for s in out]
    if key == "p":
        p_count = partitions.p_count
        p_count(last)  # grows the table in one call; the reads below are list reads
        return [p_count(n) + args[0] for n in range(last + 1)]
    if key == "constant":
        return [args[0]] * (last + 1)
    raise ValueError(f"unknown row builder {key!r}")


def _evaluator(members, side: int, n_max: int) -> Evaluator:
    """The one side factory: side 0 (lhs) or 1 (rhs) of ``members`` -- one (lhs, rhs)
    pair of columns, read as a scalar, or a sequence of pairs, read as tuples -- built
    for n = 0..n_max, as a lookup of its values."""
    scalar = bool(members) and isinstance(members[0], _Column)
    columns = [members[side]] if scalar else [m[side] for m in members if m[side].first <= n_max]
    spans: dict[tuple, tuple[int, int]] = {}  # each distinct request, over its columns' spans
    for c in columns:
        lo, hi = spans.get(c.request, (c.first, c.last))
        spans[c.request] = min(lo, c.first), max(hi, c.last)
    built = {r: _build(r, lo, min(hi, n_max)) for r, (lo, hi) in spans.items()}
    rows = [built[c.request] if c.pick is None else built[c.request][c.pick] for c in columns]
    if scalar:
        return rows[0].__getitem__
    # one zip per segment between span ends, where the columns held do not change
    ends = sorted({0, n_max + 1}.union(*((c.first, min(c.last, n_max) + 1) for c in columns)))
    values: list = []
    for lo, hi in zip(ends, ends[1:]):
        held = [row for c, row in zip(columns, rows) if c.first <= lo <= c.last]
        cut = [row[lo:hi] for row in held] if lo else held  # rows read from 0 need no copy
        values += islice(zip(*cut), hi - lo) if held else [()] * (hi - lo)
    return values.__getitem__


def _sides(members) -> tuple[EvaluatorFactory, EvaluatorFactory]:
    """``make_lhs`` and ``make_rhs`` of the check ``members`` declares (see
    :func:`_evaluator`); each holds the members as its first argument."""
    return partial(_evaluator, members, 0), partial(_evaluator, members, 1)


# ---------------------------------------------------------------------------
# the families: one (lhs, rhs) member per parameter
# ---------------------------------------------------------------------------


def _rank_at_least(j: int) -> Member:  # Thm 3.3
    return _mex("series", (1, "pbar", 3, j + 1, 0)), _stat("rank_count_at_least_row", j)


def _rank_below(j: int) -> Member:  # Cor 3.5
    return _mex("series", (1, "p", 3, j + 1, 0)), _stat("rank_count_below_row", j)


def _crank_at_least(j: int) -> Member:  # Thm 3.6
    return _mex("recurrence", (1, "pbar", 1, j, 0)), _stat("crank_count_at_least_row", j)


def _crank_below(j: int) -> Member:  # Cor 3.7, the complement of crank >= j
    return _mex("recurrence", (1, "p", 1, j, 0)), _stat("crank_count_below_row", j)


def _congruence(M: int, i: int) -> Member:  # Thm 3.10; (M, M - i) excludes the same
    excluded = ResidueCondition(M, frozenset({0, i, M - i}), mode="exclude")
    return _mex("recurrence", (1, "p", M, M - i, 0), (-1, "pbar", M, i, 0)), _Column("dp", excluded)


def _jtp(parity: str, k: int, i: int) -> Member:  # (k, i), (k, M - i): the same product
    M = 2 * k + (parity == "odd")
    product = _series("jtp_specialized", k, min(i, M - i), parity, "product")
    return _series("jtp_specialized", k, i, parity, "sum"), product


def _shifted(A: int, a: int) -> Member:  # Thm 5.1
    return _mex("recurrence", (1, "p", A, a, a - A)), _mex("series", (1, "pbar", A, a - A, 0))


def _enumerated(A: int, a: int) -> Member:  # Thm 3.2, read off the census of the whole sweep
    census = _Column("census", max(A, SWEEP_A_MAX), max(a, SWEEP_a_MAX), pick=(A, a))
    return census, _mex("recurrence", (1, "p", A, a, 0))


def _a_above_n(A: int, a: int, barred: bool) -> Member:  # the lemma, at n < a
    lhs = _mex("series", (1, "pbar" if barred else "p", A, a, 0), last=a - 1)
    return lhs, _Column("constant", 0, last=a - 1) if barred else _Column("p", 0, last=a - 1)


def _signed_members(stat: str) -> list[Member]:
    # Thm 2.2 and 2.3: N(m, n) or M(m, n) at n >= |m|, the series row of |m| serving -m
    # too; both are census checks, so n and |m| stay within the enumeration cap
    cap = limits.ENUMERATION_CAP
    return [
        (
            _series(f"{stat}_generating_series", abs(m), first=abs(m)),
            _stat(f"{stat}_count_rows", first=abs(m), pick=m),
        )
        for m in range(-cap, cap + 1)
    ]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def build_registry() -> dict[str, IdentityCheck]:
    """Construct the full catalog of checks, keyed by id."""
    grid = [(A, a) for A in range(1, SWEEP_A_MAX + 1) for a in range(1, SWEEP_a_MAX + 1)]
    js = range(0, RANK_CRANK_J_MAX + 1)
    crank_js = range(1, RANK_CRANK_J_MAX + 1)
    # i = k would make the classes +i and -i mod 2k coincide, doubling a
    # product factor; the partition-count reading only holds for i != k.
    even_cases = [
        (2 * k, i) for k in range(1, CONGRUENCE_K_MAX + 1) for i in range(1, 2 * k) if i != k
    ]
    odd_cases = [
        (2 * k + 1, i) for k in range(1, CONGRUENCE_K_MAX + 1) for i in range(1, 2 * k + 1)
    ]
    shift_pairs = [
        (A, a) for A in range(1, SHIFT_A_MAX + 1) for a in range(A + 1, SWEEP_a_MAX + 1)
    ]
    jtp_odd = [(k, i) for k in range(1, JTP_K_MAX + 1) for i in range(1, 2 * k + 1)]
    jtp_even = [(k, i) for k in range(1, JTP_K_MAX + 1) for i in range(1, 2 * k)]
    cauchy = tuple((j, False) for j in range(1, CAUCHY_T_EXPONENT_MAX + 1)) + ((1, True),)

    r32 = symmetric_residues(32, (2, 8, 12, 14))
    r24 = symmetric_residues(24, (1, 4, 6, 8, 10, 11))
    mod32, off32 = ResidueCondition(32, r32), ResidueCondition(32, r32, mode="exclude")
    mod24, off24 = ResidueCondition(24, r24), ResidueCondition(24, r24, mode="exclude")
    c4, every = ResidueCondition(4, frozenset({2})), ResidueCondition(1, frozenset({0}))
    mod40_excluded = ResidueCondition(
        40, symmetric_residues(40, (3, 4, 7, 10, 13, 17)) | {0, 20}, mode="exclude"
    )
    mod40_distinct = ResidueCondition(40, symmetric_residues(40, (8, 12)), sign="plus")
    thm211 = (
        ResidueCondition(10, frozenset({0, 3, 7})),
        ResidueCondition(40, frozenset({4, 36})),
        ResidueCondition(20, frozenset({8, 12}), sign="plus"),
    )
    thm311 = [(1, "p", 2, 3, 0), (-1, "p", 4, 6, 1)]
    thm312 = [(1, "p", 2, 3, 0), (-1, "p", 6, 9, 2)]
    thm313 = [(1, "p", 2, 3, 0), (-1, "p", 10, 15, 4)]
    spt, goe = _stat("spt_row"), _stat("goe_row")
    parity = [_Column("parity", pick=i) for i in (0, 1)]

    # each check: id, description, valid_from, its (lhs, rhs) members, requires_enumeration, notes
    checks = [
        # -- direct counting relations ---------------------------------------
        IdentityCheck(
            "thm-3.1", "p_{3,1}(n) + p_{3,2}(n) = p(n) for n >= 1", 1,
            *_sides((_mex("series", (1, "p", 3, 1, 0), (1, "p", 3, 2, 0)), _Column("p", 0))),
            notes="lhs: generating-series rows; rhs: pentagonal recurrence",
        ),
        IdentityCheck(
            "thm-3.2",
            "p_{A,a}(n) recurrence over shifted p(n) agrees with direct enumeration "
            f"(A <= {SWEEP_A_MAX}, a <= {SWEEP_a_MAX})", 0,
            *_sides([_enumerated(A, a) for A, a in grid]),
            requires_enumeration=True, notes="lhs: enumeration census; rhs: recurrence",
        ),
        # -- rank relations ----------------------------------------------------
        IdentityCheck(
            "thm-3.3",
            f"pbar_{{3,j+1}}(n) counts partitions of n with rank >= j (j = 0..{RANK_CRANK_J_MAX})",
            1,
            *_sides([_rank_at_least(j) for j in js]), requires_enumeration=True,
            notes="lhs: generating-series rows; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "cor-3.4", "pbar_{3,3}(n) counts the Garden-of-Eden partitions of n (rank <= -2)", 1,
            *_sides((_mex("series", (1, "pbar", 3, 3, 0)), goe)), requires_enumeration=True,
            notes="lhs: generating-series row; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "cor-3.5",
            f"p_{{3,j+1}}(n) counts partitions of n with rank < j (j = 0..{RANK_CRANK_J_MAX})", 1,
            *_sides([_rank_below(j) for j in js]), requires_enumeration=True,
            notes="lhs: generating-series rows; rhs: enumerated rank histogram",
        ),
        # -- crank relations (series-defined crank counts) ---------------------
        IdentityCheck(
            "thm-3.6",
            f"pbar_{{1,j}}(n) counts partitions of n with crank >= j (j = 1..{RANK_CRANK_J_MAX})",
            1,
            *_sides([_crank_at_least(j) for j in crank_js]),
            notes="lhs: recurrence; rhs: crank series counts; j = 0 needs a = 0 and is out of range",
        ),
        IdentityCheck(
            "cor-3.7",
            f"p_{{1,j}}(n) counts partitions of n with crank < j (j = 1..{RANK_CRANK_J_MAX})", 1,
            *_sides([_crank_below(j) for j in crank_js]),
            notes="lhs: recurrence; rhs: crank series counts complemented against p(n)",
        ),
        IdentityCheck(
            "thm-1.1", "p_{1,1}(n) counts partitions of n with crank >= 0", 1,
            *_sides(
                (_mex("recurrence", (1, "p", 1, 1, 0)), _stat("crank_count_at_least_row", 0))
            ),
            notes="lhs: recurrence; rhs: crank series counts",
        ),
        IdentityCheck(
            "thm-1.2", "p_{3,3}(n) counts partitions of n with rank >= -1", 1,
            *_sides((_mex("recurrence", (1, "p", 3, 3, 0)), _stat("rank_count_at_least_row", -1))),
            requires_enumeration=True, notes="lhs: recurrence; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-1.3",
            "p_{2,1}(n) = p_e(n) and pbar_{2,1}(n) = p_o(n) (partitions by parity of #parts)", 0,
            *_sides([(_mex("series", (1, kind, 2, 1, 0)), parity[i])
                     for i, kind in enumerate(("p", "pbar"))]),
            notes="lhs: generating-series rows; rhs: parity-tracking part DP",
        ),
        # -- second moments and spt --------------------------------------------
        IdentityCheck(
            "thm-3.8-rank", "sum_m m^2 N(m,n) = 2 * sum_{r=0}^{n-2} (2r+1) pbar_{3,r+2}(n)", 1,
            *_sides((_stat("rank_moment_row", 2), _Column("odd", 2, 2, ((1, "pbar", 3, 2),)))),
            requires_enumeration=True,
            notes="lhs: enumerated rank moment; rhs: recurrence-weighted sum",
        ),
        IdentityCheck(
            "thm-3.8-crank", "sum_m m^2 M(m,n) = 2 * sum_{r=0}^{n-1} (2r+1) pbar_{1,r+1}(n)", 1,
            *_sides((_stat("crank_moment_row", 2), _Column("odd", 2, 1, ((1, "pbar", 1, 1),)))),
            notes="lhs: crank series moment; rhs: recurrence-weighted sum",
        ),
        IdentityCheck(
            "cor-3.9",
            "spt(n) = sum_r (2r+1)[pbar_{1,r+1}(n) - pbar_{3,r+2}(n)] "
            "= sum_r (2r+1)[p_{3,r+2}(n) - p_{1,r+1}(n)]", 1,
            *_sides([
                (spt, _Column("odd", 1, 1, ((1, "pbar", 1, 1), (-1, "pbar", 3, 2)))),
                (spt, _Column("odd", 1, 1, ((1, "p", 3, 2), (-1, "p", 1, 1)))),
            ]), requires_enumeration=True,
            notes="lhs: direct smallest-part tally; rhs: recurrence-weighted sums",
        ),
        # -- congruence-class part counts --------------------------------------
        IdentityCheck(
            "thm-3.10-even",
            "p_{2k,2k-i}(n) - pbar_{2k,i}(n) counts partitions into parts != 0, +-i (mod 2k) "
            f"(k = 1..{CONGRUENCE_K_MAX}, 1 <= i <= 2k-1, i != k)", 0,
            *_sides([_congruence(M, i) for M, i in even_cases]),
            notes="lhs: recurrence difference; rhs: restricted-part DP; "
            "i = k excluded (the +-i classes coincide there)",
        ),
        IdentityCheck(
            "thm-3.10-odd",
            "p_{2k+1,2k+1-i}(n) - pbar_{2k+1,i}(n) counts partitions into parts != 0, +-i "
            f"(mod 2k+1) (k = 1..{CONGRUENCE_K_MAX}, 1 <= i <= 2k)", 0,
            *_sides([_congruence(M, i) for M, i in odd_cases]),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        IdentityCheck(
            "psi-minus-q",
            "p_{4,1}(n) - pbar_{4,3}(n) counts partitions into parts == 2 (mod 4)", 0,
            *_sides(
                (_mex("recurrence", (1, "p", 4, 1, 0), (-1, "pbar", 4, 3, 0)), _Column("dp", c4))
            ),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        # -- shifted identities, by recurrence and as series -------------------
        IdentityCheck(
            "thm-3.11",
            "p_{2,3}(n) - p_{4,6}(n-1) counts partitions into parts == +-2, +-8, +-12, +-14 (mod 32)",
            0,
            *_sides((_mex("recurrence", *thm311), _Column("dp", mod32))),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        IdentityCheck(
            "thm-3.12",
            "p_{2,3}(n) - p_{6,9}(n-2) counts partitions into parts == +-1, +-4, +-6, +-8, "
            "+-10, +-11 (mod 24)", 0,
            *_sides((_mex("recurrence", *thm312), _Column("dp", mod24))),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        IdentityCheck(
            "thm-3.13",
            "p_{2,3}(n) - p_{10,15}(n-4) counts partitions into parts outside "
            "0, +-3, +-4, +-7, +-10, +-13, +-17, 20 (mod 40) with extra distinct parts "
            "== +-8, +-12 (mod 40)", 0,
            *_sides((_mex("recurrence", *thm313), _Column("dp", mod40_excluded, mod40_distinct))),
            notes="lhs: recurrence difference; rhs: mixed distinct/unrestricted DP",
        ),
        IdentityCheck(
            "thm-3.11-series",
            "series form: F_{2,3}(q) - q*F_{4,6}(q) equals 1/prod(1-q^n) over "
            "n == +-2, +-8, +-12, +-14 (mod 32)", 0,
            *_sides((_mex("series", *thm311), _series("_residue_quotient", (), (mod32,)))),
            notes="lhs: theta-quotient rows; rhs: inverted congruence product",
        ),
        IdentityCheck(
            "thm-3.12-series",
            "series form: F_{2,3}(q) - q^2*F_{6,9}(q) equals 1/prod(1-q^n) over "
            "n == +-1, +-4, +-6, +-8, +-10, +-11 (mod 24)", 0,
            *_sides((_mex("series", *thm312), _series("_residue_quotient", (), (mod24,)))),
            notes="lhs: theta-quotient rows; rhs: inverted congruence product",
        ),
        IdentityCheck(
            "thm-3.13-series",
            "series form: F_{2,3}(q) - q^4*F_{10,15}(q) equals "
            "prod(1+q^n)[n == +-8, +-12 (40)] / prod(1-q^n)[n not== 0, +-3, +-4, +-7, "
            "+-10, +-13, +-17, 20 (40)]", 0,
            *_sides((
                _mex("series", *thm313),
                _series("_residue_quotient", (mod40_distinct,), (mod40_excluded,)),
            )),
            notes="lhs: theta-quotient rows; rhs: congruence-product quotient",
        ),
        # -- product/theta identities ------------------------------------------
        IdentityCheck(
            "thm-2.10a",
            "prod(1-q^n) over n not== +-2, +-8, +-12, +-14 (mod 32) equals "
            "sum_{n>=1} (-1)^n (q^{2n^2-1} - q^{n^2-1})", 0,
            *_sides((_series("residue_product", off32), _series("_theta_gap", 2, 1))),
            notes="lhs: congruence product; rhs: alternating theta difference",
        ),
        IdentityCheck(
            "thm-2.10b",
            "prod(1-q^n) over n not== +-1, +-4, +-6, +-8, +-10, +-11 (mod 24) equals "
            "sum_{n>=1} (-1)^n (q^{3n^2-1} - q^{n^2-1})", 0,
            *_sides((_series("residue_product", off24), _series("_theta_gap", 3, 1))),
            notes="lhs: congruence product; rhs: alternating theta difference",
        ),
        IdentityCheck(
            "thm-2.11",
            "prod(1-q^n)[n == 0, +-3 (10)] * prod(1-q^n)[n == +-4 (40)] * "
            "prod(1+q^n)[n == +-8 (20)] equals sum_{n>=1} (-1)^n (q^{5n^2-1} - q^{n^2-1})", 0,
            *_sides((_series("_residue_quotient", thm211, ()), _series("_theta_gap", 5, 1))),
            notes="lhs: three congruence products; rhs: alternating theta difference",
        ),
        # -- classical series-engine identities ----------------------------------
        IdentityCheck(
            "thm-2.1",
            "the pentagonal-number expansion of prod(1-q^n) matches the literal product", 0,
            *_sides((_series("euler_product"), _series("residue_product", every))),
            notes="lhs: pentagonal exponent table; rhs: factor-by-factor product",
        ),
        IdentityCheck(
            "thm-2.8",
            f"odd-modulus triple-product specialization: sum side = product side "
            f"(k = 1..{JTP_K_MAX}, 1 <= i <= 2k)", 0,
            *_sides([_jtp("odd", k, i) for k, i in jtp_odd]),
            notes="lhs: bilateral theta sums; rhs: triple products",
        ),
        IdentityCheck(
            "jtp-even-lemma",
            f"even-modulus triple-product specialization: sum side = product side "
            f"(k = 1..{JTP_K_MAX}, 1 <= i <= 2k-1)", 0,
            *_sides([_jtp("even", k, i) for k, i in jtp_even]),
            notes="lhs: bilateral theta sums; rhs: triple products",
        ),
        IdentityCheck(
            "thm-2.9",
            "sum_{n>=0} t^n/(q)_n = 1/((1-t)(1-tq)(1-tq^2)...) at t = q^j "
            f"(j = 1..{CAUCHY_T_EXPONENT_MAX}) and t = -q", 0,
            *_sides([(_series("cauchy_sums_specialized", cauchy, pick=i),
                      _series("_cauchy_products", cauchy, pick=i)) for i in range(len(cauchy))]),
            notes="lhs: termwise sums with running 1/(q)_n; rhs: inverted products",
        ),
        IdentityCheck(
            "thm-2.4", "second rank moment generating series matches the enumerated moments", 1,
            *_sides((_series("second_rank_moment_series"), _stat("rank_moment_row", 2))),
            requires_enumeration=True,
            notes="lhs: weighted theta quotient; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-2.5",
            "second crank moment generating series matches the enumerated moments (n >= 2)", 2,
            *_sides(
                (_series("second_crank_moment_series"), _stat("crank_moment_enumerated_row", 2))
            ), requires_enumeration=True,
            notes="lhs: weighted theta quotient; rhs: enumerated crank histogram; "
            "n = 1 differs by the documented crank anomaly",
        ),
        IdentityCheck(
            "thm-2.2",
            "rank generating series N(m,n) matches enumerated rank counts for |m| <= n", 1,
            *_sides(_signed_members("rank")), requires_enumeration=True,
            notes="lhs: theta-quotient rows; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-2.3",
            "crank generating series M(m,n) matches enumerated crank counts for |m| <= n, n >= 2",
            2,
            *_sides(_signed_members("crank")), requires_enumeration=True,
            notes="lhs: theta-quotient rows; rhs: enumerated crank histogram; "
            "n = 1 differs by the documented crank anomaly",
        ),
        IdentityCheck(
            "pe-po-genfun",
            "sum_j q^(2j)/(q)_(2j) and sum_j q^(2j+1)/(q)_(2j+1) generate p_e(n) and p_o(n)", 0,
            *_sides([(_series("parts_parity_sums", ("even", "odd"), pick=i), parity[i])
                     for i in (0, 1)]),
            notes="lhs: running 1/(q)_j sums; rhs: parity-tracking part DP",
        ),
        # -- auxiliary relations -------------------------------------------------
        IdentityCheck(
            "thm-5.1",
            "p_{A,a}(n-(a-A)) = pbar_{A,a-A}(n) for a > A "
            f"(A <= {SHIFT_A_MAX}, a <= {SWEEP_a_MAX})", 0,
            *_sides([_shifted(A, a) for A, a in shift_pairs]),
            notes="lhs: recurrence at shifted argument; rhs: generating-series rows",
        ),
        IdentityCheck(
            "cor-5.2", "p_{3,6}(n-3) counts the Garden-of-Eden partitions of n", 1,
            *_sides((_mex("recurrence", (1, "p", 3, 6, 3)), goe)), requires_enumeration=True,
            notes="lhs: recurrence at shifted argument; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-5.3", "p_{k,k}(k) = p_{k,k-1}(k) = p(k) - 1 for k >= 2 (checked at n = k)", 2,
            *_sides([(_Column("diagonal", (1, (0, 1), (a, 1)), first=2), _Column("p", -1, first=2))
                     for a in (0, -1)]),
            notes="lhs: recurrence; rhs: pentagonal p(k) minus one",
        ),
        IdentityCheck(
            "thm-5.4",
            "p_{3,n}(n) - p_{1,n-1}(n) = 0 (n >= 2) and p_{3,n+1}(n) - p_{1,n}(n) = 1 (n >= 1)", 1,
            *_sides([
                (_Column("diagonal", (1, (3, 0), (a, 1)), (-1, (1, 0), (a - 1, 1)), first=2 - a),
                 _Column("constant", a, first=2 - a))
                for a in (0, 1)
            ]),
            notes="lhs: recurrence differences; rhs: stated constants",
        ),
        IdentityCheck(
            "lemma-a-gt-n",
            "p_{A,a}(n) = p(n) and pbar_{A,a}(n) = 0 whenever a > n "
            f"(A <= {SWEEP_A_MAX}, a <= {SWEEP_a_MAX})", 0,
            *_sides([_a_above_n(A, a, barred) for barred in (False, True) for A, a in grid]),
            notes="lhs: generating-series rows; rhs: pentagonal p(n) and zero",
        ),
    ]

    registry = {}
    for check in checks:
        if check.check_id in registry:
            raise ValueError(f"duplicate identity id {check.check_id!r}")
        registry[check.check_id] = check
    return registry


REGISTRY: dict[str, IdentityCheck] = build_registry()


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


def verify(
    check_id: str,
    n_max: int,
    *,
    registry: dict[str, IdentityCheck] | None = None,
) -> IdentityReport:
    """Evaluate both sides of one identity for every n in [valid_from, n_max]."""
    reg = REGISTRY if registry is None else registry
    if check_id not in reg:
        raise ValueError(f"unknown identity id {check_id!r}; see list_identities()")
    check = reg[check_id]
    if n_max < check.valid_from:
        raise ValueError(
            f"n_max={n_max} is below the first asserted value n={check.valid_from}"
        )
    if check.requires_enumeration:
        limits.check_enumeration(n_max)
    start = time.perf_counter()
    lhs = check.make_lhs(n_max)
    rhs = check.make_rhs(n_max)
    failures: list[tuple[int, str, str]] = []
    for n in range(check.valid_from, n_max + 1):
        lv = lhs(n)
        rv = rhs(n)
        if lv != rv:
            failures.append((n, _fmt(lv), _fmt(rv)))
    elapsed = (time.perf_counter() - start) * 1000.0
    return IdentityReport(
        check_id=check.check_id,
        description=check.description,
        n_from=check.valid_from,
        n_to=n_max,
        failures=failures,
        notes=check.notes,
        elapsed_ms=elapsed,
    )


def verify_all(
    n_max_enum: int,
    n_max_series: int,
    *,
    registry: dict[str, IdentityCheck] | None = None,
) -> list[IdentityReport]:
    """Run every registered check, enumeration-backed ones to n_max_enum, none below valid_from."""
    if min(n_max_enum, n_max_series) < 0:
        raise ValueError(f"bounds must be non-negative, got {n_max_enum} and {n_max_series}")
    reg = REGISTRY if registry is None else registry
    reports = []
    for check_id, check in reg.items():
        n_max = n_max_enum if check.requires_enumeration else n_max_series
        n_max = max(n_max, check.valid_from)
        reports.append(verify(check_id, n_max, registry=reg))
    return reports


def list_identities(
    *, registry: dict[str, IdentityCheck] | None = None
) -> list[dict[str, object]]:
    """The catalog as [{id, description, valid_from, requires_enumeration}, ...]."""
    reg = REGISTRY if registry is None else registry
    return [
        {
            "id": c.check_id,
            "description": c.description,
            "valid_from": c.valid_from,
            "requires_enumeration": c.requires_enumeration,
        }
        for c in reg.values()
    ]


def reports_to_json(reports: Sequence[IdentityReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
