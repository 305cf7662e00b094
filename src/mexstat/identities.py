"""Registry of exact identity checks with structured pass/fail reports.

Each check pairs two independent evaluators of a quantity indexed by n
(lhs and rhs always come from different modules or different methods) and
is verified over a configurable range.  Multi-part statements compare
tuples.  Checks with an enumerated side (a per-partition statistic,
counted) are flagged so callers can cap them separately from pure series
checks.

Each side of a check is an evaluator factory.  ``make_lhs(n_max)`` builds
every row the side needs for n = 0..n_max once -- generating-series rows,
restricted-part DP rows, recurrence values tabulated over the range, the
counting-DP rows of the enumerated mex, rank, crank and spt sides -- and
returns an evaluator that only looks values up in them.  The catalog in
:func:`build_registry` is a declaration over a few family helpers: signed
shifted mex terms (:data:`Term`) summed into one numerator and read once per
route, restricted-part DP rows, series rows and grid sweeps.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from operator import sub
from typing import Callable, Mapping, Sequence

from . import limits, mexcount, partitions, statistics
from .series import (
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
    theta_quotient,
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
# family helpers: each builds its rows once per n_max; evaluators read them
# ---------------------------------------------------------------------------

# A signed, shifted mex count: (sign, kind, A, a, shift) is
# sign * p_{A,a}(n - shift) for kind "p" and sign * pbar_{A,a}(n - shift) for
# kind "pbar"; both are 0 for n < shift.  The sign is any integer weight.
Term = tuple[int, str, int, int, int]


def _row(build: Callable[[int], Sequence[int]]) -> EvaluatorFactory:
    """A scalar side: ``build(n_max)`` gives its values at n = 0..n_max."""

    def factory(n_max: int) -> Evaluator:
        row = build(n_max)
        return lambda n: row[n]

    return factory


def _table(build: Callable[[int], Sequence[Sequence[int]]]) -> EvaluatorFactory:
    """A tuple side: ``build(n_max)`` gives one row over n = 0..n_max per component."""

    def factory(n_max: int) -> Evaluator:
        columns = list(zip(*build(n_max)))
        return lambda n: columns[n]

    return factory


def _mex_row(route: str, terms: Sequence[Term], n_max: int) -> list[int]:
    """The sum of ``terms`` at n = 0..n_max: each term's numerator (``mex_numerator``
    on route "series", ``recurrence_offsets`` on route "recurrence") scaled by its
    sign and moved by its shift into one numerator, read once -- as a theta quotient,
    or at each n against the pentagonal p(n) table."""
    if route not in ("series", "recurrence"):
        raise ValueError(f"unknown route {route!r}")
    numerator_of = mexcount.mex_numerator if route == "series" else mexcount.recurrence_offsets
    numerator: dict[int, int] = {}
    for sign, kind, A, a, shift in terms:
        if shift <= n_max:
            for d, c in numerator_of(MexParams(A, a), kind == "pbar", n_max - shift).items():
                numerator[d + shift] = numerator.get(d + shift, 0) + sign * c
    if route == "series":
        return list(theta_quotient(numerator, n_max).coeffs)
    return [mexcount.recurrence_at(numerator, n) for n in range(n_max + 1)]


def _mex(route: str, terms: Sequence[Term]) -> EvaluatorFactory:
    return _row(lambda n_max: _mex_row(route, terms, n_max))


def _mex_each(route: str, components: Sequence[Sequence[Term]]) -> EvaluatorFactory:
    return _table(lambda n_max: [_mex_row(route, terms, n_max) for terms in components])


def _odd_weighted_row(
    scale: int, last: int, terms_of: Callable[[int], Sequence[Term]], n_max: int
) -> list[int]:
    """Entry n is scale * sum_{r=0}^{n-last} (2r+1) * (the terms_of(r) sum at n), by
    recurrence, as one term list weighted scale * (2r+1) over r <= n_max - last: the
    terms_of(r) sum is 0 at n < r + last (pbar_{A,a}(n) = 0, p_{A,a}(n) = p(n), a > n)."""
    terms = [
        (scale * (2 * r + 1) * sign, kind, A, a, shift)
        for r in range(n_max - last + 1)
        for sign, kind, A, a, shift in terms_of(r)
    ]
    return _mex_row("recurrence", terms, n_max)


def _tabulated(first: int, value: Callable[[int], Value]) -> EvaluatorFactory:
    """A side whose parameters move with n: ``value(n)`` tabulated at n = first..n_max."""
    return _row(lambda n_max: [value(n) if n >= first else None for n in range(n_max + 1)])


def _dp(*conditions: ResidueCondition) -> EvaluatorFactory:
    return _row(lambda n_max: partitions.count_parts_restricted_row(n_max, *conditions))


def _series(build: Callable[[int], TruncatedSeries]) -> EvaluatorFactory:
    return _row(lambda n_max: build(n_max).coeffs)


def _series_each(build: Callable[[int], Sequence[TruncatedSeries]]) -> EvaluatorFactory:
    return _table(lambda n_max: [s.coeffs for s in build(n_max)])


def _signed_counts(count_series: Callable[[int, int], TruncatedSeries]) -> EvaluatorFactory:
    """The tuple (count(m, n) for |m| <= n) from the series rows, count(-m, .) = count(m, .)."""
    return _signed_rows(
        lambda n_max: {m: count_series(abs(m), n_max).coeffs for m in range(-n_max, n_max + 1)}
    )


def _signed_rows(build: Callable[[int], Mapping[int, Sequence[int]]]) -> EvaluatorFactory:
    """The tuple (row m at n for |m| <= n), from the rows ``build(n_max)`` keyed by m."""

    def factory(n_max: int) -> Evaluator:
        rows = build(n_max)
        return lambda n: tuple(rows[m][n] for m in range(-n, n + 1))

    return factory


def _theta_difference(c2: int, c1: int) -> EvaluatorFactory:
    # sum_{n>=1} (-1)^n (q^(c2*n^2-1) - q^(c1*n^2-1))
    return _series(
        lambda n_max: alternating_theta((2 * c2, 0, -2), 1, n_max)
        - alternating_theta((2 * c1, 0, -2), 1, n_max)
    )


def _congruence_classes(cases: Sequence[tuple[int, int]]) -> tuple[EvaluatorFactory, ...]:
    """Thm 3.10 at modulus M: p_{M,M-i}(n) - pbar_{M,i}(n) against the DP over parts != 0, +-i."""
    lhs = _mex_each(
        "recurrence", [[(1, "p", M, M - i, 0), (-1, "pbar", M, i, 0)] for M, i in cases]
    )
    # (M, i) and (M, M - i) exclude the same classes: each row is built once per n_max
    excluded = [ResidueCondition(M, frozenset({0, i, M - i}), mode="exclude") for M, i in cases]

    def rhs(n_max: int) -> list[tuple[int, ...]]:
        rows = {c: partitions.count_parts_restricted_row(n_max, c) for c in set(excluded)}
        return [rows[c] for c in excluded]

    return lhs, _table(rhs)


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
    cauchy_cases = [(j, False) for j in range(1, CAUCHY_T_EXPONENT_MAX + 1)] + [(1, True)]

    mod32 = symmetric_residues(32, (2, 8, 12, 14))
    mod24 = symmetric_residues(24, (1, 4, 6, 8, 10, 11))
    mod40_excluded = ResidueCondition(
        40, symmetric_residues(40, (3, 4, 7, 10, 13, 17)) | {0, 20}, mode="exclude"
    )
    mod40_distinct = ResidueCondition(40, symmetric_residues(40, (8, 12)), sign="plus")
    thm311 = [(1, "p", 2, 3, 0), (-1, "p", 4, 6, 1)]
    thm312 = [(1, "p", 2, 3, 0), (-1, "p", 6, 9, 2)]
    thm313 = [(1, "p", 2, 3, 0), (-1, "p", 10, 15, 4)]

    def cor37_rhs(n_max: int) -> list[list[int]]:
        at_least = [statistics.crank_count_at_least_row(j, n_max) for j in crank_js]
        return [[partitions.p_count(n) - c for n, c in enumerate(row)] for row in at_least]

    def cor39_rhs(n_max: int) -> list[list[int]]:
        barred = lambda r: [(1, "pbar", 1, r + 1, 0), (-1, "pbar", 3, r + 2, 0)]
        unbarred = lambda r: [(1, "p", 3, r + 2, 0), (-1, "p", 1, r + 1, 0)]
        return [_odd_weighted_row(1, 1, barred, n_max), _odd_weighted_row(1, 1, unbarred, n_max)]

    def jtp(parity: str, side: str, cases: list[tuple[int, int]]) -> EvaluatorFactory:
        def build(n_max: int) -> list[TruncatedSeries]:
            built: dict[tuple[int, int], TruncatedSeries] = {}
            out = []
            for k, i in cases:
                if side == "product":
                    # (k, i) and (k, M - i) multiply the same factors: build each set once
                    i = min(i, 2 * k + (parity == "odd") - i)
                if (k, i) not in built:
                    built[k, i] = jtp_specialized(k, i, parity, side, n_max)
                out.append(built[k, i])
            return out

        return _series_each(build)

    def cauchy_rhs(n_max: int) -> list[tuple[int, ...]]:
        def inverted(sign: str) -> TruncatedSeries:
            return residue_product(ResidueCondition(1, frozenset({0}), sign=sign), n_max).invert()

        # 1/((1-q^j)(1-q^(j+1))...) = (1-q)...(1-q^(j-1)) / ((1-q)(1-q^2)...): from
        # 1/(q)_inf, one factor (1-q^j) at a time, each a shifted subtract
        rows = [inverted("minus").coeffs]
        for j in range(1, max(j for j, _ in cauchy_cases)):
            row = rows[-1]
            rows.append(tuple(map(sub, row, ((0,) * j + row)[: len(row)])))
        all_plus = inverted("plus").coeffs
        return [all_plus if neg else rows[j - 1] for j, neg in cauchy_cases]

    def thm211_product(n_max: int) -> TruncatedSeries:
        p1 = residue_product(ResidueCondition(10, frozenset({0, 3, 7})), n_max)
        p2 = residue_product(ResidueCondition(40, frozenset({4, 36})), n_max)
        p3 = residue_product(ResidueCondition(20, frozenset({8, 12}), sign="plus"), n_max)
        return p1 * p2 * p3

    def p_rec(A: int, a: int, n: int) -> int:
        # thm-5.3 and thm-5.4 move the parameters with n, so each value is one point
        return mexcount.p_mex_recurrence(MexParams(A, a), n)

    def thm54_lhs(n: int) -> tuple[int, ...]:
        second = p_rec(3, n + 1, n) - p_rec(1, n, n)
        return (second,) if n < 2 else (p_rec(3, n, n) - p_rec(1, n - 1, n), second)

    # the grid pairs with a > n, for each n below SWEEP_a_MAX; none from there on
    above_at = [
        [(A, a) for A in range(1, SWEEP_A_MAX + 1) for a in range(n + 1, SWEEP_a_MAX + 1)]
        for n in range(SWEEP_a_MAX)
    ]

    def above(n: int) -> list[tuple[int, int]]:
        return above_at[n] if n < SWEEP_a_MAX else []

    def lemma_lhs(n_max: int) -> Evaluator:
        # above(n) is empty from n = SWEEP_a_MAX on, so no row is read past it
        n_top = min(n_max, SWEEP_a_MAX - 1)
        p_rows = {(A, a): _mex_row("series", [(1, "p", A, a, 0)], n_top) for A, a in grid}
        pbar_rows = {(A, a): _mex_row("series", [(1, "pbar", A, a, 0)], n_top) for A, a in grid}
        return lambda n: tuple(p_rows[pair][n] for pair in above(n)) + tuple(
            pbar_rows[pair][n] for pair in above(n)
        )

    def lemma_rhs(n_max: int) -> Evaluator:
        return lambda n: (partitions.p_count(n),) * len(above(n)) + (0,) * len(above(n))

    checks = [
        # -- direct counting relations ---------------------------------------
        IdentityCheck(
            "thm-3.1",
            "p_{3,1}(n) + p_{3,2}(n) = p(n) for n >= 1",
            1,
            _mex("series", [(1, "p", 3, 1, 0), (1, "p", 3, 2, 0)]),
            lambda n_max: partitions.p_count,
            notes="lhs: generating-series rows; rhs: pentagonal recurrence",
        ),
        IdentityCheck(
            "thm-3.2",
            "p_{A,a}(n) recurrence over shifted p(n) agrees with direct enumeration "
            f"(A <= {SWEEP_A_MAX}, a <= {SWEEP_a_MAX})",
            0,
            _table(lambda n_max: [p for p, _ in mexcount.mex_census_rows(n_max, grid).values()]),
            _mex_each("recurrence", [[(1, "p", A, a, 0)] for A, a in grid]),
            requires_enumeration=True,
            notes="lhs: enumeration census; rhs: recurrence",
        ),
        # -- rank relations ----------------------------------------------------
        IdentityCheck(
            "thm-3.3",
            f"pbar_{{3,j+1}}(n) counts partitions of n with rank >= j (j = 0..{RANK_CRANK_J_MAX})",
            1,
            _mex_each("series", [[(1, "pbar", 3, j + 1, 0)] for j in js]),
            _table(lambda n_max: [statistics.rank_count_at_least_row(j, n_max) for j in js]),
            requires_enumeration=True,
            notes="lhs: generating-series rows; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "cor-3.4",
            "pbar_{3,3}(n) counts the Garden-of-Eden partitions of n (rank <= -2)",
            1,
            _mex("series", [(1, "pbar", 3, 3, 0)]),
            _row(statistics.goe_row),
            requires_enumeration=True,
            notes="lhs: generating-series row; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "cor-3.5",
            f"p_{{3,j+1}}(n) counts partitions of n with rank < j (j = 0..{RANK_CRANK_J_MAX})",
            1,
            _mex_each("series", [[(1, "p", 3, j + 1, 0)] for j in js]),
            _table(lambda n_max: [statistics.rank_count_below_row(j, n_max) for j in js]),
            requires_enumeration=True,
            notes="lhs: generating-series rows; rhs: enumerated rank histogram",
        ),
        # -- crank relations (series-defined crank counts) ---------------------
        IdentityCheck(
            "thm-3.6",
            f"pbar_{{1,j}}(n) counts partitions of n with crank >= j (j = 1..{RANK_CRANK_J_MAX})",
            1,
            _mex_each("recurrence", [[(1, "pbar", 1, j, 0)] for j in crank_js]),
            _table(lambda n_max: [statistics.crank_count_at_least_row(j, n_max) for j in crank_js]),
            notes="lhs: recurrence; rhs: crank series counts; j = 0 needs a = 0 and is out of range",
        ),
        IdentityCheck(
            "cor-3.7",
            f"p_{{1,j}}(n) counts partitions of n with crank < j (j = 1..{RANK_CRANK_J_MAX})",
            1,
            _mex_each("recurrence", [[(1, "p", 1, j, 0)] for j in crank_js]),
            _table(cor37_rhs),
            notes="lhs: recurrence; rhs: crank series counts complemented against p(n)",
        ),
        IdentityCheck(
            "thm-1.1",
            "p_{1,1}(n) counts partitions of n with crank >= 0",
            1,
            _mex("recurrence", [(1, "p", 1, 1, 0)]),
            _row(lambda n_max: statistics.crank_count_at_least_row(0, n_max)),
            notes="lhs: recurrence; rhs: crank series counts",
        ),
        IdentityCheck(
            "thm-1.2",
            "p_{3,3}(n) counts partitions of n with rank >= -1",
            1,
            _mex("recurrence", [(1, "p", 3, 3, 0)]),
            _row(partial(statistics.rank_count_at_least_row, -1)),
            requires_enumeration=True,
            notes="lhs: recurrence; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-1.3",
            "p_{2,1}(n) = p_e(n) and pbar_{2,1}(n) = p_o(n) (partitions by parity of #parts)",
            0,
            _mex_each("series", [[(1, "p", 2, 1, 0)], [(1, "pbar", 2, 1, 0)]]),
            _table(partitions.parts_parity_counts),
            notes="lhs: generating-series rows; rhs: parity-tracking part DP",
        ),
        # -- second moments and spt --------------------------------------------
        IdentityCheck(
            "thm-3.8-rank",
            "sum_m m^2 N(m,n) = 2 * sum_{r=0}^{n-2} (2r+1) pbar_{3,r+2}(n)",
            1,
            _row(partial(statistics.rank_moment_row, 2)),
            _row(partial(_odd_weighted_row, 2, 2, lambda r: [(1, "pbar", 3, r + 2, 0)])),
            requires_enumeration=True,
            notes="lhs: enumerated rank moment; rhs: recurrence-weighted sum",
        ),
        IdentityCheck(
            "thm-3.8-crank",
            "sum_m m^2 M(m,n) = 2 * sum_{r=0}^{n-1} (2r+1) pbar_{1,r+1}(n)",
            1,
            _row(lambda n_max: statistics.crank_moment_row(2, n_max)),
            _row(partial(_odd_weighted_row, 2, 1, lambda r: [(1, "pbar", 1, r + 1, 0)])),
            notes="lhs: crank series moment; rhs: recurrence-weighted sum",
        ),
        IdentityCheck(
            "cor-3.9",
            "spt(n) = sum_r (2r+1)[pbar_{1,r+1}(n) - pbar_{3,r+2}(n)] "
            "= sum_r (2r+1)[p_{3,r+2}(n) - p_{1,r+1}(n)]",
            1,
            _table(lambda n_max: [statistics.spt_row(n_max)] * 2),
            _table(cor39_rhs),
            requires_enumeration=True,
            notes="lhs: direct smallest-part tally; rhs: recurrence-weighted sums",
        ),
        # -- congruence-class part counts --------------------------------------
        IdentityCheck(
            "thm-3.10-even",
            "p_{2k,2k-i}(n) - pbar_{2k,i}(n) counts partitions into parts != 0, +-i (mod 2k) "
            f"(k = 1..{CONGRUENCE_K_MAX}, 1 <= i <= 2k-1, i != k)",
            0,
            *_congruence_classes(even_cases),
            notes="lhs: recurrence difference; rhs: restricted-part DP; "
            "i = k excluded (the +-i classes coincide there)",
        ),
        IdentityCheck(
            "thm-3.10-odd",
            "p_{2k+1,2k+1-i}(n) - pbar_{2k+1,i}(n) counts partitions into parts != 0, +-i "
            f"(mod 2k+1) (k = 1..{CONGRUENCE_K_MAX}, 1 <= i <= 2k)",
            0,
            *_congruence_classes(odd_cases),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        IdentityCheck(
            "psi-minus-q",
            "p_{4,1}(n) - pbar_{4,3}(n) counts partitions into parts == 2 (mod 4)",
            0,
            _mex("recurrence", [(1, "p", 4, 1, 0), (-1, "pbar", 4, 3, 0)]),
            _dp(ResidueCondition(4, frozenset({2}))),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        # -- shifted identities, by recurrence and as series -------------------
        IdentityCheck(
            "thm-3.11",
            "p_{2,3}(n) - p_{4,6}(n-1) counts partitions into parts == +-2, +-8, +-12, +-14 (mod 32)",
            0,
            _mex("recurrence", thm311),
            _dp(ResidueCondition(32, mod32)),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        IdentityCheck(
            "thm-3.12",
            "p_{2,3}(n) - p_{6,9}(n-2) counts partitions into parts == +-1, +-4, +-6, +-8, "
            "+-10, +-11 (mod 24)",
            0,
            _mex("recurrence", thm312),
            _dp(ResidueCondition(24, mod24)),
            notes="lhs: recurrence difference; rhs: restricted-part DP",
        ),
        IdentityCheck(
            "thm-3.13",
            "p_{2,3}(n) - p_{10,15}(n-4) counts partitions into parts outside "
            "0, +-3, +-4, +-7, +-10, +-13, +-17, 20 (mod 40) with extra distinct parts "
            "== +-8, +-12 (mod 40)",
            0,
            _mex("recurrence", thm313),
            _dp(mod40_excluded, mod40_distinct),
            notes="lhs: recurrence difference; rhs: mixed distinct/unrestricted DP",
        ),
        IdentityCheck(
            "thm-3.11-series",
            "series form: F_{2,3}(q) - q*F_{4,6}(q) equals 1/prod(1-q^n) over "
            "n == +-2, +-8, +-12, +-14 (mod 32)",
            0,
            _mex("series", thm311),
            _series(lambda n_max: residue_product(ResidueCondition(32, mod32), n_max).invert()),
            notes="lhs: theta-quotient rows; rhs: inverted congruence product",
        ),
        IdentityCheck(
            "thm-3.12-series",
            "series form: F_{2,3}(q) - q^2*F_{6,9}(q) equals 1/prod(1-q^n) over "
            "n == +-1, +-4, +-6, +-8, +-10, +-11 (mod 24)",
            0,
            _mex("series", thm312),
            _series(lambda n_max: residue_product(ResidueCondition(24, mod24), n_max).invert()),
            notes="lhs: theta-quotient rows; rhs: inverted congruence product",
        ),
        IdentityCheck(
            "thm-3.13-series",
            "series form: F_{2,3}(q) - q^4*F_{10,15}(q) equals "
            "prod(1+q^n)[n == +-8, +-12 (40)] / prod(1-q^n)[n not== 0, +-3, +-4, +-7, "
            "+-10, +-13, +-17, 20 (40)]",
            0,
            _mex("series", thm313),
            _series(
                lambda n_max: residue_product(mod40_distinct, n_max)
                * residue_product(mod40_excluded, n_max).invert()
            ),
            notes="lhs: theta-quotient rows; rhs: congruence-product quotient",
        ),
        # -- product/theta identities ------------------------------------------
        IdentityCheck(
            "thm-2.10a",
            "prod(1-q^n) over n not== +-2, +-8, +-12, +-14 (mod 32) equals "
            "sum_{n>=1} (-1)^n (q^{2n^2-1} - q^{n^2-1})",
            0,
            _series(lambda n: residue_product(ResidueCondition(32, mod32, mode="exclude"), n)),
            _theta_difference(2, 1),
            notes="lhs: congruence product; rhs: alternating theta difference",
        ),
        IdentityCheck(
            "thm-2.10b",
            "prod(1-q^n) over n not== +-1, +-4, +-6, +-8, +-10, +-11 (mod 24) equals "
            "sum_{n>=1} (-1)^n (q^{3n^2-1} - q^{n^2-1})",
            0,
            _series(lambda n: residue_product(ResidueCondition(24, mod24, mode="exclude"), n)),
            _theta_difference(3, 1),
            notes="lhs: congruence product; rhs: alternating theta difference",
        ),
        IdentityCheck(
            "thm-2.11",
            "prod(1-q^n)[n == 0, +-3 (10)] * prod(1-q^n)[n == +-4 (40)] * "
            "prod(1+q^n)[n == +-8 (20)] equals sum_{n>=1} (-1)^n (q^{5n^2-1} - q^{n^2-1})",
            0,
            _series(thm211_product),
            _theta_difference(5, 1),
            notes="lhs: three congruence products; rhs: alternating theta difference",
        ),
        # -- classical series-engine identities ----------------------------------
        IdentityCheck(
            "thm-2.1",
            "the pentagonal-number expansion of prod(1-q^n) matches the literal product",
            0,
            _series(euler_product),
            _series(lambda n: residue_product(ResidueCondition(1, frozenset({0})), n)),
            notes="lhs: pentagonal exponent table; rhs: factor-by-factor product",
        ),
        IdentityCheck(
            "thm-2.8",
            f"odd-modulus triple-product specialization: sum side = product side "
            f"(k = 1..{JTP_K_MAX}, 1 <= i <= 2k)",
            0,
            jtp("odd", "sum", jtp_odd),
            jtp("odd", "product", jtp_odd),
            notes="lhs: bilateral theta sums; rhs: triple products",
        ),
        IdentityCheck(
            "jtp-even-lemma",
            f"even-modulus triple-product specialization: sum side = product side "
            f"(k = 1..{JTP_K_MAX}, 1 <= i <= 2k-1)",
            0,
            jtp("even", "sum", jtp_even),
            jtp("even", "product", jtp_even),
            notes="lhs: bilateral theta sums; rhs: triple products",
        ),
        IdentityCheck(
            "thm-2.9",
            "sum_{n>=0} t^n/(q)_n = 1/((1-t)(1-tq)(1-tq^2)...) at t = q^j "
            f"(j = 1..{CAUCHY_T_EXPONENT_MAX}) and t = -q",
            0,
            _series_each(lambda n_max: cauchy_sums_specialized(cauchy_cases, n_max)),
            _table(cauchy_rhs),
            notes="lhs: termwise sums with running 1/(q)_n; rhs: inverted products",
        ),
        IdentityCheck(
            "thm-2.4",
            "second rank moment generating series matches the enumerated moments",
            1,
            _series(second_rank_moment_series),
            _row(partial(statistics.rank_moment_row, 2)),
            requires_enumeration=True,
            notes="lhs: weighted theta quotient; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-2.5",
            "second crank moment generating series matches the enumerated moments (n >= 2)",
            2,
            _series(second_crank_moment_series),
            _row(partial(statistics.crank_moment_enumerated_row, 2)),
            requires_enumeration=True,
            notes="lhs: weighted theta quotient; rhs: enumerated crank histogram; "
            "n = 1 differs by the documented crank anomaly",
        ),
        IdentityCheck(
            "thm-2.2",
            "rank generating series N(m,n) matches enumerated rank counts for |m| <= n",
            1,
            _signed_counts(rank_generating_series),
            _signed_rows(statistics.rank_count_rows),
            requires_enumeration=True,
            notes="lhs: theta-quotient rows; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-2.3",
            "crank generating series M(m,n) matches enumerated crank counts for |m| <= n, n >= 2",
            2,
            _signed_counts(crank_generating_series),
            _signed_rows(statistics.crank_count_rows),
            requires_enumeration=True,
            notes="lhs: theta-quotient rows; rhs: enumerated crank histogram; "
            "n = 1 differs by the documented crank anomaly",
        ),
        IdentityCheck(
            "pe-po-genfun",
            "sum_j q^(2j)/(q)_(2j) and sum_j q^(2j+1)/(q)_(2j+1) generate p_e(n) and p_o(n)",
            0,
            _series_each(lambda n: parts_parity_sums(["even", "odd"], n)),
            _table(partitions.parts_parity_counts),
            notes="lhs: running 1/(q)_j sums; rhs: parity-tracking part DP",
        ),
        # -- auxiliary relations -------------------------------------------------
        IdentityCheck(
            "thm-5.1",
            "p_{A,a}(n-(a-A)) = pbar_{A,a-A}(n) for a > A "
            f"(A <= {SHIFT_A_MAX}, a <= {SWEEP_a_MAX})",
            0,
            _mex_each("recurrence", [[(1, "p", A, a, a - A)] for A, a in shift_pairs]),
            _mex_each("series", [[(1, "pbar", A, a - A, 0)] for A, a in shift_pairs]),
            notes="lhs: recurrence at shifted argument; rhs: generating-series rows",
        ),
        IdentityCheck(
            "cor-5.2",
            "p_{3,6}(n-3) counts the Garden-of-Eden partitions of n",
            1,
            _mex("recurrence", [(1, "p", 3, 6, 3)]),
            _row(statistics.goe_row),
            requires_enumeration=True,
            notes="lhs: recurrence at shifted argument; rhs: enumerated rank histogram",
        ),
        IdentityCheck(
            "thm-5.3",
            "p_{k,k}(k) = p_{k,k-1}(k) = p(k) - 1 for k >= 2 (checked at n = k)",
            2,
            _tabulated(2, lambda k: (p_rec(k, k, k), p_rec(k, k - 1, k))),
            _tabulated(2, lambda k: (partitions.p_count(k) - 1,) * 2),
            notes="lhs: recurrence; rhs: pentagonal p(k) minus one",
        ),
        IdentityCheck(
            "thm-5.4",
            "p_{3,n}(n) - p_{1,n-1}(n) = 0 (n >= 2) and p_{3,n+1}(n) - p_{1,n}(n) = 1 (n >= 1)",
            1,
            _tabulated(1, thm54_lhs),
            _tabulated(1, lambda n: (1,) if n < 2 else (0, 1)),
            notes="lhs: recurrence differences; rhs: stated constants",
        ),
        IdentityCheck(
            "lemma-a-gt-n",
            "p_{A,a}(n) = p(n) and pbar_{A,a}(n) = 0 whenever a > n "
            f"(A <= {SWEEP_A_MAX}, a <= {SWEEP_a_MAX})",
            0,
            lemma_lhs,
            lemma_rhs,
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
