"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact integer equality; the stated wall-time
budgets are asserted as well.
"""

import time
from contextlib import contextmanager
from pathlib import Path

from mexstat import identities, series, tables
from mexstat.mexcount import mex_census_rows, p_mex_recurrence, p_mex_series
from mexstat.partitions import p_count
from mexstat.statistics import (
    MexParams,
    crank_count,
    crank_moment,
    crank_moment_enumerated,
    rank_moment,
    spt_direct,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num}: PASS ({elapsed:.2f}s, limit {limit_s:.0f}s) - {description}")
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s, budget {limit_s}s"


def _verify_pass(check_id: str, n_max: int) -> None:
    report = identities.verify(check_id, n_max)
    assert report.status == "pass", (check_id, report.failures[:5])


def test_criterion_1_table_reproduction():
    with criterion(1, "tables 1-3 regenerate the reference csv files exactly", 1.0):
        for table_id in (1, 2, 3):
            golden = (GOLDEN / f"table{table_id}.csv").read_text()
            assert tables.render_csv(table_id) == golden, f"table {table_id} drifted"

        rows1 = tables.table1_rows()
        assert sum(1 for r in rows1 if r["p_2_3"] == "x") == 8
        assert sum(1 for r in rows1 if r["pbar_2_3"] == "x") == 3

        rows2 = tables.table2_rows()
        assert [r["p_3_1"] for r in rows2] == ["0", "1", "1", "2", "3", "5", "6", "10"]
        assert [r["p_3_2"] for r in rows2] == ["1", "1", "2", "3", "4", "6", "9", "12"]
        assert [r["pbar_3_3"] for r in rows2] == ["0", "0", "1", "1", "2", "3", "5", "7"]
        assert [r["pbar_1_2"] for r in rows2] == ["0", "1", "1", "2", "2", "4", "5", "8"]

        rows3 = tables.table3_rows()
        assert [r["spt"] for r in rows3] == ["1", "3", "5", "10", "14"]


def test_criterion_2_three_method_agreement():
    with criterion(
        2, "enumeration = series = recurrence for A<=10, a<=15, n<=50, and p+pbar=p(n)", 120.0
    ):
        grid = [(A, a) for A in range(1, 11) for a in range(1, 16)]
        census = mex_census_rows(50, grid)
        assert len(census) == 150
        for (A, a), (p_row, pbar_row) in census.items():
            series_row = p_mex_series(MexParams(A, a), 50)
            for n in range(0, 51):
                p_enum = p_row[n]
                assert p_enum + pbar_row[n] == p_count(n), (A, a, n)
                assert p_enum == series_row[n], (A, a, n)
                assert p_enum == p_mex_recurrence(MexParams(A, a), n), (A, a, n)


def test_criterion_3_rank_crank_relations():
    with criterion(
        3, "rank/crank relations (j sweeps to 8) and the two specializations at n<=50", 60.0
    ):
        for check_id in ("thm-3.3", "cor-3.4", "cor-3.5", "thm-3.6", "cor-3.7",
                         "thm-1.1", "thm-1.2"):
            _verify_pass(check_id, 50)


def test_criterion_4_moments_and_spt():
    with criterion(4, "second-moment sums and the spt decomposition at n<=40", 60.0):
        assert rank_moment(2, 4) == 20
        assert crank_moment(2, 4) == 40
        for check_id in ("thm-3.8-rank", "thm-3.8-crank", "cor-3.9"):
            _verify_pass(check_id, 40)
        # cross-checks: spt against the rank moment, and the series-backed
        # crank moment against the enumerated one where both are defined
        for n in range(1, 41):
            assert 2 * n * p_count(n) - rank_moment(2, n) == 2 * spt_direct(n)
        for n in range(2, 41):
            assert crank_moment(2, n) == crank_moment_enumerated(2, n)


def test_criterion_5_congruence_families():
    with criterion(
        5, "even/odd congruence families (k<=5, valid i) and parts==2 (mod 4) at n<=50", 60.0
    ):
        for check_id in ("thm-3.10-even", "thm-3.10-odd", "psi-minus-q"):
            _verify_pass(check_id, 50)


def test_criterion_6_shifted_identities():
    with criterion(
        6, "shifted identities combinatorially at n<=50 and as series to precision 500", 60.0
    ):
        for check_id in ("thm-3.11", "thm-3.12", "thm-3.13"):
            _verify_pass(check_id, 50)
        for check_id in ("thm-3.11-series", "thm-3.12-series", "thm-3.13-series"):
            _verify_pass(check_id, 500)


def test_criterion_7_series_engine_identities():
    with criterion(
        7,
        "pentagonal expansion at 500; triple products (k<=6), product/theta pairs, "
        "termwise Cauchy sums, and parts-parity series at 200",
        120.0,
    ):
        _verify_pass("thm-2.1", 500)
        for check_id in ("thm-2.8", "jtp-even-lemma", "thm-2.10a", "thm-2.10b",
                         "thm-2.11", "thm-2.9", "pe-po-genfun"):
            _verify_pass(check_id, 200)


def test_criterion_8_auxiliary_results():
    with criterion(
        8, "shift relation, Garden-of-Eden shift, diagonal values, and the a>n collapse", 60.0
    ):
        _verify_pass("thm-5.1", 50)
        _verify_pass("cor-5.2", 50)
        _verify_pass("thm-5.3", 60)
        _verify_pass("thm-5.4", 60)
        _verify_pass("lemma-a-gt-n", 50)


def test_criterion_9_crank_anomaly():
    with criterion(
        9, "enumerated and series crank counts agree for 2<=n<=40 and differ at n=1 as documented",
        10.0,
    ):
        for n in range(2, 41):
            for m in range(-n, n + 1):
                assert crank_count(m, n, "series") == crank_count(m, n, "combinatorial"), (m, n)
        assert crank_count(0, 1, "series") == -1
        assert crank_count(1, 1, "series") == 1
        assert crank_count(-1, 1, "series") == 1
        assert crank_count(-1, 1, "combinatorial") == 1
        assert sum(
            crank_count(m, 1, "combinatorial") for m in (-1, 0, 1)
        ) == 1


def test_criterion_10_crank_moment_at_the_series_cap():
    # Dyson: M_2(n) = 2n p(n), checked against the pentagonal p(n)
    for cached in (
        series.partition_generating_series,
        series.rank_generating_series,
        series.crank_generating_series,
    ):
        cached.cache_clear()
    with criterion(10, "crank_moment(2, 2000) from cold caches, equal to 2n p(n)", 1.0):
        value = crank_moment(2, 2000)
    assert value == 2 * 2000 * p_count(2000)


# the 14 checks whose work is series arithmetic (the benchmark's series-deep set)
SERIES_DEEP_IDS = (
    "thm-2.1", "thm-2.8", "jtp-even-lemma", "thm-2.9", "thm-2.10a", "thm-2.10b",
    "thm-2.11", "pe-po-genfun", "thm-3.1", "thm-1.3", "thm-3.11-series",
    "thm-3.12-series", "thm-3.13-series", "lemma-a-gt-n",
)


def test_criterion_11_series_checks_at_1000():
    # a packed slot too narrow for the coefficients at 1000 may still hold those
    # at 200, the precision criterion 7 checks
    with criterion(11, "the 14 series-arithmetic checks at n=1000", 5.0):
        for check_id in SERIES_DEEP_IDS:
            _verify_pass(check_id, 1000)


def test_criterion_12_sparse_products_at_10000():
    # each product has O(sqrt(P)) nonzero coefficients: the Euler transform takes
    # one packed pass per nonzero, where shift-adds took one per factor
    every_part = series.ResidueCondition(1, {0})
    with criterion(12, "the odd JTP product (k = i = 1) at precision 10000", 1.0):
        jtp = series.jtp_specialized(1, 1, "odd", "product", 10000)
    with criterion(12, "prod (1 - q^n) over every n at precision 10000", 1.0):
        euler = series.residue_product(every_part, 10000)
    assert jtp == series.jtp_specialized(1, 1, "odd", "sum", 10000)
    assert euler == series.euler_product(10000)
