import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexstat import census
from mexstat import series as mexstat_series
from mexstat import statistics as mexstat_statistics
from mexstat.limits import ENUMERATION_CAP
from mexstat.partitions import CapacityError, enumerate_partitions, p_count
from mexstat.series import crank_generating_series, rank_generating_series
from mexstat.statistics import (
    MAX_MOMENT_ORDER,
    MexParams,
    _stat_census,
    crank,
    crank_count,
    crank_count_at_least,
    crank_count_at_least_row,
    crank_count_below,
    crank_count_below_row,
    crank_count_rows,
    crank_histogram,
    crank_moment,
    crank_moment_enumerated_row,
    crank_moment_row,
    crank_moment_enumerated,
    goe_count,
    goe_row,
    mex,
    rank,
    rank_count,
    rank_count_at_least,
    rank_count_at_least_row,
    rank_count_below,
    rank_count_below_row,
    rank_count_rows,
    rank_histogram,
    rank_moment,
    rank_moment_row,
    spt_direct,
    spt_row,
)


class TestMex:
    def test_reference_rows(self):
        assert mex((3, 3), MexParams(2, 3)) == 5
        assert mex((6,), MexParams(2, 3)) == 3

    def test_empty_partition(self):
        assert mex((), MexParams(2, 3)) == 3
        assert mex((), MexParams(5, 9)) == 9

    def test_full_mex_column_for_six(self):
        params = MexParams(2, 3)
        got = [mex(p, params) for p in enumerate_partitions(6)]
        assert got == [3, 3, 3, 3, 5, 5, 5, 3, 3, 3, 3]

    def test_params_validation(self):
        for A, a in [(0, 1), (1, 0), (-2, -3)]:
            message = f"^A and a must be positive integers, got A={A}, a={a}$"
            with pytest.raises(ValueError, match=message):
                MexParams(A, a)


class TestRankCrank:
    def test_rank_examples(self):
        assert rank((4, 3)) == 2
        assert rank((7,)) == 6
        assert rank((1,) * 5) == -4
        assert rank(()) == 0

    def test_crank_examples(self):
        assert crank((2, 2, 2)) == 2
        assert crank((2, 2, 1, 1)) == -2
        assert crank((3, 2, 2, 1)) == 2
        assert crank((4, 2)) == 4
        assert crank(()) == 0

    def test_crank_histogram_of_six(self):
        assert crank_histogram(6) == {
            6: 1, 4: 1, 3: 1, 2: 1, 1: 1, 0: 1,
            -1: 1, -2: 1, -3: 1, -4: 1, -6: 1,
        }


class TestRankCounts:
    def test_exact_value(self):
        # partitions of 5 by rank: 5->4, 4+1->2, 3+2->1, 3+1+1->0,
        # 2+2+1->-1, 2+1+1+1->-2, 1^5->-4
        assert rank_count(2, 5) == 1
        assert rank_count_at_least(2, 5) == 2  # [5] and [4,1]

    def test_symmetry(self):
        for n in range(1, 31):
            for m in range(0, n + 1):
                assert rank_count(m, n) == rank_count(-m, n)

    def test_row_sum_is_p(self):
        for n in range(1, 31):
            assert sum(rank_count(m, n) for m in range(-n, n + 1)) == p_count(n)

    def test_series_matches_combinatorial(self):
        for n in range(1, 26):
            for m in range(-n, n + 1):
                assert rank_count(m, n, "series") == rank_count(m, n)

    def test_at_least_plus_below_partition(self):
        for n in range(1, 21):
            for j in range(-3, 4):
                assert rank_count_at_least(j, n) + rank_count_below(j, n) == p_count(n)


class TestCrankCounts:
    def test_exact_value(self):
        assert crank_count(2, 6) == 1  # only [2,2,2]

    def test_series_anomaly_at_one(self):
        assert crank_count(0, 1, "series") == -1
        assert crank_count(1, 1, "series") == 1
        assert crank_count(-1, 1, "series") == 1
        assert crank_count(-1, 1, "combinatorial") == 1
        assert crank_count(0, 1, "combinatorial") == 0

    def test_series_matches_combinatorial_from_two(self):
        for n in range(2, 26):
            for m in range(-n, n + 1):
                assert crank_count(m, n, "series") == crank_count(m, n)

    def test_symmetry_combinatorial(self):
        for n in range(2, 31):
            for m in range(0, n + 1):
                assert crank_count(m, n) == crank_count(-m, n)

    def test_rows_match_per_n_series_sums(self):
        # the per-n sums over M(m, n) from the series, for each n separately
        n_max = 40
        for j in range(-3, 6):
            at_least = crank_count_at_least_row(j, n_max)
            below = crank_count_below_row(j, n_max)
            for n in range(n_max + 1):
                series = [crank_count(m, n, "series") for m in range(-n, n + 1)]
                assert at_least[n] == sum(series[max(j, -n) + n :])
                assert below[n] == sum(series[: max(min(j, n + 1) + n, 0)])
                assert crank_count_at_least(j, n) == at_least[n]
                assert crank_count_below(j, n) == below[n]
        for k in range(0, 5):
            row = crank_moment_row(k, n_max)
            for n in range(1, n_max + 1):
                expected = sum(m**k * crank_count(m, n, "series") for m in range(-n, n + 1))
                assert row[n] == expected == crank_moment(k, n)

    def test_unknown_method_rejected(self):
        for count in (crank_count_at_least, crank_count_below, crank_count, rank_count):
            with pytest.raises(ValueError, match="unknown method 'bogus'"):
                count(0, 1, "bogus")

    def test_at_least_series(self):
        # crank >= 2 column for n = 1..8
        got = [crank_count_at_least(2, n) for n in range(1, 9)]
        assert got == [0, 1, 1, 2, 2, 4, 5, 8]


class TestMoments:
    def test_second_rank_moment_spot(self):
        assert rank_moment(2, 4) == 20

    def test_second_crank_moment_spot(self):
        assert crank_moment(2, 4) == 40

    def test_odd_rank_moments_vanish(self):
        for n in range(1, 41):
            assert rank_moment(1, n) == 0
            assert rank_moment(3, n) == 0

    def test_second_crank_moment_is_two_n_p(self):
        for n in range(1, 41):
            assert crank_moment(2, n) == 2 * n * p_count(n)

    def test_zeroth_moments_give_p(self):
        for n in range(1, 21):
            assert rank_moment(0, n) == p_count(n)
            assert crank_moment(0, n) == p_count(n)

    def test_enumerated_crank_moment_differs_only_at_one(self):
        assert crank_moment_enumerated(2, 1) == 1
        assert crank_moment(2, 1) == 2
        for n in range(2, 31):
            assert crank_moment_enumerated(2, n) == crank_moment(2, n)

    def test_moment_order_capped(self):
        with pytest.raises(ValueError):
            rank_moment(5, 3)


class TestSptGoe:
    def test_spt_small_values(self):
        assert [spt_direct(n) for n in range(1, 6)] == [1, 3, 5, 10, 14]

    def test_spt_via_rank_moment(self):
        for n in range(1, 41):
            assert spt_direct(n) == n * p_count(n) - rank_moment(2, n) // 2
            assert rank_moment(2, n) % 2 == 0

    def test_goe_values(self):
        assert goe_count(8) == 7
        assert goe_count(1) == 0
        assert goe_count(3) == 1  # only 1+1+1

    def test_goe_is_rank_tail(self):
        for n in range(1, 31):
            tail = sum(rank_count(m, n) for m in range(-n, -1))
            assert goe_count(n) == tail

    def test_preconditions(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                rank_count_at_least(0, n)
            with pytest.raises(ValueError):
                rank_count_below(0, n)
            with pytest.raises(ValueError):
                crank_count_at_least(0, n, "combinatorial")
            with pytest.raises(ValueError):
                crank_count_below(0, n, "combinatorial")
            with pytest.raises(ValueError):
                crank_moment_enumerated(2, n)
        with pytest.raises(ValueError):
            spt_direct(0)
        with pytest.raises(ValueError):
            goe_count(0)
        with pytest.raises(ValueError):
            rank_histogram(0)


def test_every_combinatorial_aggregate_honours_the_enumeration_cap():
    n = 71
    calls = [
        lambda: rank_histogram(n),
        lambda: crank_histogram(n),
        lambda: rank_count(0, n),
        lambda: crank_count(0, n),
        lambda: rank_count_at_least(0, n),
        lambda: rank_count_below(0, n),
        lambda: crank_count_at_least(0, n, "combinatorial"),
        lambda: crank_count_below(0, n, "combinatorial"),
        lambda: rank_moment(2, n),
        lambda: crank_moment_enumerated(2, n),
        lambda: spt_direct(n),
        lambda: goe_count(n),
    ]
    for call in calls:
        with pytest.raises(CapacityError):
            call()


# ---------------------------------------------------------------------------
# the counting-DP rows against the literal statistics of every partition
# ---------------------------------------------------------------------------


def _literal_census(n):
    parts = list(enumerate_partitions(n))
    return (
        Counter(rank(p) for p in parts),
        Counter(crank(p) for p in parts),
        sum(p.count(p[-1]) for p in parts if p),
    )


@given(n=st.integers(min_value=1, max_value=25))
@settings(max_examples=25, deadline=None)
def test_histograms_and_spt_match_literal_tallies(n):
    ranks, cranks, spt = _literal_census(n)
    assert rank_histogram(n) == dict(ranks)
    assert crank_histogram(n) == dict(cranks)
    assert spt_direct(n) == spt


@given(n_max=st.integers(min_value=0, max_value=25))
@settings(max_examples=15, deadline=None)
def test_rows_match_literal_tallies_at_every_n(n_max):
    rank_rows, crank_rows, spt = rank_count_rows(n_max), crank_count_rows(n_max), spt_row(n_max)
    assert sorted(rank_rows) == sorted(crank_rows) == list(range(-n_max, n_max + 1))
    for n in range(n_max + 1):
        ranks, cranks, spt_n = _literal_census(n)
        assert {m: row[n] for m, row in rank_rows.items() if row[n]} == dict(ranks)
        assert {m: row[n] for m, row in crank_rows.items() if row[n]} == dict(cranks)
        assert spt[n] == spt_n


def test_rank_flavours_disagree_at_zero():
    # the empty partition has rank 0 in the census; the rank series has no q^0 term at
    # m = 0, while the crank flavours agree there
    assert rank_count_rows(0)[0] == (1,)
    assert rank_count_rows(5)[0][0] == 1
    assert rank_count(0, 0, "series") == 0
    assert crank_count_rows(0)[0] == (1,)
    assert crank_count(0, 0, "series") == 1
    assert [rank_count(m, 0, "series") for m in range(-3, 4)] == [0] * 7


def test_crank_anomaly_pinned_in_the_histogram():
    # the one partition of 1 has one 1 and no larger part: crank 0 - 1
    assert crank_histogram(1) == {-1: 1}
    assert crank_count_rows(3)[-1][1] == 1


def test_aggregate_rows_read_like_the_point_functions():
    # every point reader is entry n of its row function, read off a freshly built census
    _stat_census.cache_clear()
    n_max = ENUMERATION_CAP
    js = range(-3, 4)
    rank_rows, crank_rows = rank_count_rows(n_max), crank_count_rows(n_max)
    at_least = {j: rank_count_at_least_row(j, n_max) for j in js}
    below = {j: rank_count_below_row(j, n_max) for j in js}
    moments = {k: rank_moment_row(k, n_max) for k in range(5)}
    crank_moments = {k: crank_moment_enumerated_row(k, n_max) for k in range(5)}
    goe, spt = goe_row(n_max), spt_row(n_max)
    for n in range(1, n_max + 1):
        for rows, count, histogram in (
            (rank_rows, rank_count, rank_histogram),
            (crank_rows, crank_count, crank_histogram),
        ):
            assert histogram(n) == {m: row[n] for m, row in rows.items() if row[n]}
            for m in range(-n, n + 1):
                assert count(m, n) == rows[m][n]
            assert count(n + 1, n) == count(-n - 1, n) == 0
        for j in js:
            assert at_least[j][n] == rank_count_at_least(j, n)
            assert below[j][n] == rank_count_below(j, n)
            crank_at_least = sum(row[n] for m, row in crank_rows.items() if m >= j)
            crank_below = sum(row[n] for m, row in crank_rows.items() if m < j)
            assert crank_count_at_least(j, n, "combinatorial") == crank_at_least
            assert crank_count_below(j, n, "combinatorial") == crank_below
        for k in range(5):
            assert moments[k][n] == rank_moment(k, n)
            assert crank_moments[k][n] == crank_moment_enumerated(k, n)
        assert goe[n] == goe_count(n)
        assert spt[n] == spt_direct(n)
    with pytest.raises(ValueError):
        rank_moment_row(5, 3)
    with pytest.raises(ValueError):
        spt_row(-1)
    with pytest.raises(CapacityError):
        rank_count_rows(71)


def test_count_rows_at_the_cap_match_the_generating_series():
    # the identity catalog reads these rows to n = 50 only
    n_max = ENUMERATION_CAP
    for rows, series in (
        (rank_count_rows(n_max), rank_generating_series),
        (crank_count_rows(n_max), crank_generating_series),
    ):
        assert sorted(rows) == list(range(-n_max, n_max + 1))
        for m, row in rows.items():
            assert row[2:] == series(abs(m), n_max).coeffs[2:], m


def test_every_combinatorial_aggregate_reads_one_census():
    points = [
        lambda n: rank_histogram(n),
        lambda n: crank_histogram(n),
        lambda n: rank_count(n // 3, n),
        lambda n: crank_count(-(n // 4), n),
        lambda n: rank_count_at_least(1, n),
        lambda n: rank_count_below(-1, n),
        lambda n: crank_count_at_least(2, n, "combinatorial"),
        lambda n: crank_count_below(0, n, "combinatorial"),
        lambda n: rank_moment(2, n),
        lambda n: crank_moment_enumerated(4, n),
        lambda n: spt_direct(n),
        lambda n: goe_count(n),
    ]
    rows = [
        rank_count_rows,
        crank_count_rows,
        lambda n: rank_count_at_least_row(0, n),
        lambda n: rank_count_below_row(1, n),
        lambda n: rank_moment_row(2, n),
        lambda n: crank_moment_enumerated_row(2, n),
        goe_row,
        spt_row,
    ]
    calls = [(point, n) for point in points for n in range(1, ENUMERATION_CAP + 1)]
    calls += [(row, n) for row in rows for n in range(0, ENUMERATION_CAP + 1, 10)]
    random.Random(7).shuffle(calls)
    _stat_census.cache_clear()
    for call, n in calls:
        call(n)
    assert _stat_census.cache_info().misses == 1
    # one list of int rows per statistic, the rows and the points alike read: rank and
    # crank hold the rows of m = -cap..cap, spt one row, each of cap + 1 ints; no bytes
    census = _stat_census()
    assert {stat: len(rows) for stat, rows in census.items()} == {
        "rank": 2 * ENUMERATION_CAP + 1,
        "crank": 2 * ENUMERATION_CAP + 1,
        "spt": 1,
    }
    for rows in census.values():
        assert all(type(row) is tuple and len(row) == ENUMERATION_CAP + 1 for row in rows)
        assert all(type(c) is int for row in rows for c in row)


@pytest.mark.parametrize("n_max", [0, 1, 2, 17, ENUMERATION_CAP])
def test_census_row_sums_equal_the_literal_per_row_sums(n_max):
    # every weight a census row function applies, against sum_m weight(m) * N(m, n) over
    # the rows in bulk: thresholds that leave no row, one row and every row of one weight
    rows = {stat: mexstat_statistics._census_rows(stat, n_max) for stat in ("rank", "crank")}

    def literal(stat, weight):
        return tuple(
            sum(weight(m) * row[n] for m, row in rows[stat].items()) for n in range(n_max + 1)
        )

    for j in range(-n_max - 2, n_max + 3):
        assert rank_count_at_least_row(j, n_max) == literal("rank", lambda m: m >= j)
        assert rank_count_below_row(j, n_max) == literal("rank", lambda m: m < j)
    for k in range(MAX_MOMENT_ORDER + 1):
        assert rank_moment_row(k, n_max) == literal("rank", lambda m: m**k)
        assert crank_moment_enumerated_row(k, n_max) == literal("crank", lambda m: m**k)
    assert goe_row(n_max) == literal("rank", lambda m: m < -1)
    assert spt_row(n_max) == mexstat_statistics._census_rows("spt", n_max)[0]


def test_the_census_at_the_cap_holds_under_half_a_mebibyte():
    # the int rows of a cold census, as tracemalloc counts what it keeps: 289 KiB
    # measured (CPython 3.11)
    _stat_census.cache_clear()
    tracemalloc.start()
    try:
        _stat_census()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 512 * 1024


def test_a_cold_census_build_peaks_below_400_kib():
    # each statistic is unpacked as its DP ends, so at most one is held packed
    # beside the int rows: 363 KiB measured (CPython 3.11)
    _stat_census.cache_clear()
    tracemalloc.start()
    try:
        _stat_census()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024


def test_one_clear_frees_the_whole_census():
    # after rows and points of every statistic, clearing the census leaves no cache holding,
    # in statistics or in the census module it reads
    for read in (rank_count_rows, crank_count_rows, spt_row, rank_histogram, spt_direct):
        read(40)
    _stat_census.cache_clear()
    modules = {mexstat_statistics.__name__: mexstat_statistics, census.__name__: census}
    cached = [
        value
        for module in modules.values()
        for value in vars(module).values()
        if callable(getattr(value, "cache_info", None)) and value.__module__ in modules
    ]
    assert cached and all(fn.cache_info().currsize == 0 for fn in cached)


# ---------------------------------------------------------------------------
# series point functions: entry n of the row routes, one coefficient each
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-320, max_value=320), st.integers(min_value=0, max_value=300))
def test_series_counts_are_coefficient_n_of_the_count_series(m, n):
    assert rank_count(m, n, "series") == rank_generating_series(abs(m), n).coeff(n)
    assert crank_count(m, n, "series") == crank_generating_series(abs(m), n).coeff(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=300))
def test_series_crank_moment_is_entry_n_of_its_row(k, n):
    assert crank_moment(k, n) == crank_moment_row(k, n)[n]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-320, max_value=320), st.integers(min_value=0, max_value=300))
def test_series_crank_counts_are_entry_n_of_their_rows(j, n):
    assert crank_count_at_least(j, n) == crank_count_at_least_row(j, n)[n]
    assert crank_count_below(j, n) == crank_count_below_row(j, n)[n]


def _per_m_crank_row(n_max, weight):
    # the per-m route: sum over m of (weight(m) + weight(-m)) times the count series of m
    out = [0] * (n_max + 1)
    for m in range(n_max + 1):
        w = weight(m) + weight(-m) if m else weight(0)
        out = [o + w * c for o, c in zip(out, crank_generating_series(m, n_max).coeffs)]
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=4), st.data())
def test_series_crank_rows_match_the_per_m_count_series(n_max, k, data):
    j = data.draw(st.integers(min_value=-n_max - 2, max_value=n_max + 2), label="j")
    assert crank_moment_row(k, n_max) == _per_m_crank_row(n_max, lambda m: m**k)
    assert crank_count_at_least_row(j, n_max) == _per_m_crank_row(n_max, lambda m: m >= j)
    assert crank_count_below_row(j, n_max) == _per_m_crank_row(n_max, lambda m: m < j)


def test_series_crank_rows_cache_no_count_series():
    crank_generating_series.cache_clear()
    crank_count_at_least_row(3, 200)
    crank_count_below_row(-2, 200)
    crank_moment_row(2, 200)
    assert crank_generating_series.cache_info().currsize == 0


def test_series_points_at_the_edges():
    for n in (0, 1):
        for m in range(-3, 4):
            assert rank_count(m, n, "series") == rank_generating_series(abs(m), n).coeff(n)
            assert crank_count(m, n, "series") == crank_generating_series(abs(m), n).coeff(n)
        for j in range(-3, 4):
            assert crank_count_at_least(j, n) == crank_count_at_least_row(j, n)[n]
            assert crank_count_below(j, n) == crank_count_below_row(j, n)[n]
    # the crank anomaly at n = 1: M(-1, 1), M(0, 1), M(1, 1) = 1, -1, 1
    assert [crank_count_at_least(j, 1) for j in (-2, -1, 0, 1, 2)] == [1, 1, 0, 1, 0]
    assert [crank_count_below(j, 1) for j in (-2, -1, 0, 1, 2)] == [0, 0, 1, 0, 1]
    assert [crank_moment(k, 1) for k in range(5)] == [crank_moment_row(k, 1)[1] for k in range(5)]
    assert [crank_moment(k, 1) for k in range(5)] == [1, 0, 2, 0, 2]
    # |m| > n and j beyond +-n
    for n in range(0, 60):
        for m in (n + 1, -n - 1, n + 7, -3 * n - 5):
            assert rank_count(m, n, "series") == crank_count(m, n, "series") == 0
        for j in (n + 1, n + 9):
            assert crank_count_at_least(j, n) == crank_count_below(-j, n) == 0
            assert crank_count_below(j, n) == crank_count_at_least(-j, n) == p_count(n)


def _forbidden(*args, **kwargs):
    raise AssertionError("a refused input must not reach the series")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank_count(0, -1, "series"), "n must be non-negative"),
        (lambda: crank_count(3, -2, "series"), "n must be non-negative"),
        (lambda: crank_count_at_least(0, -1), "n must be non-negative"),
        (lambda: crank_count_below(5, -3, "series"), "n must be non-negative"),
        (lambda: crank_moment(2, 0), "n must be at least 1"),
        (lambda: crank_moment(5, -1), "n must be at least 1"),
        (lambda: crank_moment(5, 3), "moment order must be in 0..4"),
        (lambda: crank_moment(-1, 3), "moment order must be in 0..4"),
    ],
)
def test_series_points_refuse_bad_input_before_any_work(monkeypatch, call, message):
    for name in ("theta_quotient_at", "count_numerator"):
        monkeypatch.setattr(mexstat_statistics, name, _forbidden)
    monkeypatch.setattr(mexstat_series, "partition_generating_series", _forbidden)
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
