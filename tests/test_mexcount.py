import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexstat import arith, mexcount, partitions, series, statistics
from mexstat.mexcount import (
    mex_census,
    mex_census_rows,
    mex_row,
    mex_series_at,
    p_mex_enum,
    p_mex_recurrence,
    p_mex_series,
    pbar_mex_enum,
    pbar_mex_recurrence,
    pbar_mex_series,
)
from mexstat.partitions import CapacityError, enumerate_partitions, p_count
from mexstat.statistics import MexParams, mex


class TestEnumeration:
    def test_reference_pair(self):
        params = MexParams(2, 3)
        assert p_mex_enum(params, 6) == 8
        assert pbar_mex_enum(params, 6) == 3

    def test_three_one_at_eight(self):
        assert p_mex_enum(MexParams(3, 1), 8) == 10

    def test_n_zero(self):
        for params in (MexParams(1, 1), MexParams(4, 7), MexParams(10, 3)):
            assert p_mex_enum(params, 0) == 1
            assert pbar_mex_enum(params, 0) == 0

    def test_cap(self):
        with pytest.raises(CapacityError):
            p_mex_enum(MexParams(2, 3), 71)


class TestSeries:
    def test_row_3_2(self):
        assert p_mex_series(MexParams(3, 2), 5) == (1, 1, 1, 2, 3, 4)

    def test_barred_row_1_2(self):
        assert pbar_mex_series(MexParams(1, 2), 8) == (0, 0, 1, 1, 2, 2, 4, 5, 8)

    def test_a_above_n_gives_p(self):
        row = p_mex_series(MexParams(5, 11), 10)
        assert row == tuple(p_count(n) for n in range(11))

    def test_precision_zero(self):
        assert p_mex_series(MexParams(1, 1), 0) == (1,)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=320),
    st.booleans(),
    st.integers(min_value=0, max_value=300),
)
def test_series_point_is_entry_n_of_the_row(A, a, barred, n):
    params = MexParams(A, a)
    row = (pbar_mex_series if barred else p_mex_series)(params, n)
    assert mex_series_at(params, n, barred) == row[n]


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("A,a", [(1, 1), (2, 3), (5, 11)])
def test_series_point_at_the_smallest_n(A, a, n):
    params = MexParams(A, a)
    routes = ((False, p_mex_series, p_mex_enum), (True, pbar_mex_series, pbar_mex_enum))
    for barred, row, enum in routes:
        assert mex_series_at(params, n, barred) == row(params, n)[n] == enum(params, n)


def test_series_point_refuses_negative_n_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no series may be built for a refused n")

    for module, name in [
        (mexcount, "mex_numerator"),
        (mexcount, "theta_quotient_at"),
        (series, "partition_generating_series"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    for barred in (False, True):
        with pytest.raises(ValueError, match="n must be non-negative"):
            mex_series_at(MexParams(2, 3), -1, barred)


class TestRecurrence:
    def test_reference_values(self):
        assert p_mex_recurrence(MexParams(2, 3), 6) == 8
        assert p_mex_recurrence(MexParams(3, 6), 5) == 7  # a > n, so p(5)
        assert p_mex_recurrence(MexParams(1, 1), 4) == 3

    def test_negative_n_is_zero(self):
        assert p_mex_recurrence(MexParams(2, 3), -1) == 0
        assert pbar_mex_recurrence(MexParams(2, 3), -4) == 0


class TestAgreement:
    def test_three_methods_small_sweep(self):
        for A in range(1, 5):
            for a in range(1, 7):
                params = MexParams(A, a)
                row = p_mex_series(params, 18)
                for n in range(0, 19):
                    enum = p_mex_enum(params, n)
                    rec = p_mex_recurrence(params, n)
                    assert enum == rec == row[n], (A, a, n)

    def test_complementarity(self):
        for A in range(1, 5):
            for a in range(1, 7):
                params = MexParams(A, a)
                for n in range(0, 19):
                    assert p_mex_enum(params, n) + pbar_mex_enum(params, n) == p_count(n)

    def test_monotone_sanity(self):
        for A in range(1, 5):
            for a in range(1, 7):
                row = p_mex_series(MexParams(A, a), 25)
                for n in range(0, 26):
                    assert 0 <= row[n] <= p_count(n)

    def test_census_matches_single_pair_calls(self):
        census = mex_census(12, 6, 4)
        for A in range(1, 5):
            for a in range(1, 7):
                params = MexParams(A, a)
                assert census[(A, a)] == (p_mex_enum(params, 12), pbar_mex_enum(params, 12))

    def test_census_at_zero(self):
        census = mex_census(0, 3, 3)
        assert all(v == (1, 0) for v in census.values())


@given(
    A=st.integers(min_value=1, max_value=6),
    a=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=0, max_value=22),
)
@settings(max_examples=40, deadline=None)
def test_series_equals_enumeration(A, a, n):
    params = MexParams(A, a)
    assert p_mex_series(params, n)[n] == p_mex_enum(params, n)


@given(
    sign=st.integers(min_value=-3, max_value=3),
    barred=st.booleans(),
    A=st.integers(min_value=1, max_value=8),
    a=st.integers(min_value=1, max_value=20),
    shift=st.integers(min_value=0, max_value=70),
    n_max=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_a_one_term_mex_row_is_the_per_pair_count_on_each_route(sign, barred, A, a, shift, n_max):
    # sign * p_{A,a}(n - shift), or pbar, at n = 0..n_max; 0 below the shift
    params, term = MexParams(A, a), (sign, "pbar" if barred else "p", A, a, shift)
    row = (pbar_mex_series if barred else p_mex_series)(params, n_max)
    point = pbar_mex_recurrence if barred else p_mex_recurrence
    assert mex_row("series", [term], n_max) == [
        sign * row[n - shift] if n >= shift else 0 for n in range(n_max + 1)
    ]
    assert mex_row("recurrence", [term], n_max) == [
        sign * point(params, n - shift) for n in range(n_max + 1)
    ]


def test_mex_row_refuses_an_unknown_route():
    with pytest.raises(ValueError, match="unknown route"):
        mex_row("enum", [(1, "p", 2, 3, 0)], 5)


@given(
    A=st.integers(min_value=1, max_value=6),
    a=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_census_matches_literal_mex_count(A, a, n):
    # the per-partition oracle: classify the mex of every partition of n
    params = MexParams(A, a)
    mexes = [mex(parts, params) for parts in enumerate_partitions(n)]
    p = sum(1 for m in mexes if m % (2 * A) == a % (2 * A))
    pbar = sum(1 for m in mexes if m % (2 * A) == (A + a) % (2 * A))
    assert p + pbar == len(mexes)
    assert p_mex_enum(params, n) == p
    assert pbar_mex_enum(params, n) == pbar
    assert mex_census(n, 9, 6)[(A, a)] == (p, pbar)


def test_census_rows_read_neither_pentagonal_table_nor_series(monkeypatch):
    # the enumerated side of a check must share no route with the side it is
    # checked against: no partition walk, no pentagonal p(n), no series
    def forbidden(*args, **kwargs):
        raise AssertionError("the counting DPs must not use this route")

    for module, name in [
        (partitions, "p_count"),
        (partitions, "ascending_partitions"),
        (partitions, "enumerate_partitions"),
        (mexcount, "theta_terms"),
        (mexcount, "theta_quotient"),
        (mexcount, "theta_quotient_at"),
        (statistics, "theta_quotient_at"),
        (statistics, "count_numerator"),
        (statistics, "theta_quotient"),
        (series, "theta_terms"),
        (series, "theta_quotient"),
        (series, "theta_quotient_at"),
        (series, "partition_generating_series"),
        (series, "rank_generating_series"),
        (series, "crank_generating_series"),
        (series, "second_rank_moment_series"),
        (series, "second_crank_moment_series"),
        (arith, "_product"),
        (arith.TruncatedSeries, "__init__"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    statistics._stat_census.cache_clear()
    grid = [(A, a) for A in range(1, 7) for a in range(1, 10)]
    rows = mex_census_rows(20, grid)
    stat_rows = (
        statistics.rank_count_rows(20),
        statistics.crank_count_rows(20),
        statistics.spt_row(20),
        statistics.goe_row(20),
        statistics.rank_moment_row(2, 20),
    )
    spt_19 = statistics.spt_direct(19)
    monkeypatch.undo()
    for (A, a), (p_row, pbar_row) in rows.items():
        params = MexParams(A, a)
        assert list(p_row) == [p_mex_recurrence(params, n) for n in range(21)]
        assert [p + pb for p, pb in zip(p_row, pbar_row)] == [p_count(n) for n in range(21)]
    rank_rows, crank_rows, spt, goe, moment = stat_rows
    for n in range(1, 21):
        assert sum(row[n] for row in rank_rows.values()) == p_count(n)
        assert sum(row[n] for row in crank_rows.values()) == p_count(n)
        assert 2 * spt[n] == 2 * n * p_count(n) - moment[n]
        assert goe[n] == pbar_mex_recurrence(MexParams(3, 3), n)
    assert spt_19 == spt[19]


def test_census_rows_memory_follows_n_max_not_the_pairs():
    # only parts <= n_max can be present, so huge A or a must cost nothing extra
    rows = mex_census_rows(5, [(10**15, 1), (1, 10**15)])
    for (A, a), (p_row, pbar_row) in rows.items():
        assert list(p_row) == [p_mex_recurrence(MexParams(A, a), n) for n in range(6)]
        assert list(pbar_row) == [pbar_mex_recurrence(MexParams(A, a), n) for n in range(6)]


def test_census_rows_leave_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        mex_census_rows(30, [(2, 3), (1, 1)])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_census_rows_pair_handling():
    assert mex_census_rows(6, [(2, 3), (2, 3)]) == mex_census_rows(6, [(2, 3)])
    assert mex_census_rows(0, [(1, 1)]) == {(1, 1): ((1,), (0,))}
    with pytest.raises(ValueError):
        mex_census_rows(5, [(0, 1)])
    with pytest.raises(ValueError):
        mex_census_rows(-1, [(1, 1)])
