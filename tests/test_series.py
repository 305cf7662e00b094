import copy
import pickle
import random
import sys
import threading
from collections import Counter
from functools import partial
from math import isqrt
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mexstat.series as kernels
from mexstat import identities, mexcount
from mexstat.partitions import p_count
from mexstat.series import (
    ResidueCondition,
    TruncatedSeries,
    alternating_theta,
    alternating_theta_bilateral,
    cauchy_sum_specialized,
    cauchy_sums_specialized,
    count_numerator,
    crank_generating_series,
    euler_product,
    jtp_specialized,
    partition_generating_series,
    parts_parity_series,
    parts_parity_sums,
    pochhammer_finite,
    rank_generating_series,
    residue_product,
    second_crank_moment_series,
    second_rank_moment_series,
    symmetric_residues,
    theta_quotient,
    theta_quotient_at,
    theta_terms,
)
from mexstat.statistics import MexParams

ONES = TruncatedSeries([1, 1, 1, 1])


def series(*coeffs):
    return TruncatedSeries(coeffs)


class TestConstruction:
    def test_constant_one(self):
        s = series(1)
        assert s.precision == 0
        assert s.coeffs == (1,)

    def test_direct_coeffs(self):
        s = series(1, -1, -1)
        assert s.precision == 2
        assert s.coeffs == (1, -1, -1)

    def test_pure_q(self):
        assert series(0, 1).coeffs == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 0.5])

    def test_coeff_out_of_range(self):
        with pytest.raises(ValueError):
            series(1, 2).coeff(5)

    def test_truncate_never_extends(self):
        s = series(1, 2, 3)
        assert s.truncate(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            s.truncate(7)

    def test_truncate_is_a_series_like_any_other(self):
        s = series(1, 2, 3)
        low = s.truncate(1)
        assert type(low) is TruncatedSeries
        assert low == series(1, 2) and hash(low) == hash(series(1, 2))
        assert low.truncate(0).coeffs == (1,)
        assert (low * series(1, 1)).coeffs == (1, 3)
        assert s.truncate(2) == s


class TestArithmetic:
    def test_telescoping_product(self):
        lhs = series(1, -1, 0, 0) * series(1, 1, 1, 1)
        assert lhs.coeffs == (1, 0, 0, 0)

    def test_one_is_identity(self):
        s = series(3, -2, 5, 0, 7)
        one = TruncatedSeries([1] + [0] * 4)
        assert (one * s).coeffs == s.coeffs

    def test_two_factor_product(self):
        # (1-q)(1-q^2) expanded by hand
        prod = series(1, -1, 0, 0) * series(1, 0, -1, 0)
        assert prod.coeffs == (1, -1, -1, 1)

    def test_precision_is_min(self):
        a = series(1, 1, 1, 1, 1)
        b = series(1, 1)
        assert (a + b).precision == 1
        assert (a - b).precision == 1
        assert (a * b).precision == 1

    def test_int_scaling(self):
        assert (3 * series(1, -2)).coeffs == (3, -6)


class TestInvert:
    def test_geometric(self):
        inv = series(1, -1, 0, 0, 0).invert()
        assert inv.coeffs == (1, 1, 1, 1, 1)

    def test_partition_numbers(self):
        inv = euler_product(10).invert()
        assert inv.coeff(6) == 11

    def test_involution(self):
        s = series(1, -1, -1, 0, 0, 1)
        assert s.invert().invert() == s

    def test_negative_unit_constant(self):
        s = series(-1, 4, 2)
        assert (s * s.invert()).coeffs == (1, 0, 0)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            series(2, 1).invert()
        with pytest.raises(ValueError):
            series(0, 1).invert()


class TestEulerProduct:
    def test_precision_seven(self):
        assert euler_product(7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_precision_zero(self):
        assert euler_product(0).coeffs == (1,)

    def test_third_pentagonal_pair(self):
        e = euler_product(20)
        assert e.coeff(12) == -1
        assert e.coeff(15) == -1

    def test_matches_literal_product_to_200(self):
        literal = residue_product(ResidueCondition(1, frozenset({0})), 200)
        assert euler_product(200) == literal


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer_finite(0, 4).coeffs == (1, 0, 0, 0, 0)

    def test_two_factors(self):
        assert pochhammer_finite(2, 3).coeffs == (1, -1, -1, 1)

    def test_single_factor(self):
        assert pochhammer_finite(1, 2).coeffs == (1, -1, 0)


class TestAlternatingTheta:
    # a triple (P, Q, R) stands for the exponent (P*n^2 + Q*n + R)/2
    def test_squares(self):
        t = alternating_theta((2, 0, 0), 0, 3)
        assert t.coeffs == (1, -1, 0, 0)

    def test_pentagonal_companions_reproduce_euler(self):
        both = alternating_theta((3, -1, 0), 0, 60) + alternating_theta((3, 1, 0), 1, 60)
        assert both == euler_product(60)

    def test_mex_numerator_shape(self):
        # A=4, a=1: exponents 0, 1, 6, 15, ...
        t = alternating_theta((4, -2, 0), 0, 15)
        nz = {e: c for e, c in enumerate(t.coeffs) if c}
        assert nz == {0: 1, 1: -1, 6: 1, 15: -1}

    def test_exponent_that_dips_before_it_grows(self):
        # (n - 50)^2 + 7500: the first terms lie past the precision, the least at n = 50
        t = alternating_theta((2, -200, 20000), 0, 7520)
        nz = {e: c for e, c in enumerate(t.coeffs) if c}
        assert nz == {7500: 1, 7501: -2, 7504: 2, 7509: -2, 7516: 2}

    def test_bilateral_adds_the_mirrored_left_half(self):
        # exponent 2n^2 + n over all n: 0, 3, 10, ... for n >= 0 and 1, 6, ... for n < 0
        assert alternating_theta_bilateral((4, 2, 0), 6).coeffs == (1, -1, 0, -1, 0, 0, 1)
        assert alternating_theta_bilateral((2, 0, 0), 9).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            alternating_theta((0, 2, -10), 0, 10)

    @pytest.mark.parametrize(
        "quadratic",
        [(0, 0, 0), (-1, 0, 0), (0, -1, 0), (2, 0, 1), (1, 0, 0)],
        ids=["constant", "P<0", "falling-line", "odd-R", "odd-P+Q"],
    )
    def test_invalid_triple_rejected(self, quadratic):
        with pytest.raises(ValueError):
            alternating_theta(quadratic, 0, 3)


@given(
    st.integers(0, 4),
    st.integers(-40, 40),
    st.integers(-20, 200),
    st.integers(-10, 10),
    st.integers(0, 80),
)
@settings(max_examples=300, deadline=None)
def test_theta_matches_brute_force_sum(P, Q, half_R, n_start, precision):
    Q += (P + Q) % 2
    if P == 0 and Q <= 0:
        Q = 2
    exponent = lambda n: (P * n * n + Q * n + 2 * half_R) // 2
    # every root and the vertex lie within |n| <= 100 for these ranges
    window = range(n_start, 300)
    if any(exponent(n) < 0 for n in window):
        with pytest.raises(ValueError):
            alternating_theta((P, Q, 2 * half_R), n_start, precision)
        return
    expected = [0] * (precision + 1)
    for n in window:
        if exponent(n) <= precision:
            expected[exponent(n)] += -1 if n & 1 else 1
    assert alternating_theta((P, Q, 2 * half_R), n_start, precision).coeffs == tuple(expected)


@given(st.integers(0, 6), st.integers(-40, 40), st.integers(0, 200), st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_bilateral_theta_is_the_sum_of_its_halves(P, Q, half_R, precision):
    # the n >= 0 half on (P, Q, R) and the n < 0 half, n -> -n, on (P, -Q, R) from n = 1
    Q += (P + Q) % 2
    try:
        halves = alternating_theta((P, Q, 2 * half_R), 0, precision) + alternating_theta(
            (P, -Q, 2 * half_R), 1, precision
        )
    except ValueError:
        with pytest.raises(ValueError):
            alternating_theta_bilateral((P, Q, 2 * half_R), precision)
        return
    assert alternating_theta_bilateral((P, Q, 2 * half_R), precision) == halves


@given(
    st.integers(0, 4),
    st.integers(-40, 40),
    st.integers(-20, 200),
    st.integers(-10, 10),
    st.integers(0, 80),
    st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_theta_dot_is_coefficient_n_of_the_product(P, Q, half_R, n_start, n, seed):
    Q += (P + Q) % 2
    if P == 0 and Q <= 0:
        Q = 2
    quadratic = (P, Q, 2 * half_R)
    rng = random.Random(seed)
    row = partition_generating_series(n)
    try:
        theta = alternating_theta(quadratic, n_start, n)
    except ValueError as refused:
        with pytest.raises(ValueError) as also_refused:
            theta_terms(quadratic, n_start, n)
        assert str(also_refused.value) == str(refused)
    else:
        num, product = theta_terms(quadratic, n_start, n), theta * row
        assert theta_quotient(num, n) == product
        assert theta_quotient_at(num, n) == theta_quotient(num, n).coeff(n) == product.coeff(n)
    # a random sparse numerator, some terms past q^n, against p(n - e) term by term
    sparse = {
        rng.randint(0, n + 5): rng.randint(-(10**30), 10**30) for _ in range(rng.randint(0, 9))
    }
    literal = sum(c * p_count(n - e) for e, c in sparse.items() if e <= n)
    assert theta_quotient_at(sparse, n) == theta_quotient(sparse, n).coeff(n) == literal
    # the weighted crank numerator of the series crank sums, against the per-m series
    if n <= 40:
        weights = {m: rng.randint(-5, 5) for m in range(n + 1)}
        weighted = {}
        for m, w in weights.items():
            count_numerator("crank", m, n, w, weighted)
        literal = sum(w * crank_generating_series(m, n).coeff(n) for m, w in weights.items())
        assert theta_quotient_at(weighted, n) == theta_quotient(weighted, n).coeff(n) == literal


@given(
    st.integers(0, 6),
    st.integers(-12, 12),
    st.integers(0, 10),
    st.integers(-6, 6),
    st.integers(0, 120),
    st.integers(-5, 5),
    st.dictionaries(st.integers(0, 130), st.integers(-9, 9), max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_theta_terms_is_the_literal_sum(P, Q, half_R, n_start, precision, weight, into):
    # sum over n >= n_start of (-1)^n * weight * q^((P*n^2 + Q*n + R)/2), added to
    # terms already held; P = 0 takes a positive Q
    Q += (P + Q) % 2
    if P == 0 and Q <= 0:
        Q = -Q or 2
    quadratic, R = (P, Q, 2 * half_R), 2 * half_R
    # every exponent past n_start + precision + 30 is above the precision
    exponents = [(n, (P * n * n + Q * n + R) // 2) for n in range(n_start, n_start + precision + 30)]
    held = dict(into)
    if any(e < 0 for _, e in exponents):
        with pytest.raises(ValueError, match="negative"):
            theta_terms(quadratic, n_start, precision, weight, held)
        assert held == into
        return
    literal = dict(into)
    for n, e in exponents:
        if e <= precision:
            literal[e] = literal.get(e, 0) + (-1) ** (n % 2) * weight
    assert theta_terms(quadratic, n_start, precision, weight, held) is held
    assert held == literal
    if weight == 1 and not into:
        assert theta_terms(quadratic, n_start, precision) == literal


@given(
    st.integers(0, 250),
    st.data(),
    st.dictionaries(st.integers(0, 260), st.integers(-(10**20), 10**20), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_a_point_read_below_the_held_row_copies_nothing(top, data, numerator):
    n = data.draw(st.integers(0, top))
    partition_generating_series.cache_clear()
    partition_generating_series(top)
    row = theta_quotient(numerator, n).coeffs
    with mock.patch.object(TruncatedSeries, "truncate", side_effect=AssertionError("a copy")):
        assert theta_quotient_at(numerator, n) == row[n]
    assert partition_generating_series.cache_info().currsize == 1
    assert partition_generating_series(top).precision == top  # the held row stayed
    partition_generating_series.cache_clear()


class TestResidueProduct:
    def test_two_mod_four(self):
        cond = ResidueCondition(4, frozenset({2}))
        # (1-q^2)(1-q^6) expanded by hand
        assert residue_product(cond, 6).coeffs == (1, 0, -1, 0, 0, 0, -1)

    def test_exclude_empty_equals_euler(self):
        cond = ResidueCondition(5, frozenset(), mode="exclude")
        assert residue_product(cond, 120) == euler_product(120)

    def test_plus_sign_distinct_part_classes(self):
        cond = ResidueCondition(40, symmetric_residues(40, (8, 12)), sign="plus")
        s = residue_product(cond, 21)
        nz = {e: c for e, c in enumerate(s.coeffs) if c}
        assert nz == {0: 1, 8: 1, 12: 1, 20: 1}  # 8, 12, and 8+12

    def test_residue_validation(self):
        refused = [
            ((4, frozenset({5})), {}, r"^residues must lie in \[0, 4\)$"),
            ((4, frozenset({-1})), {}, r"^residues must lie in \[0, 4\)$"),
            ((4, frozenset()), {}, "^an include condition needs a non-empty residue set$"),
            ((0, frozenset({0})), {}, "^modulus must be a positive integer$"),
            ((4, {1}), {"sign": "x"}, "^sign must be 'minus' or 'plus', got 'x'$"),
            ((4, {1}), {"mode": "y"}, "^mode must be 'include' or 'exclude', got 'y'$"),
        ]
        for args, kwargs, message in refused:
            with pytest.raises(ValueError, match=message):
                ResidueCondition(*args, **kwargs)


@pytest.mark.parametrize(
    "record, twin, text, fields",
    [
        (MexParams(2, 3), MexParams(A=2, a=3), "MexParams(A=2, a=3)", ("A", "a")),
        (
            ResidueCondition(7, [0, 3, 4], mode="exclude"),
            ResidueCondition(7, frozenset({4, 3, 0}), "minus", "exclude"),
            "ResidueCondition(modulus=7, residues=frozenset({0, 3, 4}),"
            " sign='minus', mode='exclude')",
            ("modulus", "residues", "sign", "mode"),
        ),
    ],
)
def test_records_read_like_frozen_dataclasses(record, twin, text, fields):
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin) and record is not twin
    assert record != text and len({record, twin}) == 1
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize(
    "record", [MexParams(2, 3), ResidueCondition(7, [0, 3, 4], "plus", "exclude")], ids=repr
)
def test_records_survive_pickle_and_copy(record):
    # a record's fields refuse assignment, so each copy is rebuilt by its __init__
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    twins = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    twins += [copy.copy(record), copy.deepcopy(record)]
    for twin in twins:
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


class TestJtp:
    def test_even_1_1_sum_is_alternating_squares(self):
        s = jtp_specialized(1, 1, "even", "sum", 10)
        nz = {e: c for e, c in enumerate(s.coeffs) if c}
        assert nz == {0: 1, 1: -2, 4: 2, 9: -2}

    def test_odd_1_1_both_sides_agree(self):
        assert jtp_specialized(1, 1, "odd", "sum", 20) == jtp_specialized(
            1, 1, "odd", "product", 20
        )

    def test_even_2_1_product_factors(self):
        # modulus 4 with i=1: classes 4, 1, 3 -> first factors (1-q)(1-q^3)(1-q^4)
        s = jtp_specialized(2, 1, "even", "product", 4)
        assert s.coeffs == (1, -1, 0, -1, 0)

    def test_i_out_of_range(self):
        with pytest.raises(ValueError):
            jtp_specialized(2, 4, "even", "sum", 10)
        with pytest.raises(ValueError):
            jtp_specialized(2, 5, "odd", "sum", 10)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_sum_equals_product_small_sweep(self, parity):
        for k in range(1, 4):
            modulus = 2 * k if parity == "even" else 2 * k + 1
            for i in range(1, modulus):
                assert jtp_specialized(k, i, parity, "sum", 80) == jtp_specialized(
                    k, i, parity, "product", 80
                ), (k, i, parity)


class TestNamedSeries:
    def test_partition_generating_series(self):
        pg = partition_generating_series(9)
        assert pg.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)

    def test_rank_series_row_sums_to_partition_count(self):
        n = 9
        total = sum(
            rank_generating_series(m, n).coeff(n) for m in range(-n, n + 1)
        )
        assert total == 30

    def test_crank_anomaly_at_one(self):
        assert crank_generating_series(0, 1).coeff(1) == -1
        assert crank_generating_series(1, 1).coeff(1) == 1

    def test_second_moment_series_small_values(self):
        # ranks of the partitions of 4 are 3, 1, 0, -1, -3
        assert second_rank_moment_series(4).coeff(4) == 20
        # second crank moment is 2*n*p(n)
        m2 = second_crank_moment_series(8)
        assert [m2.coeff(n) for n in range(1, 9)] == [
            2 * n * p for n, p in zip(range(1, 9), (1, 2, 3, 5, 7, 11, 15, 22))
        ]

    def test_cauchy_sum_terminates_and_matches(self):
        lhs = cauchy_sum_specialized(1, False, 40)
        assert lhs == partition_generating_series(40)

    def test_parts_parity_series_constant_terms(self):
        assert parts_parity_series("even", 5).coeff(0) == 1
        assert parts_parity_series("odd", 5).coeff(0) == 0


PREFIX_CACHED = [
    (partition_generating_series, [()]),
    (rank_generating_series, [(0,), (3,)]),
    (crank_generating_series, [(1,), (4,)]),
    (mexcount._series_row, [(2, 3, False), (1, 2, True)]),
]


def _clear_prefix_caches():
    for fn, _ in PREFIX_CACHED:
        fn.cache_clear()


def _cold(fn, args):
    _clear_prefix_caches()
    return fn(*args)


class TestPrefixCaches:
    """One entry per key, at the largest precision built; lower ones by prefix."""

    @pytest.mark.parametrize("fn, keys", PREFIX_CACHED, ids=[fn.__name__ for fn, _ in PREFIX_CACHED])
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "interleaved"])
    def test_every_result_equals_a_cold_build(self, fn, keys, order):
        first, second = keys[0], keys[-1]
        calls = {
            "increasing": [(*first, p) for p in (0, 5, 12, 40)],
            "decreasing": [(*first, p) for p in (40, 12, 5, 0, 40)],
            "interleaved": [
                (*first, 7), (*second, 20), (*first, 25), (*second, 3),
                (*first, 7), (*second, 33), (*first, 25), (*second, 20),
            ],
        }[order]
        _clear_prefix_caches()
        got = [fn(*args) for args in calls]
        assert fn.cache_info().currsize == len({args[:-1] for args in calls})
        for args, value in zip(calls, got):
            cold = _cold(fn, args)
            assert value.precision == args[-1] == cold.precision
            assert value == cold, args
        _clear_prefix_caches()

    def test_scripted_hits_misses_and_size(self):
        fn = rank_generating_series
        _clear_prefix_caches()
        top = fn(1, 10)  # miss
        assert fn(1, 5) == top.truncate(5)  # hit
        assert fn(1, 10) is top  # hit: the entry itself
        fn(2, 8)  # miss
        grown = fn(1, 20)  # miss: replaces the entry of key 1
        fn(2, 8)  # hit
        assert fn(1, 10) == top and fn(1, 20) is grown  # two hits
        info = fn.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (5, 3, None, 2)
        fn.cache_clear()
        assert fn.cache_info() == (0, 0, None, 0)
        _clear_prefix_caches()

    def test_negative_precision_is_refused_warm_or_cold(self):
        _clear_prefix_caches()
        with pytest.raises(ValueError):
            partition_generating_series(-1)
        partition_generating_series(10)
        with pytest.raises(ValueError):
            partition_generating_series(-1)
        _clear_prefix_caches()


def _count_recurrence_coefficients(monkeypatch):
    """Record, per call of the sparse recurrence, (coefficients held, coefficients computed)."""
    calls = []
    original = kernels._recurrence_inverse

    def counted(terms, precision, known=()):
        row = original(terms, precision, known)
        calls.append((len(known), len(row) - len(known)))
        return row

    monkeypatch.setattr(kernels, "_recurrence_inverse", counted)
    return calls


class TestGrowingPartitionSeries:
    """The 1/(q)_inf row grows from the coefficients it holds."""

    def test_a_rising_sweep_computes_each_coefficient_once(self, monkeypatch):
        calls = _count_recurrence_coefficients(monkeypatch)
        partition_generating_series.cache_clear()
        rows = [partition_generating_series(p) for p in range(301)]
        assert sum(computed for _, computed in calls) == 301
        assert [held for held, _ in calls] == list(range(301))
        assert partition_generating_series.cache_info() == (0, 301, None, 1)
        cold = euler_product(300).invert().coeffs
        assert all(row.coeffs == cold[: p + 1] for p, row in enumerate(rows))
        partition_generating_series.cache_clear()

    def test_a_row_grown_one_coefficient_at_a_time_equals_the_cold_build(self, monkeypatch):
        # each growth reads the O(sqrt(P)) pentagonal terms of (q)_inf, no dense row
        sizes = []
        original = kernels._recurrence_inverse

        def sized(terms, precision, known=()):
            sizes.append((len(terms), precision))
            return original(terms, precision, known)

        monkeypatch.setattr(kernels, "_recurrence_inverse", sized)
        partition_generating_series.cache_clear()
        for p in range(1201):
            grown = partition_generating_series(p)
        partition_generating_series.cache_clear()
        cold = partition_generating_series(1200)
        monkeypatch.undo()
        assert all(count <= 2 * isqrt(p) + 1 for count, p in sizes) and len(sizes) == 1202
        assert grown == cold == pochhammer_finite(1200, 1200).invert()
        partition_generating_series.cache_clear()

    def test_a_clear_starts_the_next_build_from_an_empty_prefix(self, monkeypatch):
        calls = _count_recurrence_coefficients(monkeypatch)
        partition_generating_series.cache_clear()
        partition_generating_series(40)
        partition_generating_series(100)
        partition_generating_series.cache_clear()
        assert partition_generating_series(70) == euler_product(70).invert()
        assert calls[:3] == [(0, 41), (41, 60), (0, 71)]
        partition_generating_series.cache_clear()

    def test_concurrent_callers_read_cold_builds_and_leave_the_largest(self):
        top = 400
        cold = euler_product(top).invert().coeffs
        precisions = list(range(top + 1))
        plans = [random.Random(seed).sample(precisions, len(precisions)) for seed in range(4)]
        results = [[] for _ in plans]
        partition_generating_series.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [
                threading.Thread(
                    target=lambda plan, out: out.extend(map(partition_generating_series, plan)),
                    args=(plan, out),
                )
                for plan, out in zip(plans, results)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for plan, out in zip(plans, results):
            assert [row.coeffs for row in out] == [tuple(cold[: p + 1]) for p in plan]
        info = partition_generating_series.cache_info()
        assert info.currsize == 1 and info.hits + info.misses == 4 * (top + 1)
        assert partition_generating_series(top) is partition_generating_series(top)
        assert partition_generating_series.cache_info().hits == info.hits + 2
        partition_generating_series.cache_clear()


small_series = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12).map(
    TruncatedSeries
)
unit_series = st.tuples(
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=11),
).map(lambda t: TruncatedSeries([t[0], *t[1]]))


class TestAlgebraProperties:
    @given(a=small_series, b=small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(a=small_series, b=small_series, c=small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(a=small_series, b=small_series, c=small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes(self, a, b, c):
        p = min(a.precision, b.precision, c.precision)
        lhs = (a * (b + c)).truncate(p)
        rhs = (a * b + a * c).truncate(p)
        assert lhs == rhs

    @given(s=unit_series)
    @settings(max_examples=60, deadline=None)
    def test_invert_roundtrip(self, s):
        one = TruncatedSeries([1] + [0] * s.precision)
        assert s * s.invert() == one
        assert s.invert().invert() == s


# ---------------------------------------------------------------------------
# packed kernels against the literal definitions
# ---------------------------------------------------------------------------


def literal_product(a, b):
    """Schoolbook product over every pair, truncated to the shorter operand."""
    stop = min(len(a), len(b))
    out = [0] * stop
    for i in range(stop):
        for j in range(stop - i):
            out[i + j] += a[i] * b[j]
    return out


def literal_factors(exponents, sign, precision):
    """The product of (1 + sign*q^e) over ``exponents``, one coefficient at a time."""
    c = [1] + [0] * precision
    for e in exponents:
        for j in range(precision, e - 1, -1):
            c[j] += sign * c[j - e]
    return c


def literal_cauchy(signs, t_exponent, precision):
    """The sum of signs[n] q^(t n)/(q)_n with 1/(q)_n built one factor at a time."""
    inverse = [1] + [0] * precision
    total = [0] * (precision + 1)
    for n, sign in enumerate(signs):
        if n * t_exponent > precision:
            break
        if n:
            for j in range(n, precision + 1):
                inverse[j] += inverse[j - n]
        for j in range(n * t_exponent, precision + 1):
            total[j] += sign * inverse[j - n * t_exponent]
    return total


HUGE = 1 << 210


@st.composite
def coefficient_rows(draw, length, big=HUGE, unit=False):
    """``length`` coefficients in [-big, big]: none, a few or some nonzero ones, or all."""
    count = draw(st.sampled_from([0, 1, 4, 40, length]))
    if count >= length:
        positions = range(length)
    else:
        positions = draw(st.lists(st.integers(0, length - 1), max_size=count, unique=True))
    row = [0] * length
    for i in positions:
        row[i] = draw(st.integers(-big, big).filter(bool))
    if unit:
        row[0] = draw(st.sampled_from([1, -1]))
    return row


def spy(monkeypatch, route):
    """Record each call of the kernel ``route`` that the dispatch makes."""
    called = []
    original = getattr(kernels, route)
    monkeypatch.setattr(kernels, route, lambda *args: called.append(route) or original(*args))
    return called


@st.composite
def operand_pairs(draw):
    precision = draw(st.integers(0, 300))
    big = draw(st.sampled_from([1, 9, HUGE]))
    a = draw(coefficient_rows(precision + 1 + draw(st.integers(0, 3)), big))
    b = draw(coefficient_rows(precision + 1, big))
    return a, b


@given(operand_pairs())
@settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook(pair):
    a, b = pair
    product = TruncatedSeries(a) * TruncatedSeries(b)
    assert list(product.coeffs) == literal_product(a, b)


@pytest.mark.parametrize(
    "nonzero_a, nonzero_b, length, route",
    [(3, 3, 301, "_schoolbook"), (20, 301, 301, "_shift_add"), (400, 400, 400, "_kronecker")],
)
def test_each_mul_route_matches_schoolbook(monkeypatch, nonzero_a, nonzero_b, length, route):
    called = spy(monkeypatch, route)
    rng = random.Random(nonzero_a * 1000 + nonzero_b)
    rows = []
    for count in (nonzero_a, nonzero_b):
        row = [0] * length
        for i in rng.sample(range(length), count):
            row[i] = rng.randint(-HUGE, HUGE) or 1
        rows.append(row)
    product = TruncatedSeries(rows[0]) * TruncatedSeries(rows[1])
    assert called == [route]
    assert list(product.coeffs) == literal_product(*rows)


@pytest.mark.parametrize(
    "nonzero, stop, bits_a, bits_b, route",
    [
        # the width rule asks for 208 bits: the slot is full but for the sign bit
        (15, 40, 102, 101, "_shift_add"),
        (255, 255, 100, 99, "_kronecker"),
        # 209 bits: a rule one bit short would pick a slot a byte narrower
        (15, 40, 102, 102, "_shift_add"),
        (255, 255, 100, 100, "_kronecker"),
    ],
)
@pytest.mark.parametrize("negate", [False, True])
def test_mul_decodes_coefficients_at_the_width_bound(
    monkeypatch, nonzero, stop, bits_a, bits_b, route, negate
):
    # a has ``nonzero`` leading coefficients +-(2^bits_a - 1) and b all
    # 2^bits_b - 1, so coefficient nonzero - 1 is the largest the width
    # rule bits_a + bits_b + bitlen(nonzero) + 1 admits: one bit below it
    called = spy(monkeypatch, route)
    top_a, top_b = (1 << bits_a) - 1, (1 << bits_b) - 1
    a = [-top_a if negate else top_a] * nonzero + [0] * (stop - nonzero)
    b = [top_b] * stop
    product = list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs)
    assert called == [route]
    assert abs(product[nonzero - 1]).bit_length() == bits_a + bits_b + nonzero.bit_length()
    assert product == literal_product(a, b)


@st.composite
def unit_rows(draw):
    precision = draw(st.integers(0, 300))
    # the inverse of a dense row grows about one row's width per coefficient
    big = draw(st.sampled_from([1, 3, HUGE] if precision <= 60 else [1, 3]))
    return draw(coefficient_rows(precision + 1, big, unit=True))


@given(unit_rows())
@settings(max_examples=40, deadline=None)
def test_invert_routes_agree_and_invert(a):
    one = [1] + [0] * (len(a) - 1)
    newton, recurrence = kernels._newton_inverse(a), recurrence_inverse(a)
    assert newton == recurrence
    s = TruncatedSeries(a)
    assert list((s * s.invert()).coeffs) == one
    assert literal_product(a, newton) == one


def recurrence_inverse(a, known=()):
    """The sparse recurrence on a dense row, its zeros among the terms it is given."""
    return kernels._recurrence_inverse(dict(enumerate(a)), len(a) - 1, known)


def literal_recurrence_inverse(a):
    """1/a for a[0] = +-1, one term a[k] b[m-k] at a time."""
    b = [a[0]] + [0] * (len(a) - 1)
    for m in range(1, len(a)):
        b[m] = -a[0] * sum(a[k] * b[m - k] for k in range(1, m + 1) if a[k])
    return b


@given(
    st.sampled_from([1, -1]),
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5, 17]), max_size=120),
    st.integers(0, 121),
)
@settings(max_examples=80, deadline=None)
def test_recurrence_inverse_matches_the_literal_loop(unit, rest, cut):
    # coefficients beyond +-1 and values that recur, so each gatherer grows from one
    # offset; resumed after any known prefix, it computes the same rest
    a = [unit] + rest
    literal = literal_recurrence_inverse(a)
    assert recurrence_inverse(a) == literal
    known = literal[: max(1, cut % (len(a) + 1))]
    assert recurrence_inverse(a, tuple(known)) == literal


@pytest.mark.parametrize("route", ["_newton_inverse", "_recurrence_inverse"])
def test_each_invert_route_is_taken(monkeypatch, route):
    called = spy(monkeypatch, route)
    # dense: a residue product; sparse: the Euler product
    if route == "_newton_inverse":
        s = residue_product(ResidueCondition(7, frozenset({1, 6})), 300)
    else:
        s = euler_product(300)
    assert s * s.invert() == TruncatedSeries([1] + [0] * 300)
    assert called == [route]


@given(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.sets(st.integers(0, m - 1), min_size=1),
            st.sampled_from(["minus", "plus"]),
            st.sampled_from(["include", "exclude"]),
            st.integers(0, 300),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_residue_product_matches_factor_loop(case):
    modulus, residues, sign, mode, precision = case
    cond = ResidueCondition(modulus, frozenset(residues), sign=sign, mode=mode)
    exponents = [e for e in range(1, precision + 1) if cond.admits(e)]
    expected = literal_factors(exponents, 1 if sign == "plus" else -1, precision)
    assert list(residue_product(cond, precision).coeffs) == expected


@given(st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_pochhammer_matches_factor_loop(n, precision):
    expected = literal_factors(range(1, min(n, precision) + 1), -1, precision)
    assert list(pochhammer_finite(n, precision).coeffs) == expected


def test_widest_distinct_product_matches_factor_loop():
    # every part 1..2000 once, all signs plus: the largest coefficients a
    # product of distinct factors reaches at precision 2000
    product = residue_product(ResidueCondition(1, frozenset({0}), sign="plus"), 2000)
    assert list(product.coeffs) == literal_factors(range(1, 2001), 1, 2000)


@pytest.mark.parametrize("k", range(1, 7))
def test_even_jtp_product_with_repeated_exponents_matches_factor_loop(k):
    # i = k: the classes k and 2k - k coincide, so every factor appears twice
    precision = 400
    exponents = [e for s in (2 * k, k, k) for e in range(s, precision + 1, 2 * k)]
    product = jtp_specialized(k, k, "even", "product", precision)
    assert list(product.coeffs) == literal_factors(exponents, -1, precision)
    assert product == jtp_specialized(k, k, "even", "sum", precision)


@given(st.integers(1, 6), st.booleans(), st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_cauchy_sum_matches_literal_loop(t_exponent, negate_t, precision):
    signs = [-1 if negate_t and n & 1 else 1 for n in range(precision + 1)]
    expected = literal_cauchy(signs, t_exponent, precision)
    assert list(cauchy_sum_specialized(t_exponent, negate_t, precision).coeffs) == expected


@given(st.sampled_from(["even", "odd"]), st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_parts_parity_matches_literal_loop(parity, precision):
    want = 0 if parity == "even" else 1
    signs = [int(j % 2 == want) for j in range(precision + 1)]
    expected = literal_cauchy(signs, 1, precision)
    assert list(parts_parity_series(parity, precision).coeffs) == expected


@st.composite
def cauchy_cases(draw):
    """A list of (pattern, t_exponent) cases: periodic sign patterns of length 1-3,
    zeros included, with small exponents and exponents at or past the precision."""
    precision = draw(st.integers(0, 60))
    cases = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=3),
                st.integers(1, 7) | st.integers(max(1, precision), precision + 3),
            ),
            max_size=5,
        )
    )
    return cases, precision


@given(cauchy_cases())
@settings(max_examples=80, deadline=None)
def test_cauchy_terms_of_several_cases_match_literal_loops(case_list):
    # the sign at n is pattern[n % len(pattern)]; the literal loop reads it term by term
    cases, precision = case_list
    built = kernels._cauchy_terms(cases, precision)
    assert [list(s.coeffs) for s in built] == [
        literal_cauchy([pattern[n % len(pattern)] for n in range(precision + 1)], t, precision)
        for pattern, t in cases
    ]


def test_one_pass_sums_equal_the_single_sums():
    cases = [(1, False), (3, False), (1, True), (2, True), (5, False)]
    assert cauchy_sums_specialized(cases, 300) == [
        cauchy_sum_specialized(t, negate, 300) for t, negate in cases
    ]
    assert parts_parity_sums(["odd", "even", "odd"], 300) == [
        parts_parity_series(parity, 300) for parity in ("odd", "even", "odd")
    ]
    with pytest.raises(ValueError, match="positive power of q"):
        cauchy_sums_specialized([(1, False), (0, True)], 10)
    with pytest.raises(ValueError, match="parity must be"):
        parts_parity_sums(["even", "both"], 10)


EVERY_PART = ResidueCondition(1, frozenset({0}))


@pytest.mark.parametrize(
    "build",
    [
        euler_product,
        partial(pochhammer_finite, 3),
        partial(alternating_theta, (1, 1, 0), 0),
        partial(alternating_theta_bilateral, (3, 1, 0)),
        partial(residue_product, EVERY_PART),
        partial(jtp_specialized, 2, 1, "even", "sum"),
        partial(jtp_specialized, 2, 1, "even", "product"),
        partial(jtp_specialized, 2, 2, "odd", "product"),
        partition_generating_series,
        partial(theta_quotient, {0: 1}),
        partial(rank_generating_series, 2),
        partial(crank_generating_series, 2),
        second_rank_moment_series,
        second_crank_moment_series,
        partial(cauchy_sum_specialized, 2, True),
        partial(cauchy_sums_specialized, [(1, False), (3, True)]),
        partial(parts_parity_series, "even"),
        partial(parts_parity_series, "odd"),
        partial(parts_parity_sums, ["even", "odd"]),
    ],
    ids=lambda build: "-".join(
        [getattr(build, "func", build).__name__, *map(str, getattr(build, "args", ()))]
    ),
)
def test_every_generator_refuses_a_negative_precision(build):
    with pytest.raises(ValueError, match="^precision must be non-negative$"):
        build(-1)


# ---------------------------------------------------------------------------
# slot widths: the weight-r bound against exact coefficients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("weight", [1, 2, 3])
def test_coefficient_bits_hold_every_power_of_the_distinct_product(weight):
    # [q^N] prod_k (1+q^k)^r bounds every product of (1 +- q^e)^(r_e), r_e <= r
    top = 300
    exponents = [e for e in range(1, top + 1) for _ in range(weight)]
    coeffs = literal_factors(exponents, 1, top)
    largest = 0
    for precision, c in enumerate(coeffs):
        largest = max(largest, c)
        assert kernels._coefficient_bits(weight, precision) >= largest.bit_length() + 1


def test_coefficient_bits_of_weight_two_hold_the_partition_count():
    for precision in range(5001):
        assert kernels._coefficient_bits(2, precision) >= p_count(precision).bit_length() + 1


@given(
    st.lists(st.tuples(st.integers(1, 80), st.integers(1, 3)), max_size=40),
    st.sampled_from([-1, 1]),
    st.integers(0, 120),
)
@settings(max_examples=80, deadline=None)
def test_binomial_product_matches_factor_loop(exponent_repeats, sign, precision):
    exponents = [e for e, r in exponent_repeats for _ in range(r)]
    expected = literal_factors([e for e in exponents if e <= precision], sign, precision)
    counts = Counter(e for e in exponents if e <= precision)
    assert list(kernels._binomial_product(counts, sign, precision).coeffs) == expected


@st.composite
def exponent_counts(draw):
    """(precision, {exponent: repeats}): exponents in 1..precision, each at most twice."""
    precision = draw(st.integers(0, 300))
    if not precision:
        return 0, {}
    exponents = st.integers(1, precision)
    return precision, draw(st.dictionaries(exponents, st.integers(1, 2), max_size=80))


@given(exponent_counts())
@example((0, {}))
@example((40, {}))
@example((300, dict.fromkeys(range(1, 301), 2)))
@settings(max_examples=60, deadline=None)
def test_euler_transform_matches_factor_loop(case):
    precision, counts = case
    expected = literal_factors([e for e, r in counts.items() for _ in range(r)], -1, precision)
    # the slot bound of the product, and the tightest one its coefficients admit: the
    # kernel widens either for its partial sums
    tight = kernels._bit_length(expected) + 1
    for bits in (8 * kernels._slot_size(counts, precision, None), tight):
        # a step count that no nonzero count can outrun, so the route never hands back
        coeffs = kernels._euler_transform(counts, precision, bits, 4 * (precision + 1))
        assert coeffs == expected, bits


MOD24 = ResidueCondition(24, symmetric_residues(24, (1, 4, 6, 8, 10, 11)))


def _recorded(calls, name, original, *args):
    calls.append((name, args))
    return original(*args)


@pytest.mark.parametrize(
    "build, routes",
    [
        # thm-2.8 at k = 6: 115 shift-add steps, below the crossover
        (lambda: jtp_specialized(6, 1, "odd", "product", 1000), ["_factor_shift_add"]),
        # a Jacobi triple product with 750 steps: a theta, 32 nonzero coefficients
        (lambda: jtp_specialized(1, 1, "even", "product", 1000), ["_euler_transform"]),
        # the include set of thm-3.12-series: dense, so the Euler route hands back
        (lambda: residue_product(MOD24, 1000), ["_euler_transform", "_factor_shift_add"]),
        # thm-2.9's prod (1 + q^n): sign +1 never takes the Euler route
        (
            lambda: residue_product(ResidueCondition(1, frozenset({0}), sign="plus"), 1000),
            ["_factor_shift_add"],
        ),
    ],
)
def test_each_product_route_is_taken(monkeypatch, build, routes):
    calls = []
    for route in ("_binomial_product", "_euler_transform", "_factor_shift_add"):
        original = getattr(kernels, route)
        monkeypatch.setattr(kernels, route, partial(_recorded, calls, route, original))
    product = build()
    assert [name for name, _ in calls] == ["_binomial_product", *routes]
    counts, sign, precision, _ = calls[0][1]
    exponents = [e for e, r in counts.items() for _ in range(r)]
    assert list(product.coeffs) == literal_factors(exponents, sign, precision)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("k", range(1, 7))
def test_jtp_products_of_i_and_m_minus_i_are_one_factor_set(parity, k):
    precision = 150
    modulus = 2 * k if parity == "even" else 2 * k + 1
    for i in range(1, modulus):
        exponents = [e for s in (modulus, i, modulus - i) for e in range(s, precision + 1, modulus)]
        product = jtp_specialized(k, i, parity, "product", precision)
        assert list(product.coeffs) == literal_factors(exponents, -1, precision), (k, i)
        assert product == jtp_specialized(k, modulus - i, parity, "product", precision), (k, i)


@pytest.mark.parametrize(
    "build",
    [
        lambda s: s + s,
        lambda s: s - ONES,
        lambda s: -s,
        lambda s: 3 * s,
        lambda s: s * s,
        lambda s: s.invert(),
        lambda s: residue_product(ResidueCondition(1, frozenset({0})), 3),
        lambda s: jtp_specialized(1, 1, "even", "product", 3),
        lambda s: cauchy_sum_specialized(1, True, 3),
    ],
)
def test_kernel_outputs_are_tuples_of_ints(build):
    out = build(series(1, 2, 0, -1))
    assert type(out.coeffs) is tuple
    assert all(type(c) is int for c in out.coeffs)
    assert out == TruncatedSeries(list(out.coeffs))


# ---------------------------------------------------------------------------
# slot widths of the catalog's products: the per-class bound against exact coefficients
# ---------------------------------------------------------------------------

WIDTH_PRECISIONS = (0, 1, 2, 3, 50, 200, 1000)
JTP_CASES = [
    (parity, k, i)
    for parity in ("even", "odd")
    for k in range(1, 7)
    for i in range(1, 2 * k + (parity == "odd"))
]


def _catalog_residue_conditions(monkeypatch):
    """Every ResidueCondition the catalog passes to residue_product, from building each side once."""
    seen = []
    original = identities.residue_product

    def record(cond, precision):
        if cond not in seen:
            seen.append(cond)
        return original(cond, precision)

    monkeypatch.setattr(identities, "residue_product", record)
    for check in identities.REGISTRY.values():
        n = max(3, check.valid_from)
        check.make_lhs(n)
        check.make_rhs(n)
    monkeypatch.undo()
    return seen


def _slot_sizes(monkeypatch):
    """Record each (exponent counts, precision, slot bytes) that _binomial_product uses."""
    picked = []
    original = kernels._slot_size

    def record(counts, precision, classes):
        size = original(counts, precision, classes)
        picked.append((dict(counts), precision, size))
        return size

    monkeypatch.setattr(kernels, "_slot_size", record)
    return picked


def _largest_plus_coefficient(counts, precision):
    """max over N <= precision of [q^N] prod (1+q^e)^(counts[e]), by a plain list DP."""
    c = [1] + [0] * precision
    for e, r in counts.items():
        for _ in range(r):
            c = list(map(add, c, [0] * e + c[: precision + 1 - e]))
    return max(c)


def test_catalog_products_stay_within_the_slots_they_get(monkeypatch):
    conditions = _catalog_residue_conditions(monkeypatch)
    # the thm-2.1, thm-2.9, thm-2.10, thm-2.11 and series-form products
    assert len(conditions) >= 10
    picked = _slot_sizes(monkeypatch)
    for precision in WIDTH_PRECISIONS:
        for parity, k, i in JTP_CASES:
            jtp_specialized(k, i, parity, "product", precision)
        for cond in conditions:
            residue_product(cond, precision)
    assert len(picked) == len(WIDTH_PRECISIONS) * (len(JTP_CASES) + len(conditions))
    largest = {}
    for counts, precision, size in picked:
        key = (tuple(sorted(counts.items())), precision)
        if key not in largest:
            largest[key] = _largest_plus_coefficient(counts, precision)
        assert largest[key] < 1 << 8 * size - 1, (counts, precision, size)


@pytest.mark.parametrize("parity, k, i", JTP_CASES)
def test_jtp_product_equals_sum_at_1000(parity, k, i):
    assert jtp_specialized(k, i, parity, "product", 1000) == jtp_specialized(
        k, i, parity, "sum", 1000
    )


def test_per_class_slots_are_narrower_where_the_classes_are_sparse():
    # k = 6, M = 13, three classes: 46 bits against 86 at weight 1
    counts = Counter(e for s in (13, 1, 12) for e in range(s, 1001, 13))
    assert kernels._slot_size(counts, 1000, (13, (13, 1, 12))) == 6
    assert kernels._slot_size(counts, 1000, None) == 11


# ---------------------------------------------------------------------------
# PackedRows: the one packed format of the series kernels and the counting DPs
# ---------------------------------------------------------------------------


@st.composite
def signed_rows(draw):
    """(rows, coefficients): a slot size, n_max and coefficients within its signed range."""
    size, n_max = draw(st.integers(1, 4)), draw(st.integers(0, 20))
    top = (1 << 8 * size - 1) - 1
    edge = st.sampled_from([top, -top, 0, 1, -1])
    coeffs = draw(st.lists(st.integers(-top, top) | edge, min_size=n_max + 1, max_size=n_max + 1))
    return kernels.PackedRows.of_size(n_max, size), coeffs


@given(signed_rows())
@settings(max_examples=100, deadline=None)
def test_packed_signed_reads_back_what_pack_packs(case):
    rows, coeffs = case
    packed = rows.pack(coeffs)
    assert packed == sum(c << rows.width * n for n, c in enumerate(coeffs))
    assert rows.signed(packed) == coeffs
    # a row of counts fills whole slots, sign bit included
    counts = [2 * abs(c) + 1 for c in coeffs]
    row = sum(c << rows.width * n for n, c in enumerate(counts))
    assert rows.unpack(row) == tuple(counts)


def literal_pack(rows, coeffs):
    half = 1 << rows.width - 1
    data = b"".join([(c + half).to_bytes(rows.size, "little") for c in coeffs])
    return int.from_bytes(data, "little") - sum(half << rows.width * n for n in range(len(coeffs)))


def literal_slots(rows, x):
    size = rows.size
    data = (x & rows.mask).to_bytes(size * (rows.n_max + 1), "little")
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def literal_signed(rows, x):
    half = 1 << rows.width - 1
    bias = sum(half << rows.width * n for n in range(rows.n_max + 1))
    return [slot - half for slot in literal_slots(rows, x + bias)]


@pytest.mark.parametrize("size", range(1, 41))
@given(st.integers(0, 300), st.randoms(use_true_random=False), st.integers(-(1 << 600), 1 << 600))
@settings(max_examples=5, deadline=None)
def test_packed_conversions_match_the_per_slot_literal_loops(size, n_max, rng, garbage):
    # every slot size, coefficients at the ends of the signed range among random ones,
    # and a signed int in the slots above n_max for ``signed`` to ignore
    rows = kernels.PackedRows.of_size(n_max, size)
    top = (1 << rows.width - 1) - 1
    edges = [top, -top, 0, 1, -1]
    coeffs = [
        rng.choice(edges) if rng.random() < 0.3 else rng.randint(-top, top)
        for _ in range(n_max + 1)
    ]
    coeffs[rng.randrange(n_max + 1)] = rng.choice([top, -top])
    packed = rows.pack(coeffs)
    assert packed == literal_pack(rows, coeffs)
    above = packed + (garbage << rows.width * (n_max + 1))
    assert rows.signed(above) == literal_signed(rows, above) == coeffs
    counts = rows.truncate(packed + rows.pack([top] * (n_max + 1)))
    assert rows.unpack(counts) == tuple(literal_slots(rows, counts))


@pytest.mark.parametrize("size", [1, 2, 9])
def test_packed_signed_reads_the_extremes_at_both_signs(size):
    top = (1 << 8 * size - 1) - 1
    coeffs = [top, -top, -top, top, 0, -top, top]
    rows = kernels.PackedRows.of_size(len(coeffs) - 1, size)
    assert rows.signed(rows.pack(coeffs)) == coeffs
    # a higher slot may hold anything: the low slots read the same
    assert rows.signed(rows.pack(coeffs) + (12345 << rows.width * len(coeffs))) == coeffs


@given(
    st.integers(1, 3),
    st.integers(0, 25),
    st.dictionaries(st.integers(0, 25), st.integers(0, 255), max_size=10),
)
@settings(max_examples=80, deadline=None)
def test_packed_place_is_the_literal_sum_and_slot_reads_each_entry(size, n_max, terms):
    rows = kernels.PackedRows.of_size(n_max, size)
    terms = {e: c for e, c in terms.items() if e <= n_max}
    placed = rows.place(terms)
    assert placed == sum(c << rows.width * e for e, c in terms.items())
    entries = rows.unpack(placed)
    assert list(entries) == [terms.get(n, 0) for n in range(n_max + 1)]
    with pytest.raises(ValueError):
        rows.place({n_max: 256})  # a multiplicity fills one byte, never a slot silently


@given(
    st.integers(1, 16), st.integers(0, 80), st.integers(1, 150), st.randoms(use_true_random=True)
)
@settings(max_examples=60, deadline=None)
def test_packed_column_reads_slot_n_of_every_row_as_the_literal_shift(size, n_max, count, rng):
    # unpack puts slot n of each row at index n; slots on both sides of the 8-byte word,
    # a full row and an empty one among random rows.  The rows take up to 190 kB of
    # random bits, more than Hypothesis draws for one example, so rng is only seeded by it
    rows = kernels.PackedRows.of_size(n_max, size)
    mask = (1 << 8 * size) - 1
    xs = [rng.getrandbits(8 * size * (n_max + 1)) for _ in range(count)]
    xs[rng.randrange(count)] = rows.mask
    xs[rng.randrange(count)] = 0
    for x in xs:
        assert rows.unpack(x) == tuple(x >> 8 * size * n & mask for n in range(n_max + 1))


@given(signed_rows(), st.integers(0, 20), st.integers(0, 20))
@settings(max_examples=80, deadline=None)
def test_narrower_rows_truncate_as_the_low_mask(case, keep, e):
    # the low masks the series kernels built by hand: 1 << w * slots, less one
    rows, coeffs = case
    keep, e, w = min(keep, rows.n_max), min(e, rows.n_max), 8 * rows.size
    narrow = kernels.PackedRows.of_size(keep, rows.size)
    packed = rows.pack(coeffs)
    assert narrow.truncate(packed) == packed & (1 << w * (keep + 1)) - 1
    assert narrow.signed(packed) == coeffs[: keep + 1]
    stop = rows.n_max + 1
    assert rows.shift(packed, e) == (packed & (1 << w * (stop - e)) - 1) << w * e


@pytest.mark.parametrize("e", [-1, -7, 0])
def test_packed_stride_refuses_a_non_positive_exponent(e):
    # 1/(1 - q^0) has no series, and a zero doubling step would never end
    with pytest.raises(ValueError, match="positive"):
        kernels.PackedRows(10).stride(1, e)
