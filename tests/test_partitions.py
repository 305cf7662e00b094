from collections import Counter
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mexstat import arith, partitions, series
from mexstat.limits import ENUMERATION_CAP, P_TABLE_CAP
from mexstat.partitions import (
    CapacityError,
    PackedRows,
    as_partition,
    ascending_partitions,
    count_parts_restricted,
    count_parts_restricted_row,
    enumerate_partitions,
    p_count,
    p_even_parts,
    p_odd_parts,
    parts_parity_counts,
)
from mexstat.arith import ResidueCondition, symmetric_residues
from mexstat.series import euler_product, parts_parity_series

P_FIRST = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


class TestEnumeration:
    def test_partitions_of_six(self):
        parts = list(enumerate_partitions(6))
        assert len(parts) == 11
        assert parts[0] == (6,)
        assert parts[-1] == (1,) * 6

    def test_partitions_of_four_exact(self):
        assert list(enumerate_partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_zero_has_one_empty_partition(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_reverse_lexicographic_order(self):
        for n in range(1, 13):
            got = list(enumerate_partitions(n))
            assert got == sorted(got, reverse=True)
            assert len(set(got)) == len(got)

    def test_canonical_form(self):
        for parts in enumerate_partitions(9):
            assert sum(parts) == 9
            assert all(p >= 1 for p in parts)
            assert all(a >= b for a, b in zip(parts, parts[1:]))

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            list(enumerate_partitions(71))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_ascending_iterator_matches_counts(self):
        for n in range(0, 26):
            assert sum(1 for _ in ascending_partitions(n)) == p_count(n)

    def test_ascending_iterator_lists_each_partition_ascending(self):
        for n in range(0, 21):
            listed = list(ascending_partitions(n))
            assert all(parts == sorted(parts) for parts in listed)
            assert Counter(map(tuple, listed)) == Counter(
                tuple(reversed(parts)) for parts in enumerate_partitions(n)
            )

    def test_ascending_iterator_refuses_negative_n_on_first_item(self):
        items = ascending_partitions(-1)
        with pytest.raises(ValueError):
            next(items)

    def test_ascending_iterator_refuses_n_above_the_cap_on_first_item(self):
        items = ascending_partitions(ENUMERATION_CAP + 1)
        with pytest.raises(CapacityError):
            next(items)


class TestPartitionCount:
    def test_small_values(self):
        assert [p_count(n) for n in range(len(P_FIRST))] == P_FIRST

    def test_conventions(self):
        assert p_count(0) == 1
        assert p_count(-3) == 0

    def test_known_larger_values(self):
        assert p_count(50) == 204226
        assert p_count(100) == 190569292

    def test_matches_enumeration(self):
        for n in range(0, 41):
            assert p_count(n) == sum(1 for _ in enumerate_partitions(n))

    def test_matches_series_inversion_to_500(self):
        inv = euler_product(500).invert()
        for n in range(0, 501):
            assert inv.coeff(n) == p_count(n)


def _literal_p_table(n_max):
    # the per-k pentagonal recurrence, term by term
    table = [1]
    for m in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g = m - k * (3 * k - 1) // 2
            if g < 0:
                break
            term = table[g]
            g2 = m - k * (3 * k + 1) // 2
            if g2 >= 0:
                term += table[g2]
            total += term if k & 1 else -term
            k += 1
        table.append(total)
    return table


@lru_cache(maxsize=1)
def _literal_p_table_3000():
    return _literal_p_table(3000)


@pytest.fixture
def cold_p_table():
    """Empty the shared p(n) table down to p(0) and put it back afterwards."""
    saved = list(partitions._p_table)
    del partitions._p_table[1:]
    try:
        yield partitions._p_table
    finally:
        partitions._p_table[:] = saved


class TestPentagonalTable:
    def test_grown_in_uneven_steps_matches_the_literal_loop(self, cold_p_table):
        for n in (0, 1, 4, 6, 7, 12, 499, 500, 1234, 3000):
            p_count(n)
            assert len(cold_p_table) == max(n + 1, 1)
        assert cold_p_table == _literal_p_table(3000)

    @given(st.lists(st.integers(0, 3000), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_grown_to_random_targets_in_random_order_matches_the_literal_loop(self, targets):
        # each growth starts mid-run between two pentagonal offsets, from a cold table
        literal = _literal_p_table_3000()
        saved = list(partitions._p_table)
        del partitions._p_table[1:]
        try:
            for n in targets:
                assert p_count(n) == literal[n]
            assert partitions._p_table == literal[: max(targets) + 1]
        finally:
            partitions._p_table[:] = saved

    def test_negative_argument(self, cold_p_table):
        assert p_count(-5) == 0
        assert len(cold_p_table) == 1

    def test_past_the_cap_raises_and_leaves_the_table(self, cold_p_table):
        p_count(100)
        with pytest.raises(CapacityError):
            p_count(P_TABLE_CAP + 1)
        assert len(cold_p_table) == 101


class TestRestrictedCounts:
    def test_mod32_classes_at_two(self):
        cond = ResidueCondition(32, symmetric_residues(32, (2, 8, 12, 14)))
        assert count_parts_restricted(2, cond) == 1  # just [2]

    def test_two_mod_four_at_two(self):
        assert count_parts_restricted(2, ResidueCondition(4, frozenset({2}))) == 1

    def test_empty_partition_always_counts(self):
        cond = ResidueCondition(7, frozenset({3}))
        assert count_parts_restricted(0, cond) == 1

    def test_exclude_nothing_counts_all_partitions(self):
        cond = ResidueCondition(3, frozenset(), mode="exclude")
        for n in range(0, 20):
            assert count_parts_restricted(n, cond) == p_count(n)

    def test_odd_parts_vs_distinct_parts(self):
        # Euler: partitions into odd parts = partitions into distinct parts
        odd = ResidueCondition(2, frozenset({1}))
        everything_distinct = ResidueCondition(1, frozenset({0}))
        none = ResidueCondition(1, frozenset({0}), mode="exclude")
        for n in range(0, 25):
            distinct = count_parts_restricted(n, none, everything_distinct)
            assert count_parts_restricted(n, odd) == distinct

    def test_distinct_marks_stack_with_allowed(self):
        # part 1 both unrestricted and marked: (1+q)/(1-q) = 1 + 2q + 2q^2 + ...
        cond = ResidueCondition(1, frozenset({0}))
        assert count_parts_restricted(0, cond, cond) == 1
        assert count_parts_restricted(1, cond, cond) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_parts_restricted(-1, ResidueCondition(2, frozenset({1})))


class TestPartsParity:
    def test_small_values(self):
        assert p_even_parts(6) == 6
        assert p_even_parts(0) == 1
        assert p_odd_parts(0) == 0
        assert p_odd_parts(3) == 2

    def test_parity_split_sums_to_p(self):
        for n in range(0, 61):
            assert p_even_parts(n) + p_odd_parts(n) == p_count(n)

    def test_matches_enumeration(self):
        for n in range(1, 21):
            even = sum(1 for parts in enumerate_partitions(n) if len(parts) % 2 == 0)
            assert p_even_parts(n) == even

    def test_matches_generating_series(self):
        even_series = parts_parity_series("even", 60)
        odd_series = parts_parity_series("odd", 60)
        even, odd = parts_parity_counts(60)
        for n in range(0, 61):
            assert even_series.coeff(n) == even[n]
            assert odd_series.coeff(n) == odd[n]


class TestCanonicalization:
    def test_sorts_descending(self):
        assert as_partition([1, 3, 2]) == (3, 2, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            as_partition([2, 0])
        with pytest.raises(ValueError):
            as_partition([-1])

    def test_empty_allowed(self):
        assert as_partition([]) == ()


@given(n=st.integers(min_value=0, max_value=30))
@settings(max_examples=30, deadline=None)
def test_enumeration_count_matches_p(n):
    assert sum(1 for _ in enumerate_partitions(n)) == p_count(n)


@lru_cache(maxsize=None)
def _partitions_of(n):
    return tuple(enumerate_partitions(n))


def _literal_restricted_count(n, allowed, distinct):
    # a part size used k times counts once for each way to write k as
    # (free copies, allowed only) + (at most one marked copy, distinct only)
    marks = (0, 1) if distinct is not None else (0,)
    total = 0
    for parts in _partitions_of(n):
        ways = 1
        for part, k in Counter(parts).items():
            ways *= sum(
                1
                for e in marks
                if k >= e
                and (e == 0 or distinct.admits(part))
                and (k == e or allowed.admits(part))
            )
        total += ways
    return total


residue_conditions = st.builds(
    lambda modulus, residues, mode: ResidueCondition(
        modulus, frozenset(r % modulus for r in residues), mode=mode
    ),
    st.integers(min_value=1, max_value=8),
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
    st.sampled_from(["include", "exclude"]),
)


@given(
    allowed=residue_conditions,
    distinct=st.none() | residue_conditions,
    n_max=st.integers(min_value=0, max_value=25),
)
@settings(max_examples=40, deadline=None)
def test_restricted_row_matches_literal_count(allowed, distinct, n_max):
    row = count_parts_restricted_row(n_max, allowed, distinct)
    assert len(row) == n_max + 1
    for n in range(n_max + 1):
        assert row[n] == _literal_restricted_count(n, allowed, distinct)
        assert count_parts_restricted(n, allowed, distinct) == row[n]


def _literal_stride(row, e):
    # row / (1 - q^e), one coefficient at a time
    out = list(row)
    for n in range(e, len(out)):
        out[n] += out[n - e]
    return out


@given(
    n_max=st.integers(min_value=0, max_value=30),
    e=st.integers(min_value=1, max_value=35),
    seed_row=st.lists(st.integers(min_value=0, max_value=3), min_size=31, max_size=31),
    slots=st.integers(min_value=1, max_value=31),
)
@settings(max_examples=60, deadline=None)
def test_packed_stride_matches_literal_loop(n_max, e, seed_row, slots):
    # weight 7 sizes slots for counts below exp(pi * sqrt(7 * n_max / 3)), and a slot
    # is a whole byte at least: a stride of entries <= 3 stays below 3 * 31 < 2**8
    rows = PackedRows(n_max, 7)
    row = seed_row[: n_max + 1]
    packed = sum(c << rows.width * n for n, c in enumerate(row))
    assert rows.unpack(packed) == tuple(row)
    assert list(rows.unpack(rows.stride(packed, e))) == _literal_stride(row, e)
    # a narrower stride keeps the low ``slots`` entries only, of its input too
    slots = min(slots, n_max + 1)
    narrow = _literal_stride(row[:slots], e) + [0] * (n_max + 1 - slots)
    assert list(rows.unpack(rows.stride(packed, e, slots))) == narrow
    shifted = [0] * min(e, n_max + 1) + row[: max(n_max + 1 - e, 0)]
    assert list(rows.unpack(rows.shift(packed, e))) == shifted


def test_packed_tails_match_literal_products():
    n_max = 30
    rows = PackedRows(n_max)
    tails = rows.tails()
    assert len(tails) == n_max + 1
    for s in range(n_max + 1):
        literal = [1] + [0] * n_max
        for j in range(s + 1, n_max + 1):
            literal = _literal_stride(literal, j)
        assert list(rows.unpack(tails[s])) == literal
    assert rows.unpack(tails[0]) == tuple(p_count(n) for n in range(n_max + 1))
    assert p_count(n_max) < 1 << rows.width  # the width holds p(n_max)


def test_packed_rows_keep_their_slot_size_on_the_series_bound():
    # the size read off arith.coefficient_bits is the literal 21/8 bound it replaced
    for weight in range(1, 5):
        for n_max in range(5001):
            size = (21 * (isqrt(weight * n_max) + 1) // 8 + 8) // 8
            assert PackedRows(n_max, weight).size == size, (weight, n_max)


def _list_restricted_row(n_max, allowed, distinct):
    """The restricted-part DP one coefficient at a time."""
    ways = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        if allowed.admits(part):
            for j in range(part, n_max + 1):
                ways[j] += ways[j - part]
    for part in range(1, n_max + 1):
        if distinct is not None and distinct.admits(part):
            for j in range(n_max, part - 1, -1):
                ways[j] += ways[j - part]
    return tuple(ways)


@given(
    allowed=residue_conditions,
    distinct=st.none() | residue_conditions,
    n_max=st.integers(min_value=0, max_value=80),
)
@example(allowed=ResidueCondition(1, frozenset({0})), distinct=None, n_max=0)
@example(
    allowed=ResidueCondition(1, frozenset({0})),
    distinct=ResidueCondition(1, frozenset({0})),
    n_max=1,
)
@example(
    allowed=ResidueCondition(2, frozenset({1})),
    distinct=ResidueCondition(3, frozenset({0}), mode="exclude"),
    n_max=1,
)
@settings(max_examples=80, deadline=None)
def test_restricted_row_with_free_high_parts_matches_plain_dp(allowed, distinct, n_max):
    # the parts above n_max/2 start the packed row; the plain DP strides every part
    row = count_parts_restricted_row(n_max, allowed, distinct)
    assert row == _list_restricted_row(n_max, allowed, distinct)


def test_restricted_row_width_holds_p_at_scale():
    every_part = ResidueCondition(1, frozenset({0}))
    row = count_parts_restricted_row(2000, every_part)
    assert row == tuple(p_count(n) for n in range(2001))


def test_restricted_row_width_holds_overpartitions_at_scale():
    every_part = ResidueCondition(1, frozenset({0}))
    row = count_parts_restricted_row(1000, every_part, every_part)
    assert row == _list_restricted_row(1000, every_part, every_part)


def _parity_counts_quadratic(n_max):
    """The parity-tracking part DP one coefficient at a time."""
    even = [1] + [0] * n_max
    odd = [0] * (n_max + 1)
    for part in range(1, n_max + 1):
        for j in range(part, n_max + 1):
            even[j], odd[j] = even[j] + odd[j - part], odd[j] + even[j - part]
    return tuple(even), tuple(odd)


def test_parts_parity_counts_match_literal_part_counts():
    even, odd = parts_parity_counts(25)
    for n in range(26):
        lengths = [len(parts) % 2 for parts in ascending_partitions(n)]
        assert (even[n], odd[n]) == (lengths.count(0), lengths.count(1)), n


def test_parts_parity_counts_match_quadratic_dp_at_every_width():
    even, odd = _parity_counts_quadratic(300)
    for n_max in range(301):
        assert parts_parity_counts(n_max) == (even[: n_max + 1], odd[: n_max + 1]), n_max


@pytest.mark.parametrize("count", [parts_parity_counts, p_even_parts, p_odd_parts])
def test_parts_parity_counts_reject_negative_n(count):
    with pytest.raises(ValueError, match="n must be non-negative"):
        count(-1)


def test_restricted_and_parity_rows_read_neither_series_nor_pentagonal_table(monkeypatch):
    # the rhs of thm-3.10..3.13, psi-minus-q, thm-1.3 and pe-po-genfun: the rows share
    # arith.PackedRows arithmetic with the series route, and nothing else
    def forbidden(*args, **kwargs):
        raise AssertionError("the counting DPs must not use this route")

    parts_parity_counts.cache_clear()
    for module, name in [
        (arith, "_product"),
        (arith, "recurrence_inverse"),
        (arith, "_newton_inverse"),
        (series, "_binomial_product"),
        (series, "_cauchy_terms"),
        (series, "residue_product"),
        (series, "theta_terms"),
        (series, "partition_generating_series"),
        (arith.TruncatedSeries, "__init__"),
        (arith.TruncatedSeries, "_of_checked"),
        (partitions, "p_count"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    not_0_3_4 = ResidueCondition(7, frozenset({0, 3, 4}), mode="exclude")
    odd, even = ResidueCondition(2, frozenset({1})), ResidueCondition(2, frozenset({0}))
    cases = [(not_0_3_4, None), (odd, even), (not_0_3_4, odd)]
    rows = [count_parts_restricted_row(60, allowed, distinct) for allowed, distinct in cases]
    parity = parts_parity_counts(60)
    monkeypatch.undo()
    for row, (allowed, distinct) in zip(rows, cases):
        assert row == _list_restricted_row(60, allowed, distinct)
    even_counts, odd_counts = _parity_counts_quadratic(60)
    assert parity == (even_counts, odd_counts)
