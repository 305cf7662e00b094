import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexstat import identities, limits, mexcount, partitions, series, statistics
from mexstat.identities import (
    CSV_HEADER,
    IdentityCheck,
    REGISTRY,
    _odd_weighted_row,
    build_registry,
    list_identities,
    reports_to_json,
    verify,
    verify_all,
)
from mexstat.mexcount import mex_row
from mexstat.partitions import CapacityError, p_count
from mexstat.series import crank_generating_series, partition_generating_series
from mexstat.statistics import MexParams


class TestRegistry:
    def test_ids_unique_and_stable(self):
        reg = build_registry()
        assert len(reg) == len(REGISTRY)
        assert set(reg) == set(REGISTRY)

    def test_expected_ids_present(self):
        expected = {
            "thm-3.1", "thm-3.2", "thm-3.3", "cor-3.4", "cor-3.5", "thm-3.6",
            "cor-3.7", "thm-1.1", "thm-1.2", "thm-1.3", "thm-3.8-rank",
            "thm-3.8-crank", "cor-3.9", "thm-3.10-even", "thm-3.10-odd",
            "psi-minus-q", "thm-3.11", "thm-3.12", "thm-3.13",
            "thm-3.11-series", "thm-3.12-series", "thm-3.13-series",
            "thm-2.10a", "thm-2.10b", "thm-2.11", "thm-2.9", "thm-2.1",
            "thm-2.8", "jtp-even-lemma", "thm-2.4", "thm-2.5", "thm-2.2",
            "thm-2.3", "pe-po-genfun", "thm-5.1", "cor-5.2", "thm-5.3",
            "thm-5.4", "lemma-a-gt-n",
        }
        assert expected <= set(REGISTRY)

    def test_listing_shape(self):
        catalog = list_identities()
        assert len(catalog) == len(REGISTRY)
        entry = catalog[0]
        assert set(entry) == {"id", "description", "valid_from", "requires_enumeration"}


class TestVerify:
    def test_single_pass(self):
        report = verify("thm-3.1", 50)
        assert report.status == "pass"
        assert report.failures == []
        assert (report.n_from, report.n_to) == (1, 50)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            verify("nonsense-id", 10)

    def test_n_max_below_valid_from(self):
        with pytest.raises(ValueError):
            verify("thm-5.3", 1)

    def test_enumeration_capacity(self):
        with pytest.raises(CapacityError):
            verify("cor-3.4", 500)

    def test_corrupted_entry_reports_failure(self):
        # the lhs convention p_{3,1}(0) + p_{3,2}(0) = 2 breaks at n = 0
        broken = dict(REGISTRY)
        original = REGISTRY["thm-3.1"]
        broken["thm-3.1-broken"] = IdentityCheck(
            "thm-3.1-broken",
            original.description,
            0,  # deliberately includes n = 0
            original.make_lhs,
            original.make_rhs,
        )
        reports = verify_all(8, 8, registry=broken)
        failing = [r for r in reports if r.status == "fail"]
        assert len(failing) == 1
        assert failing[0].check_id == "thm-3.1-broken"
        assert failing[0].failures == [(0, "2", "1")]

    def test_verify_all_smoke(self):
        reports = verify_all(5, 5)
        assert len(reports) == len(REGISTRY)
        assert all(r.status == "pass" for r in reports)

    @pytest.mark.parametrize("bounds", [(-5, 5), (5, -3), (-1, -1)])
    def test_verify_all_refuses_a_negative_bound(self, bounds):
        with pytest.raises(ValueError, match="non-negative"):
            verify_all(*bounds)

    def test_verify_all_raises_a_zero_bound_to_each_valid_from(self):
        reports = verify_all(0, 0)
        assert len(reports) == len(REGISTRY)
        assert all(r.n_to == REGISTRY[r.check_id].valid_from for r in reports)
        assert all(r.status == "pass" for r in reports)

    def test_deterministic_reports(self):
        a = verify("cor-3.9", 12)
        b = verify("cor-3.9", 12)
        assert a.to_json_dict()["failures"] == b.to_json_dict()["failures"]
        assert a.status == b.status == "pass"


# (scale, last, base terms (sign, kind, A, a)), each term read at a + r
ODD_WEIGHTED_FAMILIES = {
    "thm-3.8-rank": (2, 2, [(1, "pbar", 3, 2)]),
    "thm-3.8-crank": (2, 1, [(1, "pbar", 1, 1)]),
    "cor-3.9-barred": (1, 1, [(1, "pbar", 1, 1), (-1, "pbar", 3, 2)]),
    "cor-3.9-unbarred": (1, 1, [(1, "p", 3, 2), (-1, "p", 1, 1)]),
}


@pytest.mark.parametrize("family", ODD_WEIGHTED_FAMILIES)
@settings(max_examples=10, deadline=None)
@given(n_max=st.integers(min_value=0, max_value=40))
def test_odd_weighted_row_matches_the_held_rows(family, n_max):
    scale, last, terms = ODD_WEIGHTED_FAMILIES[family]
    rows = [
        mex_row("recurrence", [(sign, kind, A, a + r, 0) for sign, kind, A, a in terms], n_max)
        for r in range(n_max - last + 1)
    ]
    held = [
        scale * sum((2 * r + 1) * rows[r][n] for r in range(n - last + 1))
        for n in range(n_max + 1)
    ]
    assert _odd_weighted_row(scale, last, terms, n_max) == held


def _literal_p_mex(A, a, n):
    # p(n) + sum_{m>=1} [p(n - off(2m)) - p(n - off(2m-1))], off(k) = A*k*(k-1)/2 + a*k
    if n < 0:
        return 0
    total = p_count(n)
    m = 1
    while True:
        k_odd = 2 * m - 1
        off_odd = A * (k_odd * (k_odd - 1) // 2) + a * k_odd
        if off_odd > n:
            break
        k_even = 2 * m
        off_even = A * (k_even * (k_even - 1) // 2) + a * k_even
        total += p_count(n - off_even) - p_count(n - off_odd)
        m += 1
    return total


def _literal_term(kind, A, a, n):
    if n < 0:
        return 0
    p = _literal_p_mex(A, a, n)
    return p if kind == "p" else p_count(n) - p


TERMS = st.lists(
    st.tuples(
        st.integers(min_value=-7, max_value=7),
        st.sampled_from(["p", "pbar"]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=70),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(terms=TERMS, n_max=st.integers(min_value=0, max_value=60))
def test_recurrence_row_matches_the_literal_recurrence(terms, n_max):
    # shifts reach past n_max, so some terms never enter the row
    expected = [
        sum(sign * _literal_term(kind, A, a, n - shift) for sign, kind, A, a, shift in terms)
        for n in range(n_max + 1)
    ]
    assert mex_row("recurrence", terms, n_max) == expected


@settings(max_examples=30, deadline=None)
@given(terms=TERMS, n_max=st.integers(min_value=0, max_value=60))
def test_the_two_routes_give_the_same_row(terms, n_max):
    assert mex_row("series", terms, n_max) == mex_row("recurrence", terms, n_max)


def _forbid(monkeypatch, names):
    def forbidden(*args, **kwargs):
        raise AssertionError("this route must not be read here")

    for module, name in names:
        monkeypatch.setattr(module, name, forbidden)


# the catalog sides built on the shifted-p(n) recurrence, and on the theta quotient
RECURRENCE_SIDES = [
    ("thm-3.2", "rhs"), ("thm-3.6", "lhs"), ("cor-3.7", "lhs"), ("thm-1.1", "lhs"),
    ("thm-1.2", "lhs"), ("thm-3.8-rank", "rhs"), ("thm-3.8-crank", "rhs"), ("cor-3.9", "rhs"),
    ("thm-3.10-even", "lhs"), ("thm-3.10-odd", "lhs"), ("psi-minus-q", "lhs"),
    ("thm-3.11", "lhs"), ("thm-3.12", "lhs"), ("thm-3.13", "lhs"), ("thm-5.1", "lhs"),
    ("cor-5.2", "lhs"), ("thm-5.3", "lhs"), ("thm-5.4", "lhs"),
]
SERIES_SIDES = [
    ("thm-3.1", "lhs"), ("thm-3.3", "lhs"), ("cor-3.4", "lhs"), ("cor-3.5", "lhs"),
    ("thm-1.3", "lhs"), ("thm-3.11-series", "lhs"), ("thm-3.12-series", "lhs"),
    ("thm-3.13-series", "lhs"), ("thm-5.1", "rhs"), ("lemma-a-gt-n", "lhs"),
]


def _side_values(check_id, side, n_max):
    check = REGISTRY[check_id]
    evaluate = (check.make_lhs if side == "lhs" else check.make_rhs)(n_max)
    return [evaluate(n) for n in range(check.valid_from, n_max + 1)]


def test_the_recurrence_route_reads_no_series(monkeypatch):
    n_max = 30
    _forbid(monkeypatch, [
        (series, "theta_terms"),
        (series, "theta_quotient"),
        (series, "partition_generating_series"),
        (mexcount, "theta_terms"),
        (mexcount, "theta_quotient"),
        (mexcount, "theta_quotient_at"),
        (mexcount, "mex_numerator"),
    ])
    values = {key: _side_values(*key, n_max) for key in RECURRENCE_SIDES}
    cases = [(MexParams(2, 3), 30), (MexParams(1, 1), 17), (MexParams(5, 2), 0)]
    points = [
        (mexcount.p_mex_recurrence(params, n), mexcount.pbar_mex_recurrence(params, n))
        for params, n in cases
    ]
    monkeypatch.undo()
    for check_id, side in RECURRENCE_SIDES:
        other = "rhs" if side == "lhs" else "lhs"
        assert values[check_id, side] == _side_values(check_id, other, n_max), check_id
    assert points == [
        (mexcount.mex_series_at(params, n, False), mexcount.mex_series_at(params, n, True))
        for params, n in cases
    ]


def test_the_series_route_reads_no_pentagonal_table(monkeypatch):
    n_max = 30
    series.partition_generating_series.cache_clear()
    _forbid(monkeypatch, [
        (partitions, "p_count"),
        (mexcount, "recurrence_offsets"),
        (mexcount, "recurrence_at"),
        (mexcount, "recurrence_row"),
    ])
    values = {key: _side_values(*key, n_max) for key in SERIES_SIDES}
    monkeypatch.undo()
    for check_id, side in SERIES_SIDES:
        other = "rhs" if side == "lhs" else "lhs"
        assert values[check_id, side] == _side_values(check_id, other, n_max), check_id


# the catalog sides that multiply out factors (1 - q^n), each checked against a theta
PRODUCT_SIDES = [
    ("thm-2.1", "rhs"), ("thm-2.8", "rhs"), ("jtp-even-lemma", "rhs"),
    ("thm-2.10a", "lhs"), ("thm-2.10b", "lhs"), ("thm-2.11", "lhs"),
]


def test_the_product_route_reads_no_theta(monkeypatch):
    # at 1000 the Jacobi triple products of small k, prod (1 - q^n) and the mod-32 and
    # mod-24 products take the Euler transform, whose c_k must come from the factors
    n_max, solved = 1000, []
    euler = series._euler_transform
    _forbid(monkeypatch, [
        (series, "theta_terms"),
        (series, "_bilateral_terms"),
        (series, "alternating_theta"),
        (series, "alternating_theta_bilateral"),
        (series, "euler_product"),
        (series, "partition_generating_series"),
        (partitions, "p_count"),
    ])
    monkeypatch.setattr(series, "_euler_transform", lambda *args: solved.append(args) or euler(*args))
    values = {key: _side_values(*key, n_max) for key in PRODUCT_SIDES}
    monkeypatch.undo()
    assert len(solved) >= 10
    for check_id, side in PRODUCT_SIDES:
        other = "rhs" if side == "lhs" else "lhs"
        assert values[check_id, side] == _side_values(check_id, other, n_max), check_id


@pytest.mark.parametrize("check_id", ["thm-3.8-crank", "thm-3.6"])
def test_series_crank_checks_build_no_per_m_rows(check_id):
    # with p(n) and 1/(q)_inf at 200 already built, the crank side is one numerator
    # and one multiply, and the odd-weighted side one recurrence numerator read at each n
    p_count(200)
    partition_generating_series(200)
    crank_generating_series.cache_clear()
    tracemalloc.start()
    try:
        report = verify(check_id, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == "pass"
    # measured 0.05-0.15 MiB; a count series per m and every recurrence row held at
    # once took 0.9-1.7 MiB
    assert peak < 512 * 1024


@pytest.mark.parametrize("check_id, rows", [("thm-3.10-even", 10), ("thm-3.10-odd", 15)])
def test_congruence_classes_build_each_restricted_row_once(monkeypatch, check_id, rows):
    # (M, i) and (M, M - i) exclude the same classes 0, +-i mod M
    calls = []
    row = partitions.count_parts_restricted_row

    def counted(n_max, *conditions):
        calls.append(conditions)
        return row(n_max, *conditions)

    monkeypatch.setattr(partitions, "count_parts_restricted_row", counted)
    assert verify(check_id, 60).status == "pass"
    assert len(calls) == len(set(calls)) == rows


def _declared(check, side, n_max):
    """The columns a check's side declares at n_max, read off its factory."""
    factory = check.make_lhs if side == "lhs" else check.make_rhs
    members, index = factory.args
    if isinstance(members[0], identities._Column):
        return [members[index]]
    return [member[index] for member in members if member[index].first <= n_max]


# every builder a side may call: after a factory returns, its evaluator calls none
BUILDERS = [
    (partitions, "p_count"),
    (partitions, "count_parts_restricted_row"),
    (partitions, "parts_parity_counts"),
    (mexcount, "p_mex_recurrence"),
    (mexcount, "recurrence_at"),
    (mexcount, "recurrence_offsets"),
    (mexcount, "mex_numerator"),
    (mexcount, "mex_census_rows"),
    (mexcount, "mex_row"),
    (mexcount, "recurrence_row"),
    (mexcount, "theta_quotient"),
    (mexcount, "theta_quotient_at"),
    (series, "theta_quotient"),
    (series, "theta_quotient_at"),
    (series, "alternating_theta"),
    (series, "alternating_theta_bilateral"),
    (statistics, "_stat_census"),
    (statistics, "theta_quotient"),
    *[(statistics, name) for name in vars(statistics) if name.endswith(("_row", "_rows"))],
    # every (owner, name) a declared column's request names, the series functions among them
    *{column.request[:2] for check in REGISTRY.values() for side in ("lhs", "rhs")
      for column in _declared(check, side, limits.ENUMERATION_CAP)},
]


def test_no_route_runs_after_a_factory_returns(monkeypatch):
    # both sides of every check are built, then every builder raises, and the evaluators
    # still read every n, and agree
    sides = {}
    for check_id, check in REGISTRY.items():
        n_max = max(check.valid_from, 12)
        sides[check_id] = check.make_lhs(n_max), check.make_rhs(n_max), n_max
    _forbid(monkeypatch, BUILDERS)
    for check_id, (lhs, rhs, n_max) in sides.items():
        for n in range(REGISTRY[check_id].valid_from, n_max + 1):
            assert lhs(n) == rhs(n), (check_id, n)


def test_each_side_builds_each_distinct_request_once(monkeypatch):
    built = []
    build = identities._build

    def counted(request, first, last):
        built.append(request)
        return build(request, first, last)

    monkeypatch.setattr(identities, "_build", counted)
    for check_id, check in REGISTRY.items():
        for side, make in (("lhs", check.make_lhs), ("rhs", check.make_rhs)):
            built.clear()
            make(max(check.valid_from, 12))
            assert built and len(built) == len(set(built)), (check_id, side)


def test_the_two_sides_of_a_check_share_no_request():
    # the two independent routes of each check, read off the declared columns
    for check_id, check in REGISTRY.items():
        n_max = max(check.valid_from, 20)
        lhs = {column.request for column in _declared(check, "lhs", n_max)}
        rhs = {column.request for column in _declared(check, "rhs", n_max)}
        assert lhs and rhs, check_id
        assert not lhs & rhs, (check_id, lhs & rhs)


@pytest.mark.parametrize(
    "check_id, census",
    [("thm-2.2", statistics.rank_count_rows), ("thm-2.3", statistics.crank_count_rows)],
)
def test_the_signed_checks_read_m_from_minus_n_to_n(check_id, census):
    # one declared member per |m| <= the cap; the factory keeps those with |m| <= n_max
    cap = limits.ENUMERATION_CAP
    rows = census(cap)
    check = REGISTRY[check_id]
    for n_max in (0, 1, 7, cap):
        lhs, rhs = check.make_lhs(n_max), check.make_rhs(n_max)
        for n in range(n_max + 1):
            assert rhs(n) == tuple(rows[m][n] for m in range(-n, n + 1)), (n_max, n)
            assert len(lhs(n)) == 2 * n + 1, (n_max, n)


def _member_agrees(member, valid_from, n_max):
    lhs, rhs = (identities._evaluator(member, side, n_max) for side in (0, 1))
    ns = range(valid_from, n_max + 1)
    assert [lhs(n) for n in ns] == [rhs(n) for n in ns]


# the families the registry maps over its grids, at parameters outside them
@settings(max_examples=12, deadline=None)
@given(data=st.data(), M=st.integers(min_value=12, max_value=20))
def test_congruence_family_at_drawn_moduli(data, M):
    # Thm 3.10 even and odd; at even M the class i = M/2 coincides with -i
    i = data.draw(st.integers(min_value=1, max_value=M - 1).filter(lambda i: 2 * i != M))
    _member_agrees(identities._congruence(M, i), 0, data.draw(st.integers(0, 80)))


@settings(max_examples=16, deadline=None)
@given(
    family=st.sampled_from(["_rank_at_least", "_rank_below", "_crank_at_least", "_crank_below"]),
    j=st.integers(min_value=9, max_value=30),
    n_max=st.integers(min_value=1, max_value=40),
)
def test_rank_and_crank_families_at_drawn_bounds(family, j, n_max):
    _member_agrees(getattr(identities, family)(j), 1, n_max)


@settings(max_examples=12, deadline=None)
@given(data=st.data(), A=st.integers(min_value=1, max_value=12))
def test_shift_family_at_drawn_pairs(data, A):
    a = data.draw(st.integers(min_value=A + 1, max_value=24))
    _member_agrees(identities._shifted(A, a), 0, data.draw(st.integers(0, 100)))


@settings(max_examples=10, deadline=None)
@given(data=st.data(), parity=st.sampled_from(["even", "odd"]), k=st.integers(7, 9))
def test_jtp_family_at_drawn_moduli(data, parity, k):
    i = data.draw(st.integers(min_value=1, max_value=2 * k - (parity == "even")))
    _member_agrees(identities._jtp(parity, k, i), 0, data.draw(st.integers(0, 300)))


def test_catalog_matches_golden():
    # list_identities() and verify_all(12, 60) without timings, recorded
    # before the catalog was declared over row evaluators
    golden = json.loads((Path(__file__).parent / "golden" / "catalog.json").read_text())
    reports = [r.to_json_dict() for r in verify_all(12, 60)]
    for record in reports:
        del record["elapsed_ms"]
    assert list_identities() == golden["catalog"]
    assert reports == golden["reports"]


class TestReportSerialization:
    def test_json_schema(self):
        report = verify("psi-minus-q", 20)
        blob = json.loads(reports_to_json([report]))
        assert isinstance(blob, list) and len(blob) == 1
        record = blob[0]
        assert record["id"] == "psi-minus-q"
        assert record["range"] == {"from": 0, "to": 20}
        assert record["status"] == "pass"
        assert record["failures"] == []
        assert "elapsed_ms" in record

    def test_csv_row(self):
        report = verify("thm-5.4", 30)
        assert CSV_HEADER == ["id", "n_from", "n_to", "status", "num_failures"]
        assert report.csv_row() == ["thm-5.4", "1", "30", "pass", "0"]

    def test_failure_values_are_decimal_strings(self):
        broken = {
            "always-wrong": IdentityCheck(
                "always-wrong",
                "deliberately inconsistent",
                1,
                lambda n_max: lambda n: n,
                lambda n_max: lambda n: n + 1,
            )
        }
        report = verify("always-wrong", 3, registry=broken)
        assert report.status == "fail"
        assert report.failures == [(1, "1", "2"), (2, "2", "3"), (3, "3", "4")]
