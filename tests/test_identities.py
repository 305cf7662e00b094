import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexstat.identities import (
    CSV_HEADER,
    IdentityCheck,
    REGISTRY,
    _mex_row,
    _odd_weighted_row,
    build_registry,
    list_identities,
    reports_to_json,
    verify,
    verify_all,
)
from mexstat.partitions import CapacityError, p_count
from mexstat.series import crank_generating_series, partition_generating_series


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

    def test_deterministic_reports(self):
        a = verify("cor-3.9", 12)
        b = verify("cor-3.9", 12)
        assert a.to_json_dict()["failures"] == b.to_json_dict()["failures"]
        assert a.status == b.status == "pass"


ODD_WEIGHTED_FAMILIES = {
    "thm-3.8-rank": (2, 2, lambda r: [(1, "pbar", 3, r + 2, 0)]),
    "thm-3.8-crank": (2, 1, lambda r: [(1, "pbar", 1, r + 1, 0)]),
    "cor-3.9-barred": (1, 1, lambda r: [(1, "pbar", 1, r + 1, 0), (-1, "pbar", 3, r + 2, 0)]),
    "cor-3.9-unbarred": (1, 1, lambda r: [(1, "p", 3, r + 2, 0), (-1, "p", 1, r + 1, 0)]),
}


@pytest.mark.parametrize("family", ODD_WEIGHTED_FAMILIES)
@settings(max_examples=10, deadline=None)
@given(n_max=st.integers(min_value=0, max_value=40))
def test_odd_weighted_row_matches_the_held_rows(family, n_max):
    scale, last, terms_of = ODD_WEIGHTED_FAMILIES[family]
    rows = [_mex_row("recurrence", terms_of(r), n_max) for r in range(n_max - last + 1)]
    held = [
        scale * sum((2 * r + 1) * rows[r][n] for r in range(n - last + 1))
        for n in range(n_max + 1)
    ]
    assert _odd_weighted_row(scale, last, terms_of, n_max) == held


@pytest.mark.parametrize("route", ["series", "recurrence"])
@settings(max_examples=15, deadline=None)
@given(n_max=st.integers(min_value=0, max_value=30), start=st.integers(min_value=0, max_value=33))
def test_mex_row_from_a_start_is_the_full_row_with_its_head_zeroed(route, n_max, start):
    terms = [(1, "pbar", 1, 3, 0), (-2, "p", 3, 2, 2), (1, "pbar", 2, 1, 5)]
    full = _mex_row(route, terms, n_max)
    assert _mex_row(route, terms, n_max, start) == [0] * min(start, n_max + 1) + full[start:]


@pytest.mark.parametrize("check_id", ["thm-3.8-crank", "thm-3.6"])
def test_series_crank_checks_build_no_per_m_rows(check_id):
    # with p(n) and 1/(q)_inf at 200 already built, the crank side is one numerator
    # and one multiply, and the odd-weighted side one recurrence row at a time
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
