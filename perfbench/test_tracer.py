"""Tests of the benchmark's tracer.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracer import Tracer, _invert_products, _mul_products  # noqa: E402


def test_self_time_on_a_nested_span_tree():
    # a [0, 10] spans b [1, 6], which calls the leaf c [2, 4]; a then calls c [7, 8]
    clock = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 8.0, 10.0, 20.0, 21.0]).__next__
    tr = Tracer(clock=clock)
    c = tr.wrap(lambda: None, "partitions.c")
    b = tr.wrap(lambda: c(), "series.b", span=True)

    def a_body():
        b()
        c()

    a = tr.wrap(a_body, "cli.a", span=True)
    a()
    tr.wrap(lambda: None, "cli.a", span=True)()  # a second root: a new trace

    assert tr.stats["cli.a"].calls == 2
    assert tr.stats["cli.a"].total_s == 11.0
    assert tr.stats["cli.a"].self_s == 10.0 - 5.0 - 1.0 + 1.0
    assert tr.stats["series.b"].self_s == 5.0 - 2.0
    assert tr.stats["partitions.c"].calls == 2
    assert tr.stats["partitions.c"].self_s == 3.0
    layers = tr.layer_self_s()
    assert layers["cli"] + layers["series"] + layers["partitions"] == 11.0
    assert layers["mexcount"] == 0.0

    by_name = {}
    for span in tr.spans_as_dicts():
        by_name.setdefault(span["name"], []).append(span)
    (span_b,) = by_name["series.b"]
    first_a, second_a = sorted(by_name["cli.a"], key=lambda s: s["start"])
    assert span_b["parent"] == first_a["id"] and first_a["parent"] is None
    assert span_b["trace"] == first_a["trace"] != second_a["trace"]
    assert (first_a["start"], first_a["end"], first_a["self_s"]) == (0.0, 10.0, 4.0)
    assert len(tr.spans) == 3  # the leaf c records no span


def test_self_time_survives_an_exception():
    clock = iter([0.0, 1.0, 3.0, 4.0]).__next__
    tr = Tracer(clock=clock)

    def fail():
        raise KeyError

    inner = tr.wrap(fail, "series.inner")

    def outer_body():
        try:
            inner()
        except KeyError:
            pass

    tr.wrap(outer_body, "cli.outer", span=True)()
    assert tr.stats["series.inner"].self_s == 2.0
    assert tr.stats["cli.outer"].self_s == 2.0
    assert tr.stack == []


def test_install_patches_every_binding_and_restore_puts_them_back():
    from mexstat import cli, identities, mexcount, partitions, series, statistics

    bindings = [
        (series, "alternating_theta"), (mexcount, "alternating_theta"),
        (identities, "alternating_theta"), (cli, "alternating_theta"),
        (series, "partition_generating_series"), (mexcount, "partition_generating_series"),
        (statistics, "crank_generating_series"), (identities, "crank_generating_series"),
        (partitions, "p_count"), (partitions, "ascending_partitions"),
        (identities, "verify"), (cli, "main"), (cli, "build_parser"),
        (series.TruncatedSeries, "__mul__"), (series.TruncatedSeries, "__rmul__"),
        (series.TruncatedSeries, "invert"),
    ]
    before = [getattr(obj, name) for obj, name in bindings]
    tr = Tracer()
    tr.install()
    try:
        for (obj, name), orig in zip(bindings, before):
            assert getattr(obj, name) is not orig, f"{obj.__name__}.{name} not patched"
        # the library still answers, through the wrappers
        params = statistics.MexParams(2, 1)
        assert mexcount.p_mex_enum(params, 10) + mexcount.pbar_mex_enum(params, 10) == 42
        assert partitions.p_count(30) == 5604
        s = series.euler_product(20)
        assert (s * s.invert()).coeffs == (1,) + (0,) * 20
    finally:
        tr.restore()
    for (obj, name), orig in zip(bindings, before):
        assert getattr(obj, name) is orig, f"{obj.__name__}.{name} not restored"
    assert tr.stats["partitions.enumerate"].work == 2 * 42  # two passes over p(10) = 42
    assert tr.stats["mexcount.census"].calls == 2
    assert tr.stats["series.invert"].calls == 1 and tr.stats["series.mul"].calls == 1


def test_computed_coefficient_products_match_the_schoolbook_loops():
    from mexstat.series import TruncatedSeries

    a = TruncatedSeries([1, 0, -2, 0, 0, 3, 0, 1])
    b = TruncatedSeries([2, 1, 0, 5, 0, 0])
    p = min(a.precision, b.precision)
    loop = sum(p + 1 - i for i in range(p + 1) if a.coeffs[i])
    assert _mul_products((a, b), {}) == loop
    assert _mul_products((a, 3), {}) == a.precision + 1
    rows = sum(1 for m in range(1, a.precision + 1) for k in range(1, m + 1) if a.coeffs[k])
    assert _invert_products((a,), {}) == rows
