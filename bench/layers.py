"""Layer timings of the series engine and the counting DPs, as medians of repeated calls.

Usage, from the root of the repository::

    PYTHONPATH=src python3 bench/layers.py [--repeats 5]

It imports ``mexstat`` from the path it is given, so pointing PYTHONPATH at
another checkout's ``src`` times that checkout with the same script.  It
prints one JSON object: the host, the Python version, and for each layer
the median and the individual times in seconds.  Standard library only.

Layers:

* ``mul.dense.P`` -- the product of two dense series at precision P: the
  partition generating series times the Rogers-Ramanujan product
  prod (1 - q^n) over n = +-1 mod 5;
* ``invert.dense.P`` -- the inverse of that product;
* ``residue_product.P`` (P = 1000, 5000) -- prod (1 - q^n) over every
  n <= P;
* ``jtp_product.P`` (P = 1000, 5000) -- the product side of the even
  Jacobi triple product with k = i = 1, whose factors all appear twice;
* ``packed.signed.1000.S`` and ``packed.pack.1000.S`` (S = 1..40) -- one
  ``PackedRows.signed`` decode and one ``pack`` of 1001 signed coefficients
  in S-byte slots (each time is a batch of 20 calls divided by 20); at
  P = 1000 the triple products decode 6- to 8-byte slots and the Cauchy sums
  and the products with the partition series 15-byte slots, and at P = 5000
  the Cauchy sums take 34;
* ``recurrence_inverse.5000`` -- the inverse of the Euler product at 5000,
  which takes the sparse recurrence: the partition generating series;
* ``cauchy_sum.1000`` -- the sum of q^n/(q)_n over n, truncated at q^1000;
* ``cauchy_sums.thm29.1000`` -- the thm-2.9 sum side at 1000: the six sums
  of t^n/(q)_n at t = q^j (j = 1..5) and t = -q;
* ``parity_pair.1000`` -- the pe-po-genfun sum side at 1000: the sums of
  q^j/(q)_j over even and over odd j;
* ``jtp_products.N`` (N = 1000, 2000) -- the product sides of thm-2.8 and
  jtp-even-lemma at N, the 42 distinct Jacobi triple products with k <= 6;
* ``jtp_sums.1000`` -- the sum sides of the same two checks at 1000, the
  78 bilateral theta sums with k <= 6;
* ``parts_parity_counts.1000`` -- the even and odd part-count rows over
  n = 0..1000 from a cold cache;
* ``restricted_row.N`` (N = 200, 2000) -- the Thm 3.10 row at M = 7,
  i = 3: partitions of n = 0..N into parts not congruent to 0, +-3 mod 7;
* ``p_mex_series.2000`` -- the row p_{2,3}(0..2000) from cold caches;
* ``point.p_aa.2000`` -- the point p_{2,3}(2000) on the series route
  (``mex_series_at``), with the partition generating series already
  built at precision 2000;
* ``point.crank_moment.2000`` -- ``crank_moment(2, 2000)`` with every
  series cache cleared before each call;
* ``crank_rows.2000`` -- the series rows ``crank_count_at_least_row(3,
  2000)`` and ``crank_moment_row(2, 2000)``, one after the other, with
  every series cache cleared before each pair;
* ``theta_quotient.2000`` and ``theta_quotient_at.2000`` -- the two readers
  of a theta quotient at 2000 on the numerator of ``crank_moment(2, 2000)``,
  the sum over m of 2 m^2 times the crank numerator of m: the whole row
  (one multiply) and coefficient 2000 alone, with the partition generating
  series already built at precision 2000;
* ``stat_census`` -- the one rank, crank and spt census over
  n = 0..ENUMERATION_CAP, built from a cold cache;
* ``stat_rows.N`` (N = 50, 70) -- the rank, crank and spt rows over
  n = 0..N from a cold census;
* ``mex_rows.50`` -- ``mex_census_rows`` at n = 50 over the 150 pairs
  A <= 10, a <= 15 of the catalog;
* ``recurrence_rows.2000`` -- the recurrence sides of the catalog at 2000:
  the thm-3.8-crank rhs (one numerator weighted (2r+1) over r) and the 44
  thm-5.1 lhs rows, with the p(n) table already built to 2000;
* ``factory.CHECK.N`` -- ``make_lhs(N)`` and ``make_rhs(N)`` of one catalog
  check with ``identities._build`` memoized, so the time is the side
  factory's own work (spans, picks, segments and zips), not its rows:
  thm-2.2 and thm-3.2 at 50, lemma-a-gt-n at 200 and 1000, thm-5.1 at 200
  (each time is a batch of 20 calls divided by 20);
* ``cli.main.rank`` -- one ``main(["compute", "rank", "--partition",
  "3,1"])`` call, after a first call that may build the parser (each time
  is a batch of 100 calls divided by 100);
* ``cli.parse.compute`` -- the 1000 argvs of the queries workload of
  ``perfbench/worker.py`` at seed 1 through one ``build_parser()`` parser,
  one ``parse_args`` each (the time is of all 1000);
* ``census.point.70`` -- every combinatorial point reader of the census
  (``rank_count``, ``crank_count``, ``rank_moment``,
  ``crank_moment_enumerated``, ``goe_count``, ``spt_direct``,
  ``rank_count_at_least``, ``rank_count_below``) at each n = 1..70, with
  the census already built (the time is of all 560 reads);
* ``census.rows.70`` -- the census row readers that the catalog's sides
  call, each distinct call once at n_max = 70 (``rank_count_at_least_row``
  and ``rank_count_below_row`` at j = 0..8, ``rank_count_at_least_row(-1)``,
  ``goe_row``, ``rank_moment_row(2)``, ``crank_moment_enumerated_row(2)``,
  ``spt_row``, ``rank_count_rows`` and ``crank_count_rows``), with the
  census already built;
* ``p_table.20000`` -- ``p_count(20000)`` from an empty p(n) table;
* ``genfun.prefix_hit.1000`` -- ``partition_generating_series(1000)``
  with the cache holding only the series at precision 2000;
* ``genfun.sweep.1200`` -- ``mex_series_at(MexParams(2, 3), n, False)``
  for n = 1..1200 in turn, from an empty ``partition_generating_series``
  cache: each point reads the series one coefficient further;
* ``cold_start.import_cli`` -- from starting a fresh interpreter to
  ``import mexstat.cli`` done, as ``perfbench/run.py`` times ``setup_s``;
* ``cold_start.compute_p_aa`` -- the whole run of a fresh
  ``python -m mexstat compute p_aa --A 2 --a 3 --n 40 --format json``.

The two cold-start rows are the median of COLD_STARTS fresh interpreters
after one discarded start, each started with this process's environment,
so on its ``PYTHONPATH``; with ``PYTHONDONTWRITEBYTECODE`` set, every start
compiles the sources it imports.

The three series-pass rows build the catalog sides through
``identities.REGISTRY``, so they time whatever route a checkout takes for
them.  A checkout timed this way must have every function named above, with
the same signature.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from mexstat import cli, identities, mexcount, partitions, series
from mexstat import statistics as mexstat_statistics
from mexstat.series import (
    ResidueCondition,
    cauchy_sum_specialized,
    jtp_specialized,
    residue_product,
)
from mexstat.statistics import MexParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from worker import argv_of, make_queries  # noqa: E402  (the queries workload's argvs)

PRECISIONS = (500, 1000, 2000, 4000)
FACTORY_CASES = (("thm-2.2", 50), ("thm-3.2", 50), ("lemma-a-gt-n", 200),
                 ("lemma-a-gt-n", 1000), ("thm-5.1", 200))
COLD_STARTS = 15


def timed(call, repeats: int, setup=None, calls: int = 1) -> dict:
    """Median over ``repeats`` of ``calls`` calls per time (divided by ``calls``);
    ``setup`` runs untimed before each."""
    times = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        for _ in range(calls):
            call()
        times.append((time.perf_counter() - start) / calls)
    return {"median_s": statistics.median(times), "times_s": times}


def cold_start(args: list[str], imported: bool) -> dict:
    """Seconds per fresh ``python args``: to the child's printed monotonic clock
    if ``imported``, else to its exit; the median of COLD_STARTS after one
    discarded start."""
    times = []
    for i in range(COLD_STARTS + 1):
        start = time.monotonic()
        out = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True)
        end = float(out.stdout.split()[-1]) if imported else time.monotonic()
        if i:
            times.append(end - start)
    return {"median_s": statistics.median(times), "times_s": times}


def cold_row() -> None:
    mexcount._series_row.cache_clear()
    series.partition_generating_series.cache_clear()
    mexcount.p_mex_series(MexParams(2, 3), 2000)


def clear_series_caches() -> None:
    for cached in (
        series.partition_generating_series,
        series.rank_generating_series,
        series.crank_generating_series,
    ):
        cached.cache_clear()


def crank_rows_2000() -> None:
    mexstat_statistics.crank_count_at_least_row(3, 2000)
    mexstat_statistics.crank_moment_row(2, 2000)


def jtp_sides(side: str, precision: int) -> None:
    # side is "make_lhs" (the theta sums) or "make_rhs" (the triple products)
    for check_id in ("thm-2.8", "jtp-even-lemma"):
        getattr(identities.REGISTRY[check_id], side)(precision)


def cold_census() -> None:
    mexstat_statistics._stat_census.cache_clear()
    mexstat_statistics._stat_census()


def cold_stat_rows(n_max: int) -> None:
    mexstat_statistics._stat_census.cache_clear()
    mexstat_statistics.rank_count_rows(n_max)
    mexstat_statistics.crank_count_rows(n_max)
    mexstat_statistics.spt_row(n_max)


def recurrence_rows_2000() -> None:
    identities.REGISTRY["thm-3.8-crank"].make_rhs(2000)
    identities.REGISTRY["thm-5.1"].make_lhs(2000)


def factory_layers(repeats: int) -> dict:
    """The ``factory.CHECK.N`` layers: each row is built once, untimed, and
    ``identities._build`` is put back afterwards."""
    build, held = identities._build, {}

    def memoized(request, first, last):
        if (request, first, last) not in held:
            held[request, first, last] = build(request, first, last)
        return held[request, first, last]

    identities._build = memoized
    try:
        layers = {}
        for check_id, n_max in FACTORY_CASES:
            check = identities.REGISTRY[check_id]
            sides = lambda: (check.make_lhs(n_max), check.make_rhs(n_max))  # noqa: E731
            sides()
            layers[f"factory.{check_id}.{n_max}"] = timed(sides, repeats, calls=20)
        return layers
    finally:
        identities._build = build


def cli_rank() -> None:
    with redirect_stdout(io.StringIO()):
        cli.main(["compute", "rank", "--partition", "3,1"])


def parse_all(parser: argparse.ArgumentParser, argvs: list[list[str]]) -> None:
    for argv in argvs:
        parser.parse_args(argv)


def census_points() -> None:
    st = mexstat_statistics
    for n in range(1, 71):
        st.rank_count(n // 3, n)
        st.crank_count(-(n // 4), n)
        st.rank_moment(2, n)
        st.crank_moment_enumerated(2, n)
        st.goe_count(n)
        st.spt_direct(n)
        st.rank_count_at_least(1, n)
        st.rank_count_below(-1, n)


def census_rows() -> None:
    st = mexstat_statistics
    for j in range(identities.RANK_CRANK_J_MAX + 1):
        st.rank_count_at_least_row(j, 70)
        st.rank_count_below_row(j, 70)
    st.rank_count_at_least_row(-1, 70)
    st.goe_row(70)
    st.rank_moment_row(2, 70)
    st.crank_moment_enumerated_row(2, 70)
    st.spt_row(70)
    st.rank_count_rows(70)
    st.crank_count_rows(70)


def cold_p_table() -> None:
    del partitions._p_table[1:]


def genfun_at_2000() -> None:
    series.partition_generating_series.cache_clear()
    series.partition_generating_series(2000)


def rising_sweep() -> None:
    for n in range(1, 1201):
        mexcount.mex_series_at(MexParams(2, 3), n, False)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    repeats = ap.parse_args().repeats
    layers = {
        "cold_start.import_cli": cold_start(
            ["-c", "import mexstat.cli, time; print(time.monotonic())"], True
        ),
        "cold_start.compute_p_aa": cold_start(
            "-m mexstat compute p_aa --A 2 --a 3 --n 40 --format json".split(), False
        ),
    }
    rogers_ramanujan = ResidueCondition(5, frozenset({1, 4}))
    for p in PRECISIONS:
        dense = residue_product(rogers_ramanujan, p)
        every_count = series.partition_generating_series(p)
        layers[f"mul.dense.{p}"] = timed(lambda: dense * every_count, repeats)
        layers[f"invert.dense.{p}"] = timed(dense.invert, repeats)
    every_part = ResidueCondition(1, frozenset({0}))
    for p in (1000, 5000):
        layers[f"residue_product.{p}"] = timed(lambda: residue_product(every_part, p), repeats)
        layers[f"jtp_product.{p}"] = timed(
            lambda: jtp_specialized(1, 1, "even", "product", p), repeats
        )
    rng = random.Random(1)
    for size in range(1, 41):
        rows = series.PackedRows.of_size(1000, size)
        top = (1 << 8 * size - 1) - 1
        coeffs = [rng.randint(-top, top) for _ in range(1001)]
        packed = rows.pack(coeffs)
        layers[f"packed.signed.1000.{size}"] = timed(lambda: rows.signed(packed), repeats, calls=20)
        layers[f"packed.pack.1000.{size}"] = timed(lambda: rows.pack(coeffs), repeats, calls=20)
    euler = series.euler_product(5000)
    layers["recurrence_inverse.5000"] = timed(euler.invert, repeats)
    layers["cauchy_sum.1000"] = timed(lambda: cauchy_sum_specialized(1, False, 1000), repeats)
    checks = identities.REGISTRY
    layers["cauchy_sums.thm29.1000"] = timed(lambda: checks["thm-2.9"].make_lhs(1000), repeats)
    layers["parity_pair.1000"] = timed(lambda: checks["pe-po-genfun"].make_lhs(1000), repeats)
    for p in (1000, 2000):
        layers[f"jtp_products.{p}"] = timed(lambda: jtp_sides("make_rhs", p), repeats)
    layers["jtp_sums.1000"] = timed(lambda: jtp_sides("make_lhs", 1000), repeats)
    layers["parts_parity_counts.1000"] = timed(
        lambda: partitions.parts_parity_counts(1000),
        repeats,
        partitions.parts_parity_counts.cache_clear,
    )
    thm_3_10 = ResidueCondition(7, frozenset({0, 3, 4}), mode="exclude")
    for n_max in (200, 2000):
        layers[f"restricted_row.{n_max}"] = timed(
            lambda: partitions.count_parts_restricted_row(n_max, thm_3_10), repeats
        )
    layers["p_mex_series.2000"] = timed(cold_row, repeats)
    series.partition_generating_series(2000)
    layers["point.p_aa.2000"] = timed(
        lambda: mexcount.mex_series_at(MexParams(2, 3), 2000, False), repeats
    )
    layers["point.crank_moment.2000"] = timed(
        lambda: mexstat_statistics.crank_moment(2, 2000), repeats, clear_series_caches
    )
    layers["crank_rows.2000"] = timed(crank_rows_2000, repeats, clear_series_caches)
    crank_moment_2 = {}
    for m in range(1, 2001):
        series.count_numerator("crank", m, 2000, 2 * m * m, crank_moment_2)
    series.partition_generating_series(2000)
    layers["theta_quotient.2000"] = timed(
        lambda: series.theta_quotient(crank_moment_2, 2000), repeats
    )
    layers["theta_quotient_at.2000"] = timed(
        lambda: series.theta_quotient_at(crank_moment_2, 2000), repeats
    )
    layers["stat_census"] = timed(cold_census, repeats)
    for n_max in (50, 70):
        layers[f"stat_rows.{n_max}"] = timed(lambda: cold_stat_rows(n_max), repeats)
    grid = [(A, a) for A in range(1, 11) for a in range(1, 16)]
    layers["mex_rows.50"] = timed(lambda: mexcount.mex_census_rows(50, grid), repeats)
    partitions.p_count(2000)
    layers["recurrence_rows.2000"] = timed(recurrence_rows_2000, repeats)
    layers.update(factory_layers(repeats))
    cli_rank()
    layers["cli.main.rank"] = timed(cli_rank, repeats, calls=100)
    parser, argvs = cli.build_parser(), [argv_of(q) for q in make_queries(1)]
    layers["cli.parse.compute"] = timed(lambda: parse_all(parser, argvs), repeats)
    census_points()
    layers["census.point.70"] = timed(census_points, repeats)
    layers["census.rows.70"] = timed(census_rows, repeats)
    layers["p_table.20000"] = timed(lambda: partitions.p_count(20000), repeats, cold_p_table)
    layers["genfun.prefix_hit.1000"] = timed(
        lambda: series.partition_generating_series(1000), repeats, genfun_at_2000
    )
    layers["genfun.sweep.1200"] = timed(
        rising_sweep, repeats, series.partition_generating_series.cache_clear
    )
    print(
        json.dumps(
            {
                "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
                "python": platform.python_implementation() + " " + platform.python_version(),
                "repeats": repeats,
                "layers": layers,
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
