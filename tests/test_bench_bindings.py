"""The names the benchmark's tracer and worker reach into must keep resolving.

``perfbench/tracer.py`` patches functions by (module, attribute) and
``perfbench/worker.py`` reads the ``cache_info()`` of a few caches in traced
runs, the length of the p(n) table, the identity registry and the
``registry=`` keyword of ``verify`` and ``verify_all``; a rename in ``src/``
breaks both without failing any other test.  A name that moved to another
module stays bound where they read it, to the very object of its new home.
The worker also checks that the catalog's reports hash to the digests
``perfbench/decisions.json`` records, so a changed byte of a report fails
here before it fails a benchmark run.
The tracer and the worker are loaded from their files, read only.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path
from unittest import mock

from mexstat import arith, census, identities, mexcount, partitions, series, statistics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _load("perfbench_tracer_bindings", TRACER)


def _worker_module():
    # the worker imports the tracer as the top-level module ``tracer``
    with mock.patch.dict(sys.modules, {"tracer": _tracer_module()}):
        return _load("perfbench_worker_digests", PERFBENCH / "worker.py")


def test_every_traced_binding_resolves():
    tracer = _tracer_module()
    bindings = [(module, attr) for module, attr, *_ in tracer.FUNCTIONS + tracer.GENERATORS]
    assert bindings
    for module, attr in bindings:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for attr, *_ in tracer.METHODS:
        assert attr in vars(series.TruncatedSeries), attr


def test_the_caches_the_worker_reads_keep_cache_info():
    for fn in (
        statistics._stat_census,
        mexcount.mex_census,
        mexcount._series_row,
        series.partition_generating_series,
        series.rank_generating_series,
        series.crank_generating_series,
    ):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_each_rebound_name_is_the_object_of_its_home():
    # a pinned name that moved is bound to the object of the module that now holds it,
    # so no reader forks a second cache or class
    assert statistics._stat_census is census.stat_census
    assert mexcount.mex_census_rows is census.mex_census_rows
    assert series.TruncatedSeries is arith.TruncatedSeries
    assert series.PackedRows is arith.PackedRows


def test_the_names_the_worker_reads_outside_the_tracer_resolve():
    assert isinstance(partitions._p_table, list) and partitions._p_table[0] == 1
    assert isinstance(identities.REGISTRY, dict) and identities.REGISTRY
    for check in identities.REGISTRY.values():  # the worker times each side by replace()
        assert {"make_lhs", "make_rhs"} <= {f.name for f in dataclasses.fields(check)}
    for fn in (identities.verify, identities.verify_all):
        registry = inspect.signature(fn).parameters.get("registry")
        assert registry is not None and registry.kind != registry.POSITIONAL_ONLY, fn.__name__


def test_the_catalog_reports_hash_to_the_recorded_digests():
    worker = _worker_module()
    expected = json.loads((PERFBENCH / "decisions.json").read_text())["report_digests"]
    assert "elapsed_ms" not in worker.REPORT_KEYS
    catalog = identities.verify_all(worker.CATALOG_N_ENUM, worker.CATALOG_N_SERIES)
    assert worker.report_digest(catalog) == expected["catalog"]
    deep = [identities.verify(cid, worker.SERIES_DEEP_N) for cid in worker.SERIES_DEEP_IDS]
    assert len(deep) == 14
    assert worker.report_digest(deep) == expected["series-deep"]
