"""Out-of-tree tracer for mexstat: wraps the public functions of each layer.

Nothing under ``src/`` is changed.  :meth:`Tracer.install` replaces every
binding a caller can reach -- the defining module's attribute, each
``from ... import`` copy in the other ``mexstat`` modules, and the
``TruncatedSeries`` arithmetic methods -- and :meth:`Tracer.restore` puts the
originals back.

Every wrapped call is a frame on one stack (the benchmark is single
threaded).  A frame's self time is its duration minus the time its child
frames cover; the child durations are added to the parent when they end.
Calls of moderate frequency also record a span (name, start, end, parent,
trace id) kept in memory; the hot leaf functions -- ``p_count`` is called
~456k times in one catalog pass -- only update aggregated counters
(calls, total time, self time, computed work).  Partition generators are
counted, not timed: the time to produce a partition stays with the frame
that consumes it.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from itertools import compress, count
from operator import itemgetter
from typing import Callable

LAYERS = ("cli", "identities", "mexcount", "partitions", "statistics", "series")


def _method(pos: int, default: str) -> Callable[[tuple, dict], str]:
    """Label chooser for statistics functions that take a ``method`` argument."""

    def pick(args: tuple, kwargs: dict) -> str:
        method = kwargs.get("method", args[pos] if len(args) > pos else default)
        return "statistics.series_backed" if method == "series" else "statistics.enumerated"

    return pick


def _check_label(args: tuple, kwargs: dict) -> str:
    return f"identities.check.{args[0]}"


def _mul_products(args: tuple, kwargs: dict) -> int:
    # Inner-loop iterations of the schoolbook multiply: for each nonzero a_i,
    # P+1-i candidate partners.  Computed from operands, not counted in the loop.
    a, b = args
    if isinstance(b, int):
        return a.precision + 1
    p = min(a.precision, b.precision)
    return sum(compress(range(p + 1, 0, -1), a.coeffs[: p + 1]))


def _invert_products(args: tuple, kwargs: dict) -> int:
    # Row m of the inversion visits every nonzero a_k with 1 <= k <= m.
    a = args[0]
    p = a.precision
    return sum(compress(range(p, 0, -1), a.coeffs[1:]))


#: (module, attribute, label or label chooser, records spans)
FUNCTIONS = [
    ("mexstat.cli", "main", "cli.main", True),
    ("mexstat.identities", "verify", _check_label, True),
    ("mexstat.mexcount", "mex_census", "mexcount.census", True),
    ("mexstat.mexcount", "p_mex_enum", "mexcount.census", True),
    ("mexstat.mexcount", "pbar_mex_enum", "mexcount.census", True),
    ("mexstat.mexcount", "p_mex_series", "mexcount.series_row", True),
    ("mexstat.mexcount", "pbar_mex_series", "mexcount.series_row", True),
    ("mexstat.mexcount", "p_mex_recurrence", "mexcount.recurrence", False),
    ("mexstat.mexcount", "pbar_mex_recurrence", "mexcount.recurrence", False),
    ("mexstat.partitions", "p_count", "partitions.p_count", False),
    ("mexstat.partitions", "count_parts_restricted", "partitions.count_parts_restricted", False),
    ("mexstat.partitions", "as_partition", "partitions.other", False),
    ("mexstat.partitions", "parts_parity_counts", "partitions.other", False),
    ("mexstat.partitions", "p_even_parts", "partitions.other", False),
    ("mexstat.partitions", "p_odd_parts", "partitions.other", False),
    ("mexstat.statistics", "rank_histogram", "statistics.enumerated", True),
    ("mexstat.statistics", "crank_histogram", "statistics.enumerated", True),
    ("mexstat.statistics", "rank_count", _method(2, "combinatorial"), True),
    ("mexstat.statistics", "crank_count", _method(2, "combinatorial"), True),
    ("mexstat.statistics", "rank_count_at_least", "statistics.enumerated", True),
    ("mexstat.statistics", "rank_count_below", "statistics.enumerated", True),
    ("mexstat.statistics", "crank_count_at_least", _method(2, "series"), True),
    ("mexstat.statistics", "crank_count_below", _method(2, "series"), True),
    ("mexstat.statistics", "rank_moment", "statistics.enumerated", True),
    ("mexstat.statistics", "crank_moment", "statistics.series_backed", True),
    ("mexstat.statistics", "crank_moment_enumerated", "statistics.enumerated", True),
    ("mexstat.statistics", "spt_direct", "statistics.enumerated", True),
    ("mexstat.statistics", "goe_count", "statistics.enumerated", True),
    ("mexstat.statistics", "mex", "statistics.direct", False),
    ("mexstat.statistics", "rank", "statistics.direct", False),
    ("mexstat.statistics", "crank", "statistics.direct", False),
    ("mexstat.series", "alternating_theta", "series.theta", False),
    ("mexstat.series", "alternating_theta_bilateral", "series.theta", False),
    ("mexstat.series", "euler_product", "series.products", False),
    ("mexstat.series", "pochhammer_finite", "series.products", False),
    ("mexstat.series", "residue_product", "series.products", False),
    ("mexstat.series", "jtp_specialized", "series.products", False),
    ("mexstat.series", "cauchy_sum_specialized", "series.products", False),
    ("mexstat.series", "parts_parity_series", "series.products", False),
    ("mexstat.series", "partition_generating_series", "series.genfun", False),
    ("mexstat.series", "rank_generating_series", "series.genfun", False),
    ("mexstat.series", "crank_generating_series", "series.genfun", False),
    ("mexstat.series", "second_rank_moment_series", "series.genfun", False),
    ("mexstat.series", "second_crank_moment_series", "series.genfun", False),
]

#: TruncatedSeries methods: (attribute, label, work counter)
METHODS = [
    ("__mul__", "series.mul", _mul_products),
    ("__rmul__", "series.mul", _mul_products),
    ("invert", "series.invert", _invert_products),
    ("__add__", "series.other", None),
    ("__sub__", "series.other", None),
    ("__neg__", "series.other", None),
]

#: Generators whose items are counted (partitions visited).
GENERATORS = [
    ("mexstat.partitions", "ascending_partitions", "partitions.enumerate"),
    ("mexstat.partitions", "enumerate_partitions", "partitions.enumerate"),
]


class Stat:
    """Aggregated counters of one label."""

    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Frame stack, spans and per-label counters for wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # open frames: [time covered by children, id of the enclosing span]
        self.stack: list[list] = []
        # (span id, parent span id or None, trace id, name, start, end, self seconds)
        self.spans: list[tuple] = []
        self.stats: dict[str, Stat] = {}
        self._next_span = 0
        self._next_trace = 0
        self._patches: list[tuple[object, str, object]] = []
        self._counters: list[tuple[str, count]] = []

    def _stat(self, label: str) -> Stat:
        st = self.stats.get(label)
        if st is None:
            st = self.stats[label] = Stat()
        return st

    def wrap(
        self,
        fn: Callable,
        label: str | Callable[[tuple, dict], str],
        span: bool = False,
        work: Callable[[tuple, dict], int] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records a frame (and a span if asked)."""
        tracer = self
        clock = self.clock
        stack = self.stack

        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            st = tracer._stat(name)
            parent = stack[-1][1] if stack else None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
                if not stack:
                    tracer._next_trace += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if work is not None:  # completed calls only: a deadline can cut one short
                    st.work += work(args, kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                st.calls += 1
                st.total_s += duration
                st.self_s += self_s
                if span:
                    tracer.spans.append(
                        (span_id, parent, tracer._next_trace, name, start, end, self_s)
                    )

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, label: str) -> Callable:
        """A wrapper that counts the items of the iterator ``fn`` returns.

        The items pass through C-level ``zip``/``map``, so counting adds no
        Python frame per item; the time to produce them stays in the self
        time of the frame that consumes them.
        """
        tracer = self
        first = itemgetter(0)

        def traced(*args, **kwargs):
            tracer._stat(label).calls += 1
            counter = count()
            tracer._counters.append((label, counter))
            return map(first, zip(fn(*args, **kwargs), counter))

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _patch(self, obj: object, attr: str, new: object) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _patch_everywhere(self, orig: object, new: object) -> None:
        """Rebind every ``mexstat`` module attribute that holds ``orig``."""
        mods = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "mexstat"]
        for m in mods:
            for key in [k for k, v in vars(m).items() if v is orig]:
                self._patch(m, key, new)

    def install(self) -> None:
        """Wrap every traced function at every binding that callers use."""
        from mexstat import cli, series

        for module, attr, label, span in FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(orig, self.wrap(orig, label, span))
        for module, attr, label in GENERATORS:
            orig = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(orig, self.wrap_generator(orig, label))
        cls = series.TruncatedSeries
        for attr, label, work in METHODS:
            self._patch(cls, attr, self.wrap(vars(cls)[attr], label, False, work))

        # parsing is build_parser plus parse_args on the parser it returns
        build = cli.build_parser

        def build_traced():
            parser = build()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse", True)
            return parser

        self._patch(cli, "build_parser", self.wrap(build_traced, "cli.parse", True))

    def restore(self) -> None:
        """Put back every binding that :meth:`install` replaced."""
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)
        for label, counter in self._counters:
            self._stat(label).work += int(repr(counter)[len("count("):-1])
        self._counters.clear()

    def wrap_registry(self, registry: dict) -> dict:
        """A copy of an identity registry whose factories and evaluators are traced."""

        def factory(make):
            def build(n_max):
                return self.wrap(make(n_max), "identities.eval", True)

            return self.wrap(build, "identities.build", True)

        return {
            cid: dataclasses.replace(
                check, make_lhs=factory(check.make_lhs), make_rhs=factory(check.make_rhs)
            )
            for cid, check in registry.items()
        }

    # -- summaries ------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer: the sum over the labels of that layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".")[0]] += st.self_s
        return out

    def spans_as_dicts(self) -> list[dict]:
        keys = ("id", "parent", "trace", "name", "start", "end", "self_s")
        return [dict(zip(keys, s)) for s in self.spans]
