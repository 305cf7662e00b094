"""One pass of one benchmark workload, in a fresh interpreter.

Usage (``run.py`` starts it with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/worker.py --workload catalog --seed 1 [--trace-out FILE]

The caches of mexstat start cold in every pass, as they do for every
``mexstat`` invocation.  The pass times the workload, then checks every
output untimed, and prints one JSON line with the timings, the counts of
attempted and failed operations, and -- when traced -- the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mexstat import cli, identities, mexcount, partitions, series, statistics
from mexstat.statistics import MexParams
from tracer import LAYERS, Stat, Tracer

HERE = Path(__file__).resolve().parent

CATALOG_N_ENUM = 50
CATALOG_N_SERIES = 200
SERIES_DEEP_N = 1000
# the checks whose work is series arithmetic (no partition enumeration)
SERIES_DEEP_IDS = [
    "thm-2.1", "thm-2.8", "jtp-even-lemma", "thm-2.9", "thm-2.10a", "thm-2.10b",
    "thm-2.11", "pe-po-genfun", "thm-3.1", "thm-1.3", "thm-3.11-series",
    "thm-3.12-series", "thm-3.13-series", "lemma-a-gt-n",
]
REPORT_KEYS = ("id", "description", "range", "status", "failures", "notes")

# queries: a deadline for inputs that must be refused at once, and a safety
# deadline for in-budget inputs (the slowest takes well under 1 s)
REJECT_DEADLINE_S = 0.5
QUERY_DEADLINE_S = 10.0
RECURRENCE_N_MAX = 5000


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a query; a BaseException so mexstat never catches it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


# ---------------------------------------------------------------------------
# catalog and series-deep
# ---------------------------------------------------------------------------


def report_digest(reports) -> str:
    """sha256 of the reports without timings, sorted by id."""
    rows = sorted(
        ({k: r.to_json_dict()[k] for k in REPORT_KEYS} for r in reports), key=lambda d: d["id"]
    )
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def timed_registry(registry: dict, samples: dict[str, list[float]]) -> dict:
    """A copy of an identity registry whose evaluators time each call.

    One evaluation -- one side of one identity at one n -- is the point query
    of catalog; its latency in ms goes to ``samples[check id]``.
    """

    def timed(make, into: list[float]):
        def build(n_max):
            evaluate = make(n_max)

            def call(n):
                t0 = time.perf_counter()
                value = evaluate(n)
                into.append((time.perf_counter() - t0) * 1000.0)
                return value

            return call

        return build

    out = {}
    for cid, check in registry.items():
        into = samples.setdefault(cid, [])
        out[cid] = dataclasses.replace(
            check, make_lhs=timed(check.make_lhs, into), make_rhs=timed(check.make_rhs, into)
        )
    return out


def run_checks(workload: str, tracer: Tracer | None) -> dict:
    """The fixed inputs of catalog and series-deep; the seed does not change them."""
    samples: dict[str, list[float]] = {}
    registry = identities.REGISTRY
    if workload == "catalog":
        # catalog's work is in the evaluator calls, so each is timed
        registry = timed_registry(registry, samples)
    if tracer is not None:
        registry = tracer.wrap_registry(registry)
        tracer.install()
    window = [time.monotonic()]
    start = time.perf_counter()
    if workload == "catalog":
        reports = identities.verify_all(CATALOG_N_ENUM, CATALOG_N_SERIES, registry=registry)
    else:
        # series-deep's work is in the factories that build the series, and
        # its evaluator calls are coefficient lookups, so each check is timed
        reports = []
        for cid in SERIES_DEEP_IDS:
            t0 = time.perf_counter()
            reports.append(identities.verify(cid, SERIES_DEEP_N, registry=registry))
            samples[cid] = [(time.perf_counter() - t0) * 1000.0]
    wall = time.perf_counter() - start
    window.append(time.monotonic())
    snapshot = end_trace(tracer)

    errors = [f"{r.check_id}: {len(r.failures)} mismatching n" for r in reports if r.status != "pass"]
    expected = json.loads((HERE / "decisions.json").read_text())["report_digests"][workload]
    digest = report_digest(reports)
    correct = not errors and digest == expected
    if digest != expected:
        errors.append(f"report digest {digest} differs from the recorded {expected}")
    return {
        "wall_s": wall,
        "latencies_ms": [lat for r in reports if r.status == "pass" for lat in samples[r.check_id]],
        "attempted": len(reports),
        "failed": sum(r.status != "pass" for r in reports),
        "correct": correct,
        "errors": errors,
        "cli_rejected": 0,
        "snapshot": snapshot,
        "window": window,
        "deadline_s": 0.0,
    }


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def make_queries(seed: int) -> list[dict]:
    """1000 CLI queries; per-group counts are fixed, parameters come from the seed.

    n is drawn stratified over each group's range, so every seed gets the
    same spread of sizes (and of cold-cache costs) in a different order.
    """
    rng = random.Random(seed)

    def spread(count: int, lo: int, hi: int) -> list[int]:
        span = hi - lo + 1
        return [lo + int((i + rng.random()) * span / count) for i in range(count)]

    def mex_pair(A_max: int, a_max: int) -> dict:
        return {"A": rng.randint(1, A_max), "a": rng.randint(1, a_max)}

    qs: list[dict] = []
    for n in spread(210, 1, 45):  # default route: enumeration on every call
        qs.append({"group": "enum", "kind": rng.choice(["p_aa", "pbar_aa"]), "n": n, **mex_pair(10, 15)})
    for n in spread(160, 71, 1200):  # default route: series row
        qs.append({"group": "series", "kind": rng.choice(["p_aa", "pbar_aa"]), "n": n, **mex_pair(10, 15)})
    for n in spread(160, 1, RECURRENCE_N_MAX):
        qs.append({"group": "recurrence", "kind": rng.choice(["p_aa", "pbar_aa"]), "n": n,
                   "method": "recurrence", **mex_pair(6, 6)})
    for n in spread(80, 1, 20000):
        qs.append({"group": "p", "kind": "p", "n": n})
    for kind in ("spt", "goe", "N", "M", "moment"):
        lo = 1 if kind in ("spt", "goe") else 2
        for n in spread(38, lo, 45):
            q = {"group": "stat", "kind": kind, "n": n}
            if kind in ("N", "M"):
                q["m"] = rng.randint(-n, n)
            elif kind == "moment":
                q.update(stat=rng.choice(["rank", "crank"]), k=rng.randint(0, 4))
            qs.append(q)
    for n in spread(60, 2, 300):
        top = min(n, 12)
        qs.append({"group": "crank_series", "kind": "M", "n": n, "m": rng.randint(-top, top),
                   "method": "series"})
    for i in range(110):
        parts, left = [], rng.randint(1, 30)
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        q = {"group": "direct", "kind": ("mex", "rank", "crank")[i % 3], "partition": parts}
        if q["kind"] == "mex":
            q.update(mex_pair(5, 5))
        qs.append(q)
    for _ in range(25):  # over the enumeration cap: refused at once today
        n = rng.randint(71, 100)
        qs.append(rng.choice([
            {"group": "reject", "kind": rng.choice(["p_aa", "pbar_aa"]), "n": n, "method": "enum",
             **mex_pair(10, 15)},
            {"group": "reject", "kind": "spt", "n": n},
            {"group": "reject", "kind": "N", "n": n, "m": rng.randint(-5, 5)},
            {"group": "reject", "kind": "M", "n": n, "m": rng.randint(-5, 5)},
        ]))
    for _ in range(5):  # over-limit inputs that run past any deadline today
        qs.append(rng.choice([
            {"group": "hang", "kind": "goe", "n": 120},
            {"group": "hang", "kind": "moment", "stat": "rank", "k": 2, "n": 120},
            {"group": "hang", "kind": "p_aa", "n": 300000, **mex_pair(10, 15)},
        ]))
    rng.shuffle(qs)
    return qs


def argv_of(q: dict) -> list[str]:
    argv = ["compute", q["kind"], "--format", "json"]
    for key in ("A", "a", "n", "m", "k", "stat", "method"):
        if key in q:
            argv += [f"--{key}", str(q[key])]
    if "partition" in q:
        argv += ["--partition", ",".join(map(str, q["partition"]))]
    return argv


def literal_mex(parts: list[int], A: int, a: int) -> int:
    c = a
    while c in parts:
        c += A
    return c


def literal_crank(parts: list[int]) -> int:
    ones = parts.count(1)
    if ones == 0:
        return max(parts)
    return len([x for x in parts if x > ones]) - ones


class Verifier:
    """Re-derives each answer through a route independent of the one the CLI took."""

    def __init__(self, queries: list[dict]) -> None:
        self.rows: dict[tuple, tuple[int, ...]] = {}
        p_ns = [q["n"] for q in queries if q["kind"] == "p"]
        self.p_max = max(p_ns, default=0)

    def p_aa(self, q: dict) -> int:
        barred = q["kind"] == "pbar_aa"
        params = MexParams(q["A"], q["a"])
        if q.get("method") == "recurrence":
            key = (q["A"], q["a"], barred)
            if key not in self.rows:
                fn = mexcount.pbar_mex_series if barred else mexcount.p_mex_series
                self.rows[key] = fn(params, RECURRENCE_N_MAX)
            return self.rows[key][q["n"]]
        if q["n"] > RECURRENCE_N_MAX:
            raise ValueError("no independent route at this size")
        fn = mexcount.pbar_mex_recurrence if barred else mexcount.p_mex_recurrence
        return fn(params, q["n"])

    def expected(self, q: dict) -> int:
        kind, n = q["kind"], q.get("n")
        st, pc = statistics, partitions.p_count
        if kind in ("p_aa", "pbar_aa"):
            return self.p_aa(q)
        if kind == "p":
            return series.partition_generating_series(self.p_max).coeff(n)
        if kind == "spt":  # Andrews: spt(n) = n p(n) - N_2(n) / 2
            return n * pc(n) - series.second_rank_moment_series(n).coeff(n) // 2
        if kind == "goe":  # Garden of Eden = pbar_{3,3} (cor-3.4)
            return mexcount.pbar_mex_recurrence(MexParams(3, 3), n)
        if kind == "N":
            return st.rank_count(q["m"], n, "series")
        if kind == "M" and q.get("method") == "series":
            # crank >= j counts pbar_{1,j} (thm-3.6), crank is symmetric
            j = abs(q["m"])
            pbar = lambda a: mexcount.pbar_mex_recurrence(MexParams(1, a), n)
            return pc(n) - 2 * pbar(1) if j == 0 else pbar(j) - pbar(j + 1)
        if kind == "M":
            return st.crank_count(q["m"], n, "series")
        if kind == "moment" and q["stat"] == "rank":
            return sum(m ** q["k"] * st.rank_count(m, n, "series") for m in range(-n, n + 1))
        if kind == "moment":
            return st.crank_moment_enumerated(q["k"], n)
        parts = q["partition"]
        if kind == "mex":
            return literal_mex(parts, q["A"], q["a"])
        if kind == "rank":
            return max(parts) - len(parts)
        return literal_crank(parts)

    def check(self, q: dict, code: int, out: str) -> str | None:
        """None when the outcome is right, else what went wrong."""
        if code == 2 and q["group"] in ("reject", "hang"):
            return None
        if code != 0:
            return f"exit code {code}"
        got = int(json.loads(out.strip().splitlines()[-1])["value"])
        want = self.expected(q)
        return None if got == want else f"answered {got}, independent route gives {want}"


def deadline_of(q: dict) -> float:
    return REJECT_DEADLINE_S if q["group"] in ("reject", "hang") else QUERY_DEADLINE_S


def run_queries(seed: int, tracer: Tracer | None) -> dict:
    queries = make_queries(seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.install()
    outcomes = []
    window = [time.monotonic()]
    start = time.perf_counter()
    for q in queries:
        deadline = deadline_of(q)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, deadline)
                    code = cli.main(argv_of(q))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                code = "deadline"
            except Exception as exc:  # a crash is a wrong output; keep the loop going
                code = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        outcomes.append((q, code, latency, out.getvalue()))
    wall = time.perf_counter() - start
    window.append(time.monotonic())
    snapshot = end_trace(tracer)

    verifier = Verifier(queries)
    latencies, errors, failed, correct = [], [], 0, True
    for q, code, latency, out in outcomes:
        if code == "deadline":
            problem, wrong = f"ran past the {deadline_of(q)} s deadline", False
        elif isinstance(code, str):
            problem, wrong = code, True
        else:
            try:
                problem = verifier.check(q, code, out)
            except (ValueError, KeyError) as exc:
                problem = f"cannot check the answer: {exc}"
            wrong = problem is not None
        if problem is None:
            latencies.append(latency * 1000.0)
            continue
        failed += 1
        correct = correct and not wrong
        errors.append(f"{' '.join(argv_of(q))}: {problem}")
    return {
        "wall_s": wall,
        "latencies_ms": latencies,
        "attempted": len(queries),
        "failed": failed,
        "correct": correct,
        "errors": errors,
        "cli_rejected": sum(code == 2 for _, code, _, _ in outcomes),
        "snapshot": snapshot,
        "window": window,
        # wall time the deadline timer set, not the host's speed
        "deadline_s": sum(lat for _, code, lat, _ in outcomes if code == "deadline"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass
# ---------------------------------------------------------------------------

COUNTED = [
    "mexcount.census", "mexcount.recurrence", "mexcount.series_row",
    "partitions.p_count", "partitions.count_parts_restricted",
    "statistics.enumerated", "statistics.series_backed",
    "series.mul", "series.invert", "series.theta", "series.products", "series.genfun",
]


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of the program's lru caches, read without touching src/."""
    def hm(*fns):
        infos = [fn.cache_info() for fn in fns]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    return {
        "mexcount.census": hm(mexcount.mex_census),
        "mexcount.series_row": hm(mexcount._series_row),
        "statistics.census": hm(statistics._stat_census),
        "series.genfun": hm(
            series.partition_generating_series,
            series.rank_generating_series,
            series.crank_generating_series,
        ),
    }


def end_trace(tracer: Tracer | None) -> tuple[dict, int] | None:
    """Unpatch, then read the cache counters and p(n) table length before any
    untimed checking work can move them."""
    if tracer is None:
        return None
    tracer.restore()
    return cache_counts(), len(partitions._p_table)


def layer_metrics(tracer: Tracer, wall: float, caches: dict, p_table_len: int, cli_rejected: int) -> dict:
    stats = tracer.stats
    get = lambda label: stats.get(label, Stat())
    m: dict[str, float] = {}
    for cid in identities.REGISTRY:
        m[f"identities.check.{cid}.s"] = get(f"identities.check.{cid}").total_s
    m["identities.build_s"] = get("identities.build").total_s
    m["identities.eval_s"] = get("identities.eval").total_s
    for label in COUNTED:
        m[f"{label}.calls"] = get(label).calls
        m[f"{label}.self_s"] = get(label).self_s
    m["series.mul.coeff_products"] = get("series.mul").work
    m["series.invert.coeff_products"] = get("series.invert").work
    m["partitions.visited"] = get("partitions.enumerate").work
    m["partitions.p_table_len"] = p_table_len
    for name, (hits, misses) in caches.items():
        m[f"{name}.hits"] = hits
        m[f"{name}.misses"] = misses
        m[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["cli.parse_s"] = get("cli.parse").total_s
    m["cli.calls"] = get("cli.main").calls
    m["cli.rejected"] = cli_rejected
    layers = tracer.layer_self_s()
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layers[layer]
    m["trace.traced_wall_s"] = wall
    m["trace.coverage"] = sum(layers.values()) / wall
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["catalog", "series-deep", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", type=Path, help="trace the pass and write its spans here")
    args = ap.parse_args()

    tracer = Tracer() if args.trace_out else None
    if args.workload == "queries":
        result = run_queries(args.seed, tracer)
    else:
        result = run_checks(args.workload, tracer)
    snapshot = result.pop("snapshot")
    if tracer is not None:
        caches, table_len = snapshot
        result["layers"] = layer_metrics(tracer, result["wall_s"], caches, table_len, result["cli_rejected"])
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace_out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans_as_dicts(),
                       "stats": {k: {f: getattr(v, f) for f in Stat.__slots__}
                                 for k, v in tracer.stats.items()}}, fh)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
