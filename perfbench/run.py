"""The mexstat benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Load on mexstat comes from one process with no threads.  Each pass of a
workload runs in a fresh interpreter (``worker.py``), one after another, so
the caches of mexstat start cold as they do for every ``mexstat``
invocation.  Passes repeat until the measured time comes closest to
``--seconds`` (at least ``MIN_PASSES``), and each timing is the median over
passes.  ``setup_s`` is the median time from starting a fresh interpreter to
``import mexstat.cli`` done.

Every end-to-end timing is adjusted to a reference host speed.  While a
child process runs, this process -- otherwise idle, waiting for it -- runs
the fixed probe of ``probe.py`` every few milliseconds, and each pass's
timings are multiplied by the speed factor of the probes in its timed
window.  The unadjusted medians are printed on their own line.

With ``--trace 1`` the run makes one untraced and one traced pass of the
same inputs and reports the per-layer metrics of the traced one, with the
tracing overhead (traced wall time minus untraced wall time).  The spans
are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit and sample count.  The exit code is 1 when
an output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("catalog", "series-deep", "queries")
MIN_PASSES = {"catalog": 2, "series-deep": 3, "queries": 2}
SETUP_STARTS = 15
PROBE_GAP_S = 0.005  # between probes while a child runs
# a run must end within 180 s; no pass is started that would likely end past this
PASS_BUDGET_S = 140.0
WORKER_TIMEOUT_S = 170.0
MAX_ERRORS_SHOWN = 10


class BenchmarkError(Exception):
    """The benchmark itself could not run (missing sources, a worker crashed)."""


def worker_env() -> dict[str, str]:
    src = ROOT / "src"
    if not (src / "mexstat" / "__init__.py").is_file():
        raise BenchmarkError(f"mexstat sources not found under {src}")
    return dict(os.environ, PYTHONPATH=str(src))


def run_probed(cmd: list[str], env: dict[str, str], timeout: float, probe: SpeedProbe) -> tuple[int, str, str]:
    """Run ``cmd`` to its end, probing the host's speed from this process
    meanwhile.  Returns the exit code, standard output and standard error."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        try:
            limit = time.monotonic() + timeout
            while proc.poll() is None:
                if time.monotonic() > limit:
                    raise subprocess.TimeoutExpired(cmd, timeout)
                probe.run()
                time.sleep(PROBE_GAP_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode()


def measure_setup(env: dict[str, str]) -> tuple[list[float], float]:
    """Seconds from starting a fresh interpreter to ``import mexstat.cli`` done,
    and the host speed factor while the interpreters ran."""
    code = "import mexstat.cli, time; print(time.monotonic())"
    times = []
    probe = SpeedProbe()
    for i in range(SETUP_STARTS + 1):
        t0 = time.monotonic()
        code_, out, err = run_probed([sys.executable, "-c", code], env, 60, probe)
        if code_ != 0:
            raise BenchmarkError(f"import mexstat.cli failed: {err.strip()}")
        if i:  # the first start also writes the bytecode caches
            times.append(float(out.split()[-1]) - t0)
        else:
            probe.samples.clear()
    return times, probe.speed_factor()


def run_pass(env: dict[str, str], workload: str, seed: int, trace_out: Path | None) -> dict:
    """One pass in a fresh worker; its ``speed_factor`` is the host speed in its timed window."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    probe = SpeedProbe()
    code, out, err = run_probed(cmd, env, WORKER_TIMEOUT_S, probe)
    if code != 0:
        raise BenchmarkError(f"{workload} pass failed:\n{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["speed_factor"] = probe.speed_factor(*result["window"])
    return result


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, setup: tuple[list[float], float], passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Each metric as (value, sample-count description).

    Times are at the reference host speed: each pass's timings are multiplied
    by the speed factor of the probes run during it, except the wall time that
    query deadlines set, which the timer fixes and the host speed does not.
    """
    med = statistics.median
    n = len(passes)
    samples = [len(p["latencies_ms"]) for p in passes]
    ok = sum(p["attempted"] - p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    ops = "checks" if workload != "queries" else "queries"
    timed = {"catalog": "evaluator calls of passing checks"}.get(workload, f"passing {ops}")
    factors = [p["speed_factor"] for p in passes]
    per_pass = f"median over {n} passes of {min(samples)}-{max(samples)} {timed} each"
    host = f"host speed factor {min(factors):.3f}-{max(factors):.3f}"
    starts, setup_factor = setup

    def wall(p: dict) -> float:
        return (p["wall_s"] - p["deadline_s"]) * p["speed_factor"] + p["deadline_s"]

    def at_reference(stat) -> float:
        return med(stat(p["latencies_ms"]) * p["speed_factor"] for p in passes)

    return {
        "setup_s": (
            med(starts) * setup_factor,
            f"median of {len(starts)} interpreter starts, host speed factor {setup_factor:.3f}",
        ),
        "wall_s": (med(wall(p) for p in passes), f"median of {n} passes, {host}"),
        "queries_per_s": (1.0 / at_reference(lambda lat: sum(lat) / 1000.0 / len(lat)), f"{per_pass}, {host}"),
        "query_p50_ms": (at_reference(med), f"{per_pass}, {host}"),
        "query_p99_ms": (at_reference(lambda lat: percentile(lat, 99)), f"{per_pass}, {host}"),
        "peak_rss_mib": (med(p["peak_rss_mib"] for p in passes), f"median of {n} passes"),
        "ok_ratio": (ok / attempted, f"{ok} of {attempted} {ops} over {n} passes"),
    }


def unadjusted(setup: tuple[list[float], float], passes: list[dict]) -> dict[str, float]:
    """The timings as the clock read them, before the host speed adjustment."""
    med = statistics.median
    return {
        "setup_s": med(setup[0]),
        "wall_s": med(p["wall_s"] for p in passes),
        "query_p50_ms": med(med(p["latencies_ms"]) for p in passes),
        "query_p99_ms": med(percentile(p["latencies_ms"], 99) for p in passes),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, units: dict[str, str]) -> dict:
    env = worker_env()
    if trace:
        untraced = run_pass(env, workload, seed, None)
        traced = run_pass(env, workload, seed, OUT / f"trace-{workload}-seed{seed}.json")
        passes = [untraced, traced]
        metrics = dict(traced["layers"])
        metrics["trace.untraced_wall_s"] = untraced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        described = {k: (v, "traced pass") for k, v in metrics.items()}
        shares = ", ".join(
            f"{layer} {100.0 * metrics[f'layer.{layer}.self_s'] / traced['wall_s']:.1f}%"
            for layer in ("cli", "identities", "mexcount", "partitions", "statistics", "series")
        )
        print(f"[{workload}] self time by layer: {shares}")
    else:
        setup = measure_setup(env)
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(env, workload, seed, None))
            elapsed = time.monotonic() - start
            per_pass = elapsed / len(passes)
            # stop where the measured time comes closest to --seconds
            done = elapsed + per_pass / 2 >= seconds and len(passes) >= MIN_PASSES[workload]
            if done or elapsed + per_pass > PASS_BUDGET_S:
                break
        described = end_to_end(workload, setup, passes)
        metrics = {k: v for k, (v, _) in described.items()}
        raw = ", ".join(f"{k} {v:.6g}" for k, v in unadjusted(setup, passes).items())
        print(f"[{workload}] unadjusted: {raw}")
    for name, (value, count) in described.items():
        print(f"[{workload}] {name} = {value:.6g} {units[name]} ({count})")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"[{workload}] failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:MAX_ERRORS_SHOWN]:
        print(f"[{workload}] failed: {e}")
    return {
        "correct": all(p["correct"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace), units) for w in workloads
        }
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for w, r in results.items():
        if set(r["metrics"]) != set(units):
            print(f"benchmark error: {w} metrics differ from BENCHMARK.json", file=sys.stderr)
            return 2

    def prefixed(w: str, name: str) -> str:
        return name if len(workloads) == 1 else f"{w}.{name}"

    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            prefixed(w, name): {"value": value, "unit": units[name]}
            for w, r in results.items()
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
