"""Benchmark of hankel_recover through its public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_n64 --seed 1 --seconds 45 --trace 0

Each workload is a closed loop in this one process: the next call into the
package starts when the previous one returns, until ``--seconds`` have
passed.  Results that must not depend on speed (success_rate) come from
the workload's reference block of calls, which always runs.  Every call
is checked; a trial that raises or fails a check is a failed operation and
makes the command exit 1.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See NOTES.md for what each metric and workload means.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from tracer import RESULT_SPANS, SPAN_NAMES, Tracer  # noqa: E402

FULL_GRID_TRIALS = 3 * 127 * 100  # phase-transition --full: R = 1..3, M = 1..127, 100 trials
SUCCESS_THRESHOLD = 1e-3
CSV_HEADER = "N,R,M,trials,threshold,success_rate"
NORM_CSV_HEADER = "N,trials,mean_norm,stderr"
SETUP_REPEATS = 5
MISSING = -1.0  # value of a per-layer metric whose span was never entered

# Mean and sample standard deviation of the top singular value of lift(g),
# from run_norm_scan at the seed commit: 4 x 1000 samples, rng_seed 0..3.
# N = 8 serves the self-test.
NORM_REFERENCE = {8: (3.35434, 0.51259), 256: (5.13627, 0.32963)}
NORM_TOLERANCE_SIGMAS = 6.0


@dataclass(frozen=True)
class Grid:
    """One ``run_phase_transition`` call; cells with ``M >= sure_m`` must all succeed."""

    n: int
    r_values: tuple
    m_values: tuple
    trials: int
    sure_m: int

    @property
    def size(self) -> int:
        return len(self.r_values) * len(self.m_values) * self.trials


@dataclass(frozen=True)
class NormScan:
    """One ``norm-scan --n <n> --trials <trials>`` command through ``cli.main``."""

    n: int
    trials: int

    @property
    def size(self) -> int:
        return self.trials


@dataclass(frozen=True)
class Workload:
    name: str
    spec: object
    ref_calls: int  # calls whose results are fixed by the seed alone
    warmup: str  # tiny call a fresh process makes before it counts as set up


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid_n64",
            # Midpoints of 16 equal strata of M = 1..127.  M >= 28 always
            # succeeds; at M = 24, R = 3 about one seed in 40 fails.
            Grid(64, (1, 2, 3), tuple(range(4, 128, 8)), trials=1, sure_m=28),
            ref_calls=3,
            warmup="hankel_recover.run_phase_transition(4, [1], [7], 1)",
        ),
        Workload(
            "norm_scan_n256",
            NormScan(256, 30),
            ref_calls=1,
            warmup="hankel_recover.cli.main(['norm-scan', '--n', '4', '--trials', '30', '--out', OUT])",
        ),
    )
}


@dataclass
class Call:
    """Outcome of one checked call into the package."""

    trials: int
    wall: float = 0.0
    successes: int = 0
    failed: int = 0
    mean: float | None = None  # norm scan: the call's mean spectral norm


def call_seed(workload: str, seed: int, k: int) -> int:
    """Seed of the k-th call of a run; a function of (workload, seed, k) only."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{k}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") >> 1


def load_program():
    """Import hankel_recover from this checkout's ``src``, never from elsewhere."""
    init = SRC / "hankel_recover" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} is missing; run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import hankel_recover
    import hankel_recover.cli

    if Path(hankel_recover.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {hankel_recover.__file__}, expected {init}")
    os.environ.pop(hankel_recover.harness.THREADS_ENV_VAR, None)  # keep the default pool size
    return hankel_recover


def run_grid(api, spec: Grid, seed: int, tmp: Path) -> Call:
    start = time.perf_counter()
    grid = api.run_phase_transition(spec.n, spec.r_values, spec.m_values, spec.trials, base_seed=seed)
    call = Call(spec.size, time.perf_counter() - start)

    path = tmp / "grid.csv"
    api.emit_csv(grid, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = [(r, m) for r in sorted(spec.r_values) for m in sorted(spec.m_values)]
    rows = [line.rsplit(",", 2) for line in lines[1:]]
    if (
        lines[:1] != [CSV_HEADER]
        or [row[0] for row in rows] != [f"{spec.n},{r},{m},{spec.trials}" for r, m in cells]
        or any(float(row[1]) != SUCCESS_THRESHOLD for row in rows)
    ):
        print(f"perfbench: bad CSV from emit_csv for base_seed {seed}", file=sys.stderr)
        call.failed = call.trials
        return call
    for (r, m), row in zip(cells, rows):
        ok = round(float(row[2]) * spec.trials)
        call.successes += ok
        if m >= spec.sure_m and ok < spec.trials:
            print(f"perfbench: base_seed {seed}, R={r}, M={m} above the transition failed", file=sys.stderr)
            call.failed += spec.trials - ok
    return call


def run_norm_scan(api, spec: NormScan, seed: int, tmp: Path) -> Call:
    out = tmp / "norm_scan.csv"
    argv = ["norm-scan", "--n", str(spec.n), "--trials", str(spec.trials), "--seed", str(seed), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = api.cli.main(argv)
        call = Call(spec.trials, time.perf_counter() - start)

    lines = out.read_text(encoding="utf-8").splitlines()
    row = lines[1].split(",") if len(lines) == 2 else []
    if code != 0 or lines[0] != NORM_CSV_HEADER or row[:2] != [str(spec.n), str(spec.trials)]:
        print(f"perfbench: norm-scan --seed {seed} exited {code} with {lines!r}", file=sys.stderr)
        call.failed = call.trials
        return call
    mean, stderr = float(row[2]), float(row[3])
    if not (math.isfinite(mean) and mean > 0 and math.isfinite(stderr) and stderr > 0):
        print(f"perfbench: norm-scan --seed {seed} gave mean {mean}, stderr {stderr}", file=sys.stderr)
        call.failed = call.trials
    else:
        call.successes = call.trials
    call.mean = mean
    return call


RUNNERS = {Grid: run_grid, NormScan: run_norm_scan}


def checked_call(api, workload: Workload, seed: int, k: int, tmp: Path) -> Call:
    spec = workload.spec
    try:
        return RUNNERS[type(spec)](api, spec, call_seed(workload.name, seed, k), tmp)
    except Exception:  # a call that raises is a failed operation; keep measuring
        traceback.print_exc()
        return Call(spec.size, failed=spec.size)


def closed_loop(api, workload, seed, tmp, seconds=0.0, min_calls=1, max_calls=None) -> list[Call]:
    """Run calls back to back: at least ``min_calls``, then more while one
    more, at the mean call time so far, fits in ``seconds``."""
    results = []
    start = time.perf_counter()
    while len(results) != max_calls:
        k = len(results)
        if k >= min_calls and (time.perf_counter() - start) * (k + 1) / k > seconds:
            break
        results.append(checked_call(api, workload, seed, k, tmp))
    return results


def check_run(workload: Workload, calls: list[Call]) -> None:
    """Checks over a whole run; a failure marks every trial of the run failed."""
    if not isinstance(workload.spec, NormScan) or any(c.failed for c in calls):
        return
    ref_mean, ref_sd = NORM_REFERENCE[workload.spec.n]
    samples = sum(c.trials for c in calls)
    mean = sum(c.mean * c.trials for c in calls) / samples
    tolerance = NORM_TOLERANCE_SIGMAS * ref_sd * math.sqrt(1 / samples + 1 / 4000)
    if abs(mean - ref_mean) > tolerance:
        print(
            f"perfbench: mean spectral norm {mean:.6f} over {samples} samples differs from "
            f"the reference {ref_mean:.6f} by more than {tolerance:.6f}",
            file=sys.stderr,
        )
        for c in calls:
            c.failed = c.trials


def measure_setup(workload: Workload, tmp: Path, repeats: int) -> float:
    """Median wall time from spawning a fresh interpreter until it has
    imported hankel_recover and made the workload's warm-up call."""
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"OUT = {str(tmp / 'warmup.out')!r}\n"
        "import hankel_recover, hankel_recover.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {workload.warmup}\n"
        "print('ready', flush=True)\n"
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up process exited {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def percentile_report(values: list[float]) -> dict:
    """Median and the highest percentile that has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    report = {"samples": n, "p50": statistics.median(ordered) if ordered else None}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        report[f"p{pct}"] = ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]
    return report


def end_to_end(api, workload, seed, seconds, tmp, setup_repeats):
    calls = closed_loop(api, workload, seed, tmp, seconds, min_calls=workload.ref_calls)
    check_run(workload, calls)
    setup_s = measure_setup(workload, tmp, setup_repeats)
    trials = sum(c.trials for c in calls)
    wall = sum(c.wall for c in calls)
    ref = calls[: workload.ref_calls]
    per_trial_ms = [1e3 * c.wall / c.trials for c in calls]
    rate = trials / wall
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (rate, "1/s"),
        "trial_p50_ms": (statistics.median(per_trial_ms), "ms"),
        "full_grid_h": (FULL_GRID_TRIALS / rate / 3600, "h"),
        "success_rate": (sum(c.successes for c in ref) / sum(c.trials for c in ref), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {"calls": len(calls), "trials": trials, "call_wall_s": wall, "trial_ms": percentile_report(per_trial_ms)}
    return calls, metrics, report


def per_layer(api, workload, seed, seconds, tmp):
    """An untraced pass for half the time, then the same calls traced."""
    with Tracer(RESULT_SPANS) as plain:
        first = closed_loop(api, workload, seed, tmp, seconds / 2)
    with Tracer() as traced:
        second = closed_loop(api, workload, seed, tmp, min_calls=len(first), max_calls=len(first))
    for calls in (first, second):
        check_run(workload, calls)

    mismatched = [
        k for k, (a, b) in enumerate(zip(first, second)) if (a.successes, a.failed) != (b.successes, b.failed)
    ]
    if sorted(plain.solves) != sorted(traced.solves) or sorted(plain.outcomes) != sorted(traced.outcomes):
        mismatched = list(range(len(first)))
    for k in mismatched:
        print(f"perfbench: call {k} gave other results when traced", file=sys.stderr)
        second[k].failed = second[k].trials

    metrics = {}
    for name, (count, self_s, per_call_us) in traced.layer_table().items():
        metrics[f"{name}.calls"] = (count, "count")
        metrics[f"{name}.self_s"] = (self_s if count else MISSING, "s")
        metrics[f"{name}.per_call_us"] = (per_call_us if count else MISSING, "us")
    solves = traced.solves
    iterations = [it for it, _ in solves]
    outcomes = traced.outcomes
    metrics["solver.iterations_per_solve.mean"] = (statistics.fmean(iterations) if solves else MISSING, "count")
    metrics["solver.iterations_per_solve.max"] = (max(iterations) if solves else MISSING, "count")
    metrics["solver.cap_hit_fraction"] = (
        sum(not conv for _, conv in solves) / len(solves) if solves else MISSING, "fraction"
    )
    metrics["solver.converged_unsuccessful_fraction"] = (
        sum(conv and not ok for conv, ok in outcomes) / len(outcomes) if outcomes else MISSING, "fraction"
    )
    pool = traced.parallel_efficiency()
    metrics["harness.pool_workers"] = (pool[0] if pool else MISSING, "count")
    metrics["harness.parallel_efficiency"] = (pool[1] if pool else MISSING, "fraction")
    wall_plain = sum(c.wall for c in first)
    wall_traced = sum(c.wall for c in second)
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    report = {
        "calls": len(first),
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "iterations_total": [sum(it for it, _ in plain.solves), sum(iterations)],
        "cap_hits": [sum(not c for _, c in plain.solves), sum(not c for _, c in solves)],
        "success_rate": [
            sum(c.successes for c in calls) / sum(c.trials for c in calls) for calls in (first, second)
        ],
        "missing": [name for name in SPAN_NAMES if metrics[f"{name}.calls"][0] == 0],
    }
    return first + second, metrics, report


def environment(api, seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Look for a repository at the checkout root only, never above it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hankel_recover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "worker_count": api.harness.worker_count(),
        "cpu_model": cpu_model or platform.processor() or None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_program()
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.trace:
            calls, metrics, report = per_layer(api, workload, args.seed, args.seconds, tmp)
        else:
            calls, metrics, report = end_to_end(api, workload, args.seed, args.seconds, tmp, SETUP_REPEATS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    attempted = sum(c.trials for c in calls)
    failed = sum(c.failed for c in calls)
    print(json.dumps({"environment": environment(api, args.seed)}))
    print(json.dumps({"workload": workload.name, "report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
