"""Experiment engine: phase-transition grids over (R, M), Monte-Carlo scans of
the lifted-Gaussian spectral norm, stable per-trial seeding, and CSV output."""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hankel import HankelLift, lift
from .measurement import measure, sample_ensemble
from .modal import random_instance, synthesize
from .solver import SolverConfig, solve, success

__all__ = [
    "NormScan",
    "PhaseGrid",
    "THREADS_ENV_VAR",
    "derive_seed",
    "emit_csv",
    "run_norm_scan",
    "run_phase_transition",
    "worker_count",
]

THREADS_ENV_VAR = "HANKEL_RECOVER_THREADS"


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from a base seed and a label path.

    Platform-independent, so any grid cell or single trial can be re-run in
    isolation and reproduce its random stream exactly.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(base_seed).to_bytes(16, "little", signed=True))
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        else:
            h.update(int(part).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def worker_count() -> int:
    """Worker pool size: HANKEL_RECOVER_THREADS if set, else cpu_count."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Success rates over (R, M) cells; success_rate[i, j] pairs
    r_values[i] with m_values[j]."""

    n: int
    r_values: tuple[int, ...]
    m_values: tuple[int, ...]
    trials: int
    threshold: float
    base_seed: int
    success_rate: np.ndarray

    def __post_init__(self):
        rate = np.asarray(self.success_rate, dtype=float)
        rate.setflags(write=False)
        object.__setattr__(self, "success_rate", rate)


@dataclass(frozen=True, eq=False)
class NormScan:
    """Per-N mean and standard error of the lifted-Gaussian spectral norm."""

    n_values: tuple[int, ...]
    trials: int
    means: np.ndarray
    stderrs: np.ndarray
    seed: int


def _phase_trial(n, r, m, trial, base_seed, threshold, family, lift_ctx, cfg) -> bool:
    sig = random_instance(n, r, family, derive_seed(base_seed, "signal", r, m, trial))
    x_true = synthesize(sig)
    ens = sample_ensemble(m, n, derive_seed(base_seed, "ensemble", r, m, trial))
    obs = measure(ens, x_true)
    return success(solve(ens, obs, lift_ctx, cfg), x_true, threshold)


def run_phase_transition(
    n: int,
    r_values,
    m_values,
    trials: int,
    threshold: float = 1e-3,
    base_seed: int = 0,
    family: str = "sinusoid",
    config: SolverConfig | None = None,
    workers: int | None = None,
) -> PhaseGrid:
    """Noise-free success-rate table: ``trials`` independent recoveries per cell.

    Per-trial seeds derive from (base_seed, R, M, trial), and outcomes are
    reduced in fixed (R, M, trial) order, so the result is identical for any
    worker pool size.
    """
    n = int(n)
    r_values = tuple(int(r) for r in r_values)
    m_values = tuple(int(m) for m in m_values)
    trials = int(trials)
    lift_ctx = HankelLift(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    for m in m_values:
        if not 1 <= m <= lift_ctx.ambient_len:
            raise ValueError(f"m must satisfy 1 <= m <= 2N-1 = {lift_ctx.ambient_len}, got {m}")
    for r in r_values:
        if not 1 <= r < lift_ctx.ambient_len:
            raise ValueError(f"r must satisfy 1 <= r < 2N-1 = {lift_ctx.ambient_len}, got {r}")
    cfg = config if config is not None else SolverConfig()

    jobs = [
        (i, j, t)
        for i in range(len(r_values))
        for j in range(len(m_values))
        for t in range(trials)
    ]

    def one(job) -> bool:
        i, j, t = job
        return _phase_trial(
            n, r_values[i], m_values[j], t, base_seed, threshold, family, lift_ctx, cfg
        )

    pool_size = min(workers if workers is not None else worker_count(), max(1, len(jobs)))
    if pool_size > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(one, jobs))
    else:
        outcomes = [one(job) for job in jobs]

    counts = np.zeros((len(r_values), len(m_values)))
    for (i, j, _), ok in zip(jobs, outcomes):
        if ok:
            counts[i, j] += 1.0
    return PhaseGrid(
        n=n,
        r_values=r_values,
        m_values=m_values,
        trials=trials,
        threshold=float(threshold),
        base_seed=int(base_seed),
        success_rate=counts / trials,
    )


def run_norm_scan(n_values, trials: int, rng_seed: int = 0) -> NormScan:
    """Monte-Carlo estimate of the mean spectral norm of lift(g) per N.

    g is a complex vector of length 2N-1 with standard normal real and
    imaginary parts; stderr is sample std / sqrt(trials).
    """
    n_values = tuple(int(v) for v in n_values)
    trials = int(trials)
    if trials < 30:
        raise ValueError("need at least 30 trials for a meaningful stderr")
    if any(n < 1 for n in n_values):
        raise ValueError("all n values must be >= 1")
    means = np.zeros(len(n_values))
    stderrs = np.zeros(len(n_values))
    for k, n in enumerate(n_values):
        rng = np.random.default_rng(derive_seed(rng_seed, "norm-scan", n))
        ambient = 2 * n - 1
        vals = np.empty(trials)
        for t in range(trials):
            g = rng.standard_normal(ambient) + 1j * rng.standard_normal(ambient)
            vals[t] = np.linalg.svd(lift(g, n), compute_uv=False)[0]
        means[k] = vals.mean()
        stderrs[k] = vals.std(ddof=1) / np.sqrt(trials)
    return NormScan(n_values=n_values, trials=trials, means=means, stderrs=stderrs, seed=int(rng_seed))


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def emit_csv(result, path) -> None:
    """Write a PhaseGrid or NormScan as UTF-8 CSV with 9 significant digits.

    PhaseGrid rows are sorted by (R, M), NormScan rows by N, so identical
    inputs always produce byte-identical files.
    """
    if isinstance(result, PhaseGrid):
        lines = ["N,R,M,trials,threshold,success_rate"]
        for i in np.argsort(result.r_values, kind="stable"):
            for j in np.argsort(result.m_values, kind="stable"):
                lines.append(
                    f"{result.n},{result.r_values[i]},{result.m_values[j]},"
                    f"{result.trials},{_fmt(result.threshold)},{_fmt(result.success_rate[i, j])}"
                )
    elif isinstance(result, NormScan):
        lines = ["N,trials,mean_norm,stderr"]
        for k in np.argsort(result.n_values, kind="stable"):
            lines.append(
                f"{result.n_values[k]},{result.trials},"
                f"{_fmt(result.means[k])},{_fmt(result.stderrs[k])}"
            )
    else:
        raise TypeError(f"cannot emit {type(result).__name__} as CSV")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
