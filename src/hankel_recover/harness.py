"""Experiment engine: phase-transition grids over (R, M), Monte-Carlo scans of
the lifted-Gaussian spectral norm, stable per-trial seeding, and CSV output."""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .hankel import _check_count, _is_integer, _lift_adjoint, _spectrum_rank, hankel_map, lift, weight_apply
from .measurement import _check_m, measure, sample_ensemble
from .modal import _check_r, random_instance, synthesize
from .solver import MAX_ITERS, SUCCESS_THRESHOLD, _check_positive, _norm, solve, success

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

# Lanczos stops once the top Ritz triplet's residual bound is at most
# _LANCZOS_TOL * theta_1; the bound is evaluated every _LANCZOS_CHECK steps.
_LANCZOS_TOL = 1e-14
_LANCZOS_CHECK = 4


def _check_seed(seed, name: str = "seed") -> None:
    if not (_is_integer(seed) and -(2**127) <= seed < 2**127):
        raise ValueError(f"{name} must satisfy -2**127 <= seed < 2**127 and be an integer, got {seed}")


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from a base seed in [-2**127, 2**127) and a label path
    of strings and integers, each integer in that same range.

    Platform-independent, so any grid cell or single trial can be re-run in
    isolation and reproduce its random stream exactly.
    """
    _check_seed(base_seed, "base_seed")
    h = hashlib.blake2b(digest_size=8)
    h.update(int(base_seed).to_bytes(16, "little", signed=True))
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        else:
            _check_seed(part, "seed label")
            h.update(int(part).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def worker_count() -> int:
    """Worker pool size: HANKEL_RECOVER_THREADS if set (a count, N >= 1),
    else the number of CPUs this process may run on (its affinity mask where
    the OS has one)."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
        _check_count(count, THREADS_ENV_VAR)
        return count
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _read_only(values) -> np.ndarray:
    """``values`` as a float array that cannot be written."""
    a = np.asarray(values, dtype=float)
    a.setflags(write=False)
    return a


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
        object.__setattr__(self, "success_rate", _read_only(self.success_rate))


@dataclass(frozen=True, eq=False)
class NormScan:
    """Per-N mean and standard error of the lifted-Gaussian spectral norm."""

    n_values: tuple[int, ...]
    trials: int
    means: np.ndarray
    stderrs: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "means", _read_only(self.means))
        object.__setattr__(self, "stderrs", _read_only(self.stderrs))


def _check_scan_trials(trials, name: str) -> None:
    if not (_is_integer(trials) and trials >= 30):
        raise ValueError(f"{name} must be >= 30 for a meaningful stderr and be an integer, got {trials}")


def _success_floor(x_true: np.ndarray, threshold: float) -> float:
    """A lower bound on ||G D x||_* over every success x, that is every x with
    ||x - x_true|| <= threshold * ||x_true||.

    Let A = G D x_true = H(x_true) = U S V^H, A_k its top k singular triplets
    (k its numerical rank; any k would do) and T = A - A_k. The subgradient
    inequality at A_k gives, with e = x - x_true,

        ||G D x||_* >= ||A_k + G D e||_* - ||T||_*
                    >= ||A||_* - 2 ||T||_* + Re<D G*(U_k V_k^H), e>
                    >= ||A||_* - 2 ||T||_* - ||D G*(U_k V_k^H)|| threshold ||x_true||.

    ||D G*(U_k V_k^H)|| <= sqrt(N k) <= N, so the bound is at least
    ||A||_* - N threshold ||x_true||. It calls hankel_map and the kernel
    _lift_adjoint, not lift: perfbench times harness.lift as the start of a
    norm-scan sample.
    """
    u, s, vh = np.linalg.svd(hankel_map(x_true))
    k = _spectrum_rank(s, s.size)
    slope = np.linalg.norm(weight_apply(_lift_adjoint(u[:, :k] @ vh[:k])))
    return float(s.sum() - 2.0 * s[k:].sum() - slope * threshold * np.linalg.norm(x_true))


def _phase_trial(n, r, m, trial, base_seed, threshold, max_iters) -> bool:
    sig = random_instance(n, r, rng_seed=derive_seed(base_seed, "signal", r, m, trial))
    x_true = synthesize(sig)
    ens = sample_ensemble(m, n, derive_seed(base_seed, "ensemble", r, m, trial))
    obs = measure(ens, x_true)
    # A feasible iterate below the floor puts the program's minimum below it
    # too, so neither the iterate nor a minimizer is a success.
    bound = _success_floor(x_true, threshold)
    return success(solve(ens, obs, max_iters=max_iters, stop_below=bound), x_true, threshold)


def run_phase_transition(
    n: int,
    r_values,
    m_values,
    trials: int,
    threshold: float = SUCCESS_THRESHOLD,
    base_seed: int = 0,
    max_iters: int = MAX_ITERS,
) -> PhaseGrid:
    """Noise-free success-rate table: ``trials`` independent recoveries per cell.

    Per-trial seeds derive from (base_seed, R, M, trial), and outcomes are
    reduced in fixed (R, M, trial) order, so the result is identical for any
    worker pool size (:func:`worker_count`). Each solve stops after at most
    ``max_iters`` sweeps, or sooner once a feasible iterate certifies that the
    trial fails: its nuclear norm is below the least one a success can have
    (see ``_success_floor``). The program's minimizer then fails too, and a
    trial whose minimizer succeeds is never stopped, so the rates are those
    of plain solves.
    """
    r_values, m_values = tuple(r_values), tuple(m_values)
    _check_count(n, "n")
    _check_count(trials, "trials")
    _check_positive(threshold, "threshold")
    _check_seed(base_seed, "base_seed")
    _check_count(max_iters, "max_iters")
    for m in m_values:
        _check_m(m, n)
    for r in r_values:
        _check_r(r, n)
    n, trials = int(n), int(trials)
    r_values, m_values = tuple(map(int, r_values)), tuple(map(int, m_values))

    jobs = list(product(r_values, m_values, range(trials)))
    with ThreadPoolExecutor(max_workers=min(worker_count(), max(1, len(jobs)))) as pool:
        outcomes = list(pool.map(lambda job: _phase_trial(n, *job, base_seed, threshold, max_iters), jobs))
    rates = np.array(outcomes, float).reshape(len(r_values), len(m_values), trials).mean(axis=2)
    return PhaseGrid(
        n=n,
        r_values=r_values,
        m_values=m_values,
        trials=trials,
        threshold=float(threshold),
        base_seed=int(base_seed),
        success_rate=rates,
    )


def _top_singular_value(a: np.ndarray) -> float:
    """Largest singular value of a, by Lanczos on A^H A.

    A wide matrix is read as its transpose, so A^H A is n x n with n =
    min(rows, columns). From a fixed start vector v_1 (drawn from its own
    seeded generator, so no caller's random stream moves), step k extends one
    fully reorthogonalized orthonormal basis V and the real tridiagonal T_k =
    V^H A^H A V, with alpha_k on its diagonal and beta_k beside it. A^H A v is
    formed as conj(A^T conj(A v)), so ``a`` is never copied.

    Returns sqrt(theta_1), theta_1 the top eigenvalue of T_k, once its Ritz
    pair's residual bound beta_k |x_k| (x the top eigenvector of T_k) is at
    most _LANCZOS_TOL * theta_1, at a breakdown, or after n steps, where T_n
    has the eigenvalues of A^H A. A breakdown is a beta_k at most _LANCZOS_TOL
    times the largest ||A^H A v_j|| so far: the Krylov space is then
    invariant and theta_1 is exact to within the tolerance, since ||A^H A
    v_j|| <= sigma_1^2. A zero matrix returns 0.0.
    """
    if a.shape[0] < a.shape[1]:
        a = a.T
    n = a.shape[1]
    vs = np.empty((n, n), dtype=complex)
    tridiag = np.zeros((n, n))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= _norm(v)
    scale = 0.0  # the largest ||A^H A v_j|| so far, <= sigma_1^2
    for k in range(n):
        vs[k] = v
        w = (a.T @ (a @ v).conj()).conj()
        scale = max(scale, _norm(w))
        alpha = tridiag[k, k] = np.vdot(v, w).real
        w -= alpha * v
        if k:
            w -= tridiag[k - 1, k] * vs[k - 1]
        w -= (w.conj() @ vs[: k + 1].T).conj() @ vs[: k + 1]
        beta = _norm(w)
        t = tridiag[: k + 1, : k + 1]
        if beta <= _LANCZOS_TOL * scale:  # breakdown; at k = 0, a = 0
            return math.sqrt(np.linalg.eigvalsh(t)[-1])
        if k + 1 == n or (k + 1) % _LANCZOS_CHECK == 0:
            theta, x = np.linalg.eigh(t)
            if k + 1 == n or beta * abs(x[k, -1]) <= _LANCZOS_TOL * theta[-1]:
                return math.sqrt(theta[-1])
        tridiag[k, k + 1] = tridiag[k + 1, k] = beta
        v = w / beta


def run_norm_scan(n_values, trials: int, rng_seed: int = 0) -> NormScan:
    """Monte-Carlo estimate of the mean spectral norm of lift(g) per N.

    g is a complex vector of length 2N-1 with standard normal real and
    imaginary parts; stderr is sample std / sqrt(trials). Each norm comes
    from :func:`_top_singular_value`.
    """
    n_values = tuple(n_values)
    _check_scan_trials(trials, "trials")
    for n in n_values:
        _check_count(n, "n")
    _check_seed(rng_seed, "rng_seed")
    n_values, trials = tuple(map(int, n_values)), int(trials)
    means = np.zeros(len(n_values))
    stderrs = np.zeros(len(n_values))
    for k, n in enumerate(n_values):
        rng = np.random.default_rng(derive_seed(rng_seed, "norm-scan", n))
        ambient = 2 * n - 1
        vals = np.empty(trials)
        for t in range(trials):
            g = rng.standard_normal(ambient) + 1j * rng.standard_normal(ambient)
            vals[t] = _top_singular_value(lift(g))
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
