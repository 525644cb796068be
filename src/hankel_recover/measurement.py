"""Scaled complex Gaussian measurement ensembles, noise injection, and the two
feasibility projections (affine and noise ball) used by the solver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hankel import _check_count, _check_finite, _check_vector, _is_integer, _side_length, _unit, weight_apply

__all__ = [
    "MeasurementEnsemble",
    "Observation",
    "measure",
    "project_affine",
    "project_ball",
    "sample_ensemble",
]


# Newton's steps on the ball multiplier shrink quadratically, so one below
# this fraction of the multiplier leaves it exact to rounding.
_NEWTON_RTOL = 1e-13
# Newton took at most 8 steps over 3000 random cases with data scales 1e-6..1e6;
# the bound only ends a loop that rounding keeps from stopping.
_NEWTON_MAX_STEPS = 50


def _check_m(m, n: int, name: str = "m") -> None:
    if not (_is_integer(m) and 1 <= m <= 2 * n - 1):
        raise ValueError(f"{name} must satisfy 1 <= M <= 2N-1 = {2 * n - 1} and be an integer, got {m}")


def _check_delta(delta, name: str = "delta") -> None:
    if not 0.0 <= delta < math.inf:  # so that NaN fails
        raise ValueError(f"{name} must be finite and nonnegative, got {delta}")


class MeasurementEnsemble:
    """A complex Gaussian sketch matrix with a cached SVD.

    Entries have i.i.d. standard normal real and imaginary parts. The sketch is
    M x (2N-1), its width fixing N, with full row rank M <= 2N-1, checked here once.
    The SVD is computed once here and reused by every projection, since the
    solver calls them hundreds of times per recovery. Instances are immutable
    and safe to share across worker threads.
    """

    def __init__(self, b_matrix):
        b = np.array(b_matrix, dtype=complex)
        n = _side_length(b, ndim=2)
        _check_m(b.shape[0], n)
        _check_finite(b, "sketch matrix")
        b.setflags(write=False)
        self.b_matrix = b
        self.m = b.shape[0]
        self.n = n
        self.ambient_len = 2 * n - 1
        u, s, vh = np.linalg.svd(b, full_matrices=False)
        if s[-1] <= self.ambient_len * np.finfo(float).eps * s[0]:
            raise ValueError(f"sketch is rank deficient (smallest singular value {s[-1]:.3e})")
        # kept as U^H, S, V: the form in which the projections apply them
        self._u_h, self._s, self._v = u.conj().T, s, vh.conj().T
        for arr in (self._u_h, self._s, self._v):
            arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Observation:
    """Measured vector b with its noise level (0 for noise-free data)."""

    b: np.ndarray
    delta: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex)
        if b.ndim != 1:
            raise ValueError(f"expected a vector, got shape {b.shape}")
        object.__setattr__(self, "b", _check_finite(b, "observation b"))
        _check_delta(self.delta)


def sample_ensemble(m: int, n: int, rng_seed=None) -> MeasurementEnsemble:
    """Draw an M x (2N-1) sketch, deterministic given the seed."""
    _check_count(n, "n")
    _check_m(m, n)
    shape = (m, 2 * n - 1)
    rng = np.random.default_rng(rng_seed)
    return MeasurementEnsemble(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def measure(ens: MeasurementEnsemble, x, noise_delta: float = 0.0, rng_seed=None) -> Observation:
    """Observe b = B D x, plus complex Gaussian noise rescaled to norm noise_delta.

    The noise is rescaled so that ||b - B D x||_2 equals ``noise_delta``
    exactly, making the noisy program's constraint hypothesis hold with
    equality.
    """
    x = _check_finite(_check_vector(x, ens.ambient_len, "signal x"), "signal x")
    _check_delta(noise_delta, "noise_delta")
    with np.errstate(over="ignore", invalid="ignore"):  # Observation reports a non-finite b
        b = ens.b_matrix @ weight_apply(x)
    if noise_delta > 0:
        rng = np.random.default_rng(rng_seed)
        eta = rng.standard_normal(ens.m) + 1j * rng.standard_normal(ens.m)
        b = b + eta * (noise_delta / np.linalg.norm(eta))
    return Observation(b, float(noise_delta))


def project_affine(ens: MeasurementEnsemble, v, b) -> np.ndarray:
    """Closest point to v (in l2) satisfying B y = b exactly."""
    v = _check_vector(v, ens.ambient_len, "v")
    b = _check_vector(b, ens.m, "b")
    w = ens.b_matrix @ v - b
    return v - ens._v @ ((ens._u_h @ w) / ens._s)


def project_ball(ens: MeasurementEnsemble, v, b, delta: float) -> np.ndarray:
    """Closest point to v satisfying ||B y - b||_2 <= delta.

    Interior points are returned unchanged, and a delta at or below the
    rounding of ||B v - b|| (0 among them) gets project_affine's point.
    Otherwise y = v - V diag(mu s / (1 + mu s^2)) U^H (B v - b), with the
    multiplier mu > 0 from :func:`_ball_multiplier`, all in power-of-two units
    of max(|(B v - b)_i|, delta), so that no square underflows or overflows.
    """
    _check_delta(delta)
    v = _check_vector(v, ens.ambient_len, "v")
    b = _check_vector(b, ens.m, "b")
    w = ens.b_matrix @ v - b
    unit = _unit(max(float(np.abs(w).max()), delta))
    w, delta = w / unit, delta / unit
    gap = float(np.linalg.norm(w))
    if gap <= delta:
        return v.copy()
    if delta <= np.finfo(float).eps * gap:
        return project_affine(ens, v, b)
    wt = ens._u_h @ w
    s2 = ens._s**2
    mu = _ball_multiplier(np.abs(wt) ** 2, s2, delta)
    return v - ens._v @ (mu * ens._s * wt / (1.0 + mu * s2)) * unit


def _ball_multiplier(wt2: np.ndarray, s2: np.ndarray, delta: float) -> float:
    """The mu > 0 with ||r(mu)|| = delta, where |r_i(mu)|^2 = wt2_i / (1 + mu s2_i)^2
    and ||r(0)|| > delta: the trust-region secular equation with Hessian
    diag(1 / s2) (More and Sorensen, 1983). 1/||r(mu)|| is concave and
    increasing, so Newton's method on it rises from mu = 0 to the root
    without overshooting."""
    mu = 0.0
    r2 = float(wt2.sum())  # ||r(mu)||^2
    for _ in range(_NEWTON_MAX_STEPS):
        # d(1/||r||)/dmu = sum(|r_i|^2 s2_i / (1 + mu s2_i)) / ||r||^3
        step = (math.sqrt(r2) / delta - 1.0) * r2 / float(wt2 @ (s2 / (1.0 + mu * s2) ** 3))
        mu += step
        r2 = float(wt2 @ (1.0 + mu * s2) ** -2)
        if step <= _NEWTON_RTOL * mu:
            break
    return mu
