"""Exponential-mode signals: synthesis from (pole, amplitude) pairs, seeded
random test instances, and pole extraction via a matrix pencil."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .hankel import _check_count, _check_finite, _side_length, hankel_map

__all__ = [
    "Mode",
    "ModalSignal",
    "ModeExtractionError",
    "matrix_pencil",
    "random_instance",
    "synthesize",
]

# Damping scale for the NMR-like family: signals decay visibly over the window
# without underflowing.
TAU_MAX = 0.5
# Largest relative re-synthesis residual of a fit: well above rounding, below what a wrong r leaves.
_PENCIL_TOL = 1e-6


def _check_r(r, n: int, name: str = "r") -> None:
    if not (isinstance(r, numbers.Integral) and 1 <= r < 2 * n - 1):
        raise ValueError(f"{name} must satisfy 1 <= R < 2N-1 = {2 * n - 1} and be an integer, got {r}")


class ModeExtractionError(ArithmeticError):
    """The pencil could not fit the requested number of modes.

    Carries the relative re-synthesis residual that failed the tolerance.
    """

    def __init__(self, residual: float):
        super().__init__(f"mode extraction residual {residual:.3e} exceeds tolerance {_PENCIL_TOL:.3e}")
        self.residual = residual


@dataclass(frozen=True)
class Mode:
    """One exponential mode: pole z (|z| = 1 sinusoid, |z| < 1 damped) and
    nonzero complex amplitude c."""

    z: complex
    c: complex


@dataclass(frozen=True)
class ModalSignal:
    """A superposition of R distinct modes on a length-(2N-1) window."""

    modes: tuple[Mode, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        _check_count(self.n, "n")
        r = len(self.modes)
        _check_r(r, self.n, "R")
        if any(m.c == 0 for m in self.modes):
            raise ValueError("mode amplitudes must be nonzero")
        if len({m.z for m in self.modes}) != r:
            raise ValueError("mode poles must be pairwise distinct")

    @property
    def r(self) -> int:
        return len(self.modes)

    @property
    def ambient_len(self) -> int:
        return 2 * self.n - 1


def synthesize(sig: ModalSignal) -> np.ndarray:
    """Evaluate sum_k c_k z_k^j for j = 0 .. 2N-2."""
    z = np.array([m.z for m in sig.modes])
    c = np.array([m.c for m in sig.modes])
    return c @ np.power.outer(z, np.arange(sig.ambient_len))


def random_instance(n: int, r: int, family: str = "sinusoid", rng_seed=None) -> ModalSignal:
    """Draw a random r-mode signal of length 2n-1, deterministic given the seed.

    sinusoid: z_k = exp(2*pi*1j*f_k) with f_k ~ U[0, 1).
    damped:   additionally z_k *= exp(-tau_k) with tau_k ~ U[0, TAU_MAX).

    Amplitudes have |c_k| = 1 + 10**(0.5*m_k) with m_k ~ U[0, 1) and phase
    uniform on [0, 2*pi).
    """
    _check_count(n, "n")
    _check_r(r, n)
    if family not in ("sinusoid", "damped"):
        raise ValueError(f"unknown family {family!r}, expected 'sinusoid' or 'damped'")
    rng = np.random.default_rng(rng_seed)
    z = np.exp(2j * np.pi * rng.random(r))
    if family == "damped":
        z = z * np.exp(-rng.uniform(0.0, TAU_MAX, r))
    mag = 1.0 + 10.0 ** (0.5 * rng.random(r))
    phase = rng.uniform(0.0, 2.0 * np.pi, r)
    c = mag * np.exp(1j * phase)
    return ModalSignal(tuple(Mode(complex(zk), complex(ck)) for zk, ck in zip(z, c)), n)


def matrix_pencil(x, r: int) -> tuple[list[Mode], float]:
    """Extract r (pole, amplitude) pairs from a superposition of exponentials.

    Poles are the generalized eigenvalues of the pencil formed by the Hankel
    matrix of x with its last/first row dropped, reduced to rank r through a
    truncated SVD; amplitudes come from a Vandermonde least-squares fit.
    Returns the modes, sorted by pole phase, then modulus, and the relative
    re-synthesis residual ||x_fit - x|| / ||x|| of the fit.

    Raises
    ------
    ValueError
        If r is not an integer in range, or x is zero or not finite.
    ModeExtractionError
        If the relative re-synthesis residual exceeds 1e-6 (ill-conditioned
        pencil, understated r, or too much noise).
    """
    x = _check_finite(np.asarray(x, dtype=complex), "signal x")
    n = _side_length(x)
    if not (isinstance(r, numbers.Integral) and 1 <= r <= n - 1):
        raise ValueError(f"need an integer 1 <= r <= N-1 = {n - 1}, got r = {r}")
    x_norm = np.linalg.norm(x)
    if x_norm == 0.0:
        raise ValueError("cannot extract modes from the zero signal")

    h = hankel_map(x)
    h0, h1 = h[:-1, :], h[1:, :]
    u, s, vh = np.linalg.svd(h0, full_matrices=False)
    if s[r - 1] <= n * np.finfo(float).eps * s[0]:
        # Rank of the data is below r; the reduced pencil would be singular.
        raise ModeExtractionError(float("inf"))
    core = (u[:, :r].conj().T @ h1 @ vh[:r, :].conj().T) / s[:r, None]
    poles = np.linalg.eigvals(core)

    vand = np.power.outer(poles, np.arange(x.shape[0])).T
    amps, *_ = np.linalg.lstsq(vand, x, rcond=None)
    residual = float(np.linalg.norm(vand @ amps - x) / x_norm)
    if not np.isfinite(residual) or residual > _PENCIL_TOL:
        raise ModeExtractionError(residual)
    order = np.lexsort((np.abs(poles), np.angle(poles)))
    return [Mode(complex(poles[k]), complex(amps[k])) for k in order], residual
