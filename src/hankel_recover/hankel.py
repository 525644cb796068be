"""Hankel/Toeplitz structure: anti-diagonal weights, the isometric lifting
operator and its adjoint, and the Hankel-to-Toeplitz flip."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "hankel_map",
    "lift",
    "lift_adjoint",
    "numerical_rank",
    "toeplitz_map",
    "weight_apply",
]

# Rounding-error multiple under which numerical_rank counts a singular value as zero.
_RANK_MARGIN = 1e3


@lru_cache(maxsize=None)
def _antidiag_weights(n: int) -> np.ndarray:
    """sqrt(K_j), with K_j the number of entries on the j-th anti-diagonal of
    an N x N matrix: the diagonal of the weighting matrix for side length n."""
    j = np.arange(2 * n - 1)
    d = np.sqrt(np.minimum(j + 1, 2 * n - 1 - j).astype(float))
    d.setflags(write=False)
    return d


@lru_cache(maxsize=None)
def _hankel_index(n: int) -> np.ndarray:
    """The N x N index matrix j + k that arranges a signal into a Hankel matrix."""
    idx = np.arange(n)[:, None] + np.arange(n)[None, :]
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _adjoint_index(n: int) -> np.ndarray:
    """Bins for anti-diagonal sums over an N x N complex matrix viewed as
    interleaved (real, imag) floats: entry (j, k) part p goes to bin 2(j+k) + p."""
    idx = (2 * _hankel_index(n).reshape(-1, 1) + np.arange(2)).ravel()
    idx.setflags(write=False)
    return idx


def _check_count(value, name: str) -> None:
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be >= 1 and an integer, got {value}")


def _check_finite(a, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must have finite entries")
    return a


def _side_length(a: np.ndarray, ndim: int = 1) -> int:
    """N from a signal's odd length 2N-1, or (``ndim=2``) from an M x (2N-1)
    sketch's column count: the one place where N is derived from data."""
    if a.ndim != ndim or a.shape[-1] % 2 == 0:
        raise ValueError(f"expected a {ndim}-D array of odd length 2N-1 along its last axis, got shape {a.shape}")
    return (a.shape[-1] + 1) // 2


def _check_vector(v, length: int, name: str) -> np.ndarray:
    """``v`` as a complex array of shape (length,); ValueError otherwise."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (length,):
        raise ValueError(f"expected {name} of length {length}, got shape {v.shape}")
    return v


def _check_square(x_mat) -> np.ndarray:
    """Complex square matrix."""
    x_mat = np.asarray(x_mat, dtype=complex)
    if x_mat.ndim != 2 or x_mat.shape[0] != x_mat.shape[1] or x_mat.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {x_mat.shape}")
    return x_mat


def _lift(y: np.ndarray, n: int) -> np.ndarray:
    return (y / _antidiag_weights(n))[_hankel_index(n)]


def _lift_adjoint(x_mat: np.ndarray) -> np.ndarray:
    n = x_mat.shape[0]
    parts = np.ascontiguousarray(x_mat).view(np.float64).ravel()
    sums = np.bincount(_adjoint_index(n), weights=parts, minlength=4 * n - 2).view(complex)
    return sums / _antidiag_weights(n)


def hankel_map(x) -> np.ndarray:
    """Arrange a length-(2N-1) vector into the N x N Hankel matrix H[j, k] = x[j+k]."""
    x = np.asarray(x, dtype=complex)
    return x[_hankel_index(_side_length(x))]


def lift(y) -> np.ndarray:
    """Isometric lift of y onto the Hankel subspace: entries y[j+k] / sqrt(K_{j+k}).

    The Frobenius norm of the output equals the Euclidean norm of y, and
    ``lift_adjoint(lift(y)) == y``.
    """
    y = np.asarray(y, dtype=complex)
    return _lift(y, _side_length(y))


def lift_adjoint(x_mat) -> np.ndarray:
    """Adjoint of :func:`lift`: anti-diagonal sums scaled by 1 / sqrt(K_j).

    ``lift(lift_adjoint(X))`` is the orthogonal projection of X onto the
    Hankel subspace of C^(N x N).
    """
    return _lift_adjoint(_check_square(x_mat))


def weight_apply(x, inverse: bool = False) -> np.ndarray:
    """Multiply entrywise by sqrt(K_j), or divide when ``inverse`` is set.

    The two directions are exact reciprocals, so a round trip is the identity.
    """
    x = np.asarray(x, dtype=complex)
    d = _antidiag_weights(_side_length(x))
    return x / d if inverse else x * d


def toeplitz_map(x) -> np.ndarray:
    """Arrange x into the N x N Toeplitz matrix T[i, j] = x[N-1+i-j].

    T(x) equals H(x) times the anti-identity, a unitary flip, so the two share
    singular values and in particular nuclear norm.
    """
    return hankel_map(x)[:, ::-1]


def numerical_rank(x_mat) -> int:
    """Singular values above max(shape) * eps * sigma_1 * _RANK_MARGIN."""
    x_mat = _check_finite(np.asarray(x_mat, dtype=complex), "matrix")
    s = np.linalg.svd(x_mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = max(x_mat.shape) * np.finfo(float).eps * s[0] * _RANK_MARGIN
    return int(np.count_nonzero(s > cutoff))


@dataclass(frozen=True)
class HankelLift:
    """The isometric lift G and its adjoint G* for side length ``n``: the two
    operators of :func:`solve`'s loop, which builds one from its checked
    ensemble. Unlike :func:`lift` and :func:`lift_adjoint`, the methods do
    not check their input: ``y`` must be a complex vector of length 2n-1 and
    ``x_mat`` a complex n x n matrix."""

    n: int

    def lift(self, y: np.ndarray) -> np.ndarray:
        return _lift(y, self.n)

    def lift_adjoint(self, x_mat: np.ndarray) -> np.ndarray:
        return _lift_adjoint(x_mat)
