"""ADMM for the lifted nuclear-norm programs, equality-constrained or
noise-ball-constrained, operating in the weighted variable y = D x."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hankel import HankelLift
from .measurement import MeasurementEnsemble, Observation, project_affine, project_ball

__all__ = ["RecoveryResult", "SolverConfig", "solve", "success", "svt"]


@dataclass(frozen=True)
class SolverConfig:
    """ADMM parameters.

    The noise level comes from ``Observation.delta``; ``delta`` here is only
    a cross-check, and a nonzero value must match the observation's.
    """

    rho: float = 1.0
    max_iters: int = 2000
    tol_primal: float = 1e-7
    tol_dual: float = 1e-7
    delta: float = 0.0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered signal with convergence diagnostics.

    ``x_hat`` is the unweighted signal, ``y_hat`` the weighted variable the
    solver iterates on; ``objective`` is the nuclear norm of the final lifted
    iterate. ``converged`` holds iff both residuals met their tolerances
    before ``max_iters``.
    """

    x_hat: np.ndarray
    y_hat: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool


# svt's Gram route runs while n * eps * sigma_1^2 <= _GRAM_GUARD * tau^2.
_GRAM_GUARD = 1e-6
_EPS = np.finfo(float).eps


def svt(x_mat, tau: float) -> np.ndarray:
    """Singular value thresholding: the prox of tau * nuclear norm at x_mat.

    Returns U max(S - tau, 0) V^H from the SVD of x_mat. It is computed from
    the Hermitian eigendecomposition A^H A = V S^2 V^H (A A^H for wide
    inputs): with V_k the eigenvectors whose eigenvalues exceed tau^2, the
    result is A V_k diag(1 - tau / s_k) V_k^H. Forming A^H A squares the
    condition number, so this route is taken only when the eigenvalue error
    n * eps * s_1^2 is at most 1e-6 * tau^2; otherwise (tau = 0, or s_1 / tau
    too large) the result comes from a full SVD.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    a = np.asarray(x_mat, dtype=complex)
    wide = a.shape[0] < a.shape[1]
    a_h = a.conj().T
    w, v = np.linalg.eigh(a @ a_h if wide else a_h @ a)
    top = w[-1] if w.size else 0.0
    if max(a.shape) * _EPS * top <= _GRAM_GUARD * tau * tau:
        first = np.searchsorted(w, tau * tau, side="right")  # w is ascending
        v = v[:, first:]
        shrink = 1.0 - tau / np.sqrt(w[first:])
        if wide:
            return (v * shrink) @ (v.conj().T @ a)
        av = a @ v
        av *= shrink
        return av @ v.conj().T
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vh


def solve(
    ens: MeasurementEnsemble,
    obs: Observation,
    lift_ctx: HankelLift,
    cfg: SolverConfig | None = None,
) -> RecoveryResult:
    """Minimize the nuclear norm of the lifted signal subject to data consistency.

    Splitting Z = G y with scaled dual U, each sweep does

        Z <- svt(G y + U, 1/rho)
        y <- projection of G*(Z - U) onto {B y = b} (or the delta-ball)
        U <- U + G y - Z

    The y-update collapses to a vector projection because the lift is an
    isometry, and G*U is carried along as G*U + y - G*Z since G*G = I.
    Terminates when the primal residual ||G y - Z||_F and the dual residual
    rho * ||G*(Z - Z_prev)||_2 fall below their (relative) tolerances;
    hitting max_iters yields ``converged=False``, not an error.

    The noise level is ``obs.delta`` (0 selects the equality-constrained
    program). A nonzero ``cfg.delta`` must agree with it.
    """
    if cfg is None:
        cfg = SolverConfig()
    if lift_ctx.ambient_len != ens.ambient_len:
        raise ValueError(
            f"lift context ({lift_ctx.ambient_len}) and ensemble ({ens.ambient_len}) disagree"
        )
    b = obs.b
    if b.shape != (ens.m,):
        raise ValueError(f"expected observation of length {ens.m}, got shape {b.shape}")
    delta = obs.delta
    if cfg.delta != 0.0 and cfg.delta != delta:
        raise ValueError(
            f"SolverConfig.delta ({cfg.delta}) conflicts with Observation.delta ({delta})"
        )

    n = lift_ctx.n
    tau = 1.0 / cfg.rho
    y = np.zeros(lift_ctx.ambient_len, dtype=complex)
    lifted_y = np.zeros((n, n), dtype=complex)
    dual = np.zeros((n, n), dtype=complex)
    adj_z = np.zeros(lift_ctx.ambient_len, dtype=complex)  # G*Z
    adj_dual = np.zeros(lift_ctx.ambient_len, dtype=complex)  # G*U
    primal_res = dual_res = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iters + 1):
        adj_z_prev = adj_z
        z = svt(lifted_y + dual, tau)
        adj_z = lift_ctx.lift_adjoint(z)
        v = adj_z - adj_dual
        if delta == 0.0:
            y = project_affine(ens, v, b)
        else:
            y = project_ball(ens, v, b, delta)
        lifted_y = lift_ctx.lift(y)
        residual = lifted_y - z
        dual += residual
        adj_dual += y - adj_z
        primal_res = float(np.linalg.norm(residual))
        dual_res = float(cfg.rho * np.linalg.norm(adj_z - adj_z_prev))
        if primal_res <= cfg.tol_primal * (1.0 + np.linalg.norm(z)) and dual_res <= cfg.tol_dual * (
            1.0 + np.linalg.norm(y)
        ):
            converged = True
            break

    objective = float(np.linalg.svd(lifted_y, compute_uv=False).sum())
    return RecoveryResult(
        x_hat=lift_ctx.weight(y, inverse=True),
        y_hat=y,
        iterations=iterations,
        primal_residual=primal_res,
        dual_residual=dual_res,
        objective=objective,
        converged=converged,
    )


def success(result: RecoveryResult, truth, threshold: float = 1e-3) -> bool:
    """True iff the relative l2 recovery error is within threshold (closed)."""
    truth = np.asarray(truth, dtype=complex)
    if truth.shape != result.x_hat.shape:
        raise ValueError(f"truth shape {truth.shape} does not match {result.x_hat.shape}")
    ref = np.linalg.norm(truth)
    if ref == 0.0:
        raise ValueError("truth must be nonzero")
    return bool(np.linalg.norm(result.x_hat - truth) <= threshold * ref)
