"""ADMM for the lifted nuclear-norm programs, equality-constrained or
noise-ball-constrained, operating in the weighted variable y = D x."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hankel import HankelLift, _check_count, _check_finite, _check_vector, weight_apply
from .measurement import MeasurementEnsemble, Observation, project_affine, project_ball

__all__ = ["MAX_ITERS", "RecoveryResult", "SUCCESS_THRESHOLD", "solve", "success", "svt"]

# The default relative-error threshold of :func:`success`, the phase
# transition and the CLI.
SUCCESS_THRESHOLD = 1e-3
# The default sweep cap of :func:`solve`, the phase transition and the CLI.
MAX_ITERS = 2000


def _check_positive(value, name: str) -> None:
    if not 0.0 < value < math.inf:  # so that NaN fails
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered signal with convergence diagnostics.

    ``x_hat`` is the unweighted signal, ``y_hat`` the weighted variable the
    solver iterates on, taken from the last projection, so it satisfies the
    constraint; ``objective`` is the nuclear norm of its lift.
    ``primal_residual`` is ||G y - Z||_F of the last sweep and
    ``dual_residual`` is ||G*(Z_k - Z_{k-1})||_2 of the last sweep that
    followed a plain one (no rho factor), both in the units of b.
    ``converged`` holds iff, within ``max_iters``, a sweep had
    primal_residual <= _TOL * ||Z||_F and dual_residual <= _TOL * ||y||_2.
    """

    x_hat: np.ndarray
    y_hat: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool


# The dimensionless ADMM penalty (rho_eff = _RHO * sqrt(M) / ||b||, see
# :func:`solve`) and the relative tolerance of both stopping tests.
_RHO = 30.0
_TOL = 1e-7
# svt's Gram route runs while n * eps * sigma_1^2 <= _GRAM_GUARD * tau^2.
_GRAM_GUARD = 1e-6
# Anderson acceleration combines the differences of the last _AA_MEMORY
# steps, with a Tikhonov term of _AA_REG times the trace of their Gram matrix.
_AA_MEMORY = 5
_AA_REG = 1e-3
_EPS = np.finfo(float).eps


def svt(x_mat, tau: float) -> np.ndarray:
    """Singular value thresholding: the prox of tau * nuclear norm at x_mat.

    Returns U max(S - tau, 0) V^H from the SVD of x_mat. It is computed from
    the Hermitian eigendecomposition A^H A = V S^2 V^H (a wide input is
    thresholded as its conjugate transpose): with V_k the eigenvectors whose
    eigenvalues exceed tau^2, the result is A V_k diag(1 - tau / s_k) V_k^H.
    Forming A^H A squares the condition number, so this route is taken only
    when the eigenvalue error n * eps * s_1^2 is at most 1e-6 * tau^2;
    otherwise (tau = 0, s_1 / tau too large, or A^H A overflowing) the result
    comes from a full SVD. A non-finite entry raises ``ValueError``; the
    input is scanned for one only when the Gram route fails.
    """
    if not tau >= 0:  # so that NaN fails
        raise ValueError(f"tau must be nonnegative, got {tau}")
    a = np.asarray(x_mat, dtype=complex)
    if a.shape[0] < a.shape[1]:
        return svt(a.conj().T, tau).conj().T
    try:
        w, v = np.linalg.eigh(a.conj().T @ a)
        top = w[-1] if w.size else 0.0
    except np.linalg.LinAlgError:
        top = math.nan
    if a.shape[0] * _EPS * top <= _GRAM_GUARD * tau * tau:
        first = np.searchsorted(w, tau * tau, side="right")  # w is ascending
        v = v[:, first:]
        av = a @ v
        av *= 1.0 - tau / np.sqrt(w[first:])
        return av @ v.conj().T
    if not math.isfinite(top):
        _check_finite(a, "svt input")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vh


@lru_cache(maxsize=None)
def _ring_systems(slots: int) -> dict:
    """The least-squares system of Anderson acceleration as a linear map of
    a ring's Gram matrix, per (newest slot, steps held).

    With the steps held in slots o_0, ..., o_{count-1} (oldest first), column
    i < count - 1 of ``cols`` takes step i + 1 minus step i and its last
    column picks the newest step. ``system`` maps the flattened Gram matrix
    of the slots to the (count - 1) x count matrix [H + reg tr(H) I | r],
    where H is the Gram matrix of the differences and r their products with
    the newest step.
    """
    table = {}
    for newest in range(slots):
        for count in range(2, slots + 1):
            order = [(newest - count + 1 + i) % slots for i in range(count)]
            cols = np.zeros((slots, count))
            for i in range(count - 1):
                cols[order[i + 1], i] = 1.0
                cols[order[i], i] = -1.0
            cols[newest, -1] = 1.0
            system = np.kron(cols[:, :-1].T, cols.T)  # row i * count + j: (D^T G C)[i, j]
            diagonal = system[:: count + 1][: count - 1]
            diagonal += _AA_REG * diagonal.sum(axis=0)
            for arr in (cols, system):
                arr.setflags(write=False)
            table[newest, count] = (cols, system)
    return table


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map x -> g(x).

    A ring of ``_AA_MEMORY + 1`` slots holds the latest residuals f and
    images g; the caller writes each step into ``res[slot]`` and
    ``img[slot]`` and then calls :meth:`push`. The Gram matrix Re<f_a, f_b>
    of the stored residuals gains one row per step, and the least-squares
    problem over the residual differences is formed from it. The residual
    may be any real-linear function of g - x that vanishes at the fixed
    points; the images are what gets extrapolated, with real coefficients.
    """

    def __init__(self, res_size: int, img_size: int):
        slots = _AA_MEMORY + 1
        self.res = np.zeros((slots, res_size), dtype=complex)
        self.img = np.zeros((slots, img_size), dtype=complex)
        self._res_re = self.res.view(float)
        self._img_re = self.img.view(float)
        self.gram = np.zeros((slots, slots))
        self.slot = 0  # where the next step goes
        self.stored = 0  # consecutive steps held, the newest in the slot before ``slot``
        self._systems = _ring_systems(slots)

    def push(self) -> float:
        """Store the step written into the current slot; return ||f||^2."""
        s = self.slot
        col = self._res_re @ self._res_re[s]
        self.gram[s] = col
        self.gram[:, s] = col
        self.slot = (s + 1) % len(self.gram)
        self.stored = min(self.stored + 1, len(self.gram))
        return col[s]

    def restart(self, keep: int = 1) -> None:
        """Forget all but the newest ``keep`` steps."""
        self.stored = min(self.stored, keep)

    def extrapolate(self, out: np.ndarray) -> bool:
        """Write g_k - sum_i gamma_i (g_{i+1} - g_i) into the float view
        ``out``, with gamma the minimizer of ||f_k - sum_i gamma_i (f_{i+1} -
        f_i)||^2 plus a Tikhonov term; False, leaving ``out`` alone, without
        two steps or with a singular system."""
        if self.stored < 2:
            return False
        cols, system = self._systems[self.slot - 1 if self.slot else len(self.gram) - 1, self.stored]
        normal = (system @ self.gram.ravel()).reshape(self.stored - 1, self.stored)
        try:
            gamma = np.linalg.solve(normal[:, :-1], normal[:, -1])
        except np.linalg.LinAlgError:
            return False
        np.dot(cols[:, -1] - cols[:, :-1] @ gamma, self._img_re, out=out)
        return True


class _Packed:
    """The solver state (U, y, G*U) as one contiguous vector, with views
    onto its three parts."""

    __slots__ = ("flat", "dual", "y", "adj_dual")

    def __init__(self, flat: np.ndarray, n: int):
        size, ylen = n * n, 2 * n - 1
        self.flat = flat
        self.dual = flat[:size].reshape(n, n)
        self.y = flat[size : size + ylen]
        self.adj_dual = flat[size + ylen :]


def _norm(a: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a contiguous complex array."""
    return math.sqrt(np.vdot(a, a).real)


def solve(ens: MeasurementEnsemble, obs: Observation, *, max_iters: int = MAX_ITERS) -> RecoveryResult:
    """Minimize the nuclear norm of the lifted signal subject to data consistency.

    Splitting Z = G y with scaled dual U, each sweep does

        Z <- svt(G y + U, 1/rho_eff)
        y <- projection of G*(Z - U) onto {B y = b} (or the delta-ball)
        U <- U + G y - Z

    with rho_eff = _RHO * sqrt(M) / ||b||: the penalty is relative to the rms
    of b, so solving for s * b returns s times the solution for b. The
    y-update collapses to a vector projection because the lift is an
    isometry, and G*U is carried along as G*U + y - G*Z since G*G = I.

    A sweep maps the packed state (U, y, G*U) to its image. Type-II Anderson
    acceleration with memory ``_AA_MEMORY`` replaces the next state by the
    image minus the combination of past image differences that best cancels
    the fixed-point residual Z - G y (the step of the Douglas-Rachford
    variable G y - U, whose norm plain sweeps never increase). The plain
    image is kept instead, and the memory cleared, when that residual exceeds
    the smallest seen so far; it is also kept when the primal test passes, so
    that the following sweep can run the dual test exactly.

    Terminates when ||G y - Z||_F <= _TOL * ||Z||_F and, across two
    consecutive plain sweeps (Z_0 = 0), ||G*(Z_k - Z_{k-1})||_2 <=
    _TOL * ||y||_2; hitting ``max_iters`` sweeps yields ``converged=False``,
    not an error. The returned y is always the last projection's output, so it
    satisfies the constraint whatever the last step was.

    The noise level is ``obs.delta``, its only source (0 selects the
    equality-constrained program), and the side length N is ``ens.n``, which
    fixes the lift G.
    """
    _check_count(max_iters, "max_iters")
    b = _check_vector(obs.b, ens.m, "observation")
    delta = obs.delta

    n = ens.n
    ylen = ens.ambient_len
    lift_ctx = HankelLift(n)
    tau = _norm(b) / (_RHO * math.sqrt(ens.m))  # 1 / rho_eff
    # Each sweep writes its image (U, y, G*U) and its step Z - G y into the
    # next slot of the acceleration ring; an extrapolated state has its own.
    accel = _Anderson(n * n, n * n + 2 * ylen)
    images = [_Packed(row, n) for row in accel.img]
    steps = [row.reshape(n, n) for row in accel.res]
    extrapolated = _Packed(np.empty(n * n + 2 * ylen, dtype=complex), n)
    extrapolated_re = extrapolated.flat.view(float)
    state = _Packed(np.zeros(n * n + 2 * ylen, dtype=complex), n)
    lifted_y = np.zeros((n, n), dtype=complex)  # G y of the current state
    adj_z = np.zeros(ylen, dtype=complex)  # G*Z of the last sweep, Z_0 = 0
    plain = True  # the current state is the previous sweep's image
    best = math.inf
    primal_res = dual_res = math.inf
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        adj_z_prev = adj_z
        z = svt(lifted_y + state.dual, tau)
        adj_z = lift_ctx.lift_adjoint(z)
        v = adj_z - state.adj_dual
        if delta == 0.0:
            y = project_affine(ens, v, b)
        else:
            y = project_ball(ens, v, b, delta)
        lifted = lift_ctx.lift(y)
        image = images[accel.slot]
        np.subtract(lifted, z, out=image.dual)  # G y - Z, the primal residual
        primal_res = _norm(image.dual)
        image.dual += state.dual
        image.y[:] = y
        np.subtract(y, v, out=image.adj_dual)  # G*U + y - G*Z

        primal_ok = primal_res <= _TOL * _norm(z)
        if plain:
            dual_res = _norm(adj_z - adj_z_prev)
            if primal_ok and dual_res <= _TOL * _norm(y):
                converged = True
                break
        np.subtract(z, lifted_y, out=steps[accel.slot])
        step_norm = math.sqrt(accel.push())
        if iterations == 1:
            accel.restart(keep=0)  # the zero start is no image of a sweep
        else:
            if step_norm > best:
                accel.restart()
            plain = primal_ok or step_norm > best or not accel.extrapolate(extrapolated_re)
            best = min(best, step_norm)
        if plain:
            state = image
            lifted_y = lifted
        else:
            state = extrapolated
            lifted_y = lift_ctx.lift(state.y)

    objective = float(np.linalg.svd(lifted, compute_uv=False).sum())
    return RecoveryResult(
        x_hat=weight_apply(y, inverse=True),
        y_hat=y,
        iterations=iterations,
        primal_residual=primal_res,
        dual_residual=dual_res,
        objective=objective,
        converged=converged,
    )


def success(result: RecoveryResult, truth, threshold: float = SUCCESS_THRESHOLD) -> bool:
    """True iff the relative l2 recovery error is within threshold (closed)."""
    _check_positive(threshold, "threshold")
    truth = _check_vector(truth, result.x_hat.shape[0], "truth")
    ref = np.linalg.norm(truth)
    if ref == 0.0:
        raise ValueError("truth must be nonzero")
    return bool(np.linalg.norm(result.x_hat - truth) <= threshold * ref)
