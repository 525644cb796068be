"""ADMM for the lifted nuclear-norm programs, equality-constrained or
noise-ball-constrained, operating in the weighted variable y = D x."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hankel import HankelLift, _check_count, _check_finite, _check_vector, _unit, weight_apply
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
    ``duality_gap`` is the certificate of the last sweep, (f_up - f_lo) /
    f_up (0 when f_up = 0), with f_up >= ``objective`` and f_lo <= the
    program's minimum (see :func:`solve`), so ``objective`` exceeds the
    minimum by at most duality_gap * f_up. f_lo pairs a dual point feasible
    by construction with the optimality of the projection that produced y,
    for every delta, so there is no dual infeasibility to report.
    ``primal_residual`` is ||G y - Z||_F of the last sweep and
    ``dual_residual`` is ||G*(Z_k - Z_{k-1})||_2 of the last two sweeps
    (Z_0 = 0), both in the units of b: diagnostics that no stopping rule
    reads. ``converged`` holds iff, within ``max_iters``, a sweep had
    duality_gap <= _GAP_TOL. ``converged=False`` with ``iterations <
    max_iters`` means that the solve stopped because f_up fell below its
    ``stop_below`` bound.
    """

    x_hat: np.ndarray
    y_hat: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    duality_gap: float
    converged: bool


# The dimensionless ADMM penalty (rho_eff = _RHO * sqrt(M) / ||b||, see
# :func:`solve`) and the relative duality gap at which a solve stops.
_RHO = 30.0
_GAP_TOL = 1e-5
# Both bounds of the gap are widened by this fraction of f_up, for the
# rounding of the inner products that form them (Re<X - Z, Z> / tau matched
# ||Z||_* from an SVD to 3e-14 on 533 recorded N = 64 iterates).
_ROUNDING = 1e-12
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


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map x -> g(x).

    A ring of ``_AA_MEMORY + 1`` slots holds the latest residuals f and
    images g; the caller writes each step into ``res[slot]`` and
    ``img[slot]`` and then calls :meth:`push`. The Gram matrix Re<f_a, f_b>
    of the stored residuals gains one row per step. Taken in chronological
    order, its second difference is the Gram matrix H of the residual
    differences and its last column's first difference their products r
    with the newest residual (Walker and Ni, 2011); gamma solves (H +
    _AA_REG tr(H) I) gamma = r. The residual may be any real-linear function
    of g - x that vanishes at the fixed points; the images are what gets
    extrapolated, with real coefficients.
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
        k = self.stored
        if k < 2:
            return False
        held = np.arange(self.slot - k, self.slot)  # oldest first; a negative slot wraps
        g = self.gram[held[:, None], held]
        rows = g[1:] - g[:-1]  # Re<f_{i+1} - f_i, f_j>
        normal = rows[:, 1:] - rows[:, :-1]
        normal.flat[::k] += _AA_REG * normal.trace()
        try:
            gamma = np.linalg.solve(normal, rows[:, -1])
        except np.linalg.LinAlgError:
            return False
        w = np.zeros(len(self.gram))
        w[held[:-1]] = gamma
        w[held[1:]] -= gamma
        w[held[-1]] += 1.0
        np.dot(w, self._img_re, out=out)
        return True


def _views(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The views (U, y) onto a solver state packed as one contiguous vector."""
    return flat[: n * n].reshape(n, n), flat[n * n :]


def _norm(a: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a contiguous complex array."""
    return math.sqrt(np.vdot(a, a).real)


def _bounds(n, tau, x_minus_z, z, primal_res, y, y_minus_v, step, unit) -> tuple[float, float]:
    """Bounds f_up >= ||G y||_* and f_lo <= the program's minimum from the
    quantities of one sweep, returned times ``unit``, the data's unit: X = G
    y_s + U_s (y_s, U_s the state it started from), Z = svt(X, tau), v =
    G*(Z - U_s), y its projection onto the feasible set, ``primal_res`` =
    ||G y - Z||_F, ``y_minus_v`` = y - v = G*U+ for U+ = U_s + G y - Z (G*G
    = I), ``step`` = ||y - y_s|| and ``n`` = N.

    f_up = Re<X - Z, Z> / tau + sqrt(N) ||G y - Z||_F: (X - Z) / tau is a
    subgradient of the nuclear norm at Z, so the first term is ||Z||_*, and
    G y - Z has rank at most N. U+ = (X - Z) + G (y - y_s) has ||U+||_op <=
    tau + step, so W = U+ / (tau + step) has ||W||_op <= 1, and G*W = (y -
    v) / (tau + step). v - y is normal to the feasible set, affine or ball,
    at the projection y, so every feasible y' has ||G y'||_* >= Re<W, G y'>
    = Re<y - v, y'> / (tau + step) >= f_lo = Re<y - v, y> / (tau + step).
    """
    upper = np.vdot(x_minus_z, z).real / tau + math.sqrt(n) * primal_res
    lower = np.vdot(y_minus_v, y).real / (tau + step)
    slack = _ROUNDING * upper
    return (upper + slack) * unit, (lower - slack) * unit


def solve(
    ens: MeasurementEnsemble, obs: Observation, *, max_iters: int = MAX_ITERS, stop_below: float | None = None
) -> RecoveryResult:
    """Minimize the nuclear norm of the lifted signal subject to data consistency.

    Splitting Z = G y with scaled dual U, each sweep does

        Z <- svt(G y + U, 1/rho_eff)
        y <- projection of G*(Z - U) onto {B y = b} (or the delta-ball)
        U <- U + G y - Z

    with rho_eff = _RHO * sqrt(M) / ||b||: the penalty is relative to the rms
    of b, so solving for s * b returns s times the solution for b. The
    y-update collapses to a vector projection because the lift is an
    isometry, and v = G*(Z - U) is the sweep's one adjoint call.

    A sweep maps the packed state (U, y) to its image. Type-II Anderson
    acceleration with memory ``_AA_MEMORY`` replaces the next state by the
    image minus the combination of past image differences that best cancels
    the fixed-point residual Z - G y (the step of the Douglas-Rachford
    variable G y - U, whose norm plain sweeps never increase). The plain
    image is kept instead, and the memory cleared, when that residual exceeds
    the smallest seen so far.

    Every sweep bounds the program's minimum from both sides with quantities
    it already holds and no SVD (see ``_bounds``): f_up >= ||G y||_* of its
    projection output y, and f_lo <= the minimum, the inner product of a dual
    point feasible by construction with y, a bound for every delta by the
    projection's optimality. The solve terminates when f_up - f_lo <=
    _GAP_TOL * f_up, so ``objective`` is then within that fraction of the
    minimum; hitting ``max_iters`` sweeps yields ``converged=False``, not an
    error. The returned y is always the last projection's output, so it
    satisfies the constraint whatever the last step was.

    With ``stop_below`` set, the solve also stops, with ``converged=False``,
    at the first sweep before the last one whose f_up < stop_below. That y is
    feasible, so the program's minimum is below the bound too: a caller that
    knows a bound every acceptable minimizer exceeds learns early that the
    solve will fail. The check never stops a solve whose bound is at most the
    minimum, so it then changes no iterate.

    The noise level is ``obs.delta``, its only source (0 is the exact
    program), and the side length N is ``ens.n``, which fixes the lift G. An
    observation whose squared norm overflows raises ``ValueError``. The
    sweeps run in power-of-two units of max(|b_i|, delta), so that no square
    underflows on tiny data.
    """
    _check_count(max_iters, "max_iters")
    if stop_below is not None and math.isnan(stop_below):
        raise ValueError("stop_below must not be NaN")
    b = _check_vector(obs.b, ens.m, "observation")
    if not math.isfinite(_norm(b)):
        raise ValueError("observation b is too large: its squared norm overflows")
    # a delta above every |b_i| sets the unit, so that delta / unit stays finite
    unit = _unit(max(float(np.abs(b).max(initial=0.0)), obs.delta))
    b = b / unit
    delta = obs.delta / unit
    norm_b = _norm(b)

    n = ens.n
    ylen = ens.ambient_len
    lift_ctx = HankelLift(n)
    # 1 / rho_eff; b = 0 keeps every iterate at 0 for any tau, and 1.0 keeps
    # the bounds' division by tau defined
    tau = norm_b / (_RHO * math.sqrt(ens.m)) or 1.0
    # Each sweep writes its image (U, y) and its step Z - G y into the next
    # slot of the acceleration ring; an extrapolated state has its own.
    accel = _Anderson(n * n, n * n + ylen)
    images = [_views(row, n) for row in accel.img]
    steps = [row.reshape(n, n) for row in accel.res]
    extrapolated = np.empty(n * n + ylen, dtype=complex)
    extrapolated_re = extrapolated.view(float)
    dual, y_s = _views(np.zeros(n * n + ylen, dtype=complex), n)  # the state (U_s, y_s)
    lifted_y = np.zeros((n, n), dtype=complex)  # G y_s
    z = np.zeros((n, n), dtype=complex)  # Z of the last sweep, Z_0 = 0
    best = math.inf
    converged = False

    for iterations in range(1, max_iters + 1):
        z_prev = z
        x_minus_z = lifted_y + dual  # X until Z is subtracted
        z = svt(x_minus_z, tau)
        x_minus_z -= z
        v = lift_ctx.lift_adjoint(z - dual)
        if delta == 0.0:  # perfbench pins the noise-free loop to project_affine
            y = project_affine(ens, v, b)
        else:
            y = project_ball(ens, v, b, delta)
        lifted = lift_ctx.lift(y)
        image_dual, image_y = images[accel.slot]
        np.subtract(lifted, z, out=image_dual)  # G y - Z, the primal residual
        primal_res = _norm(image_dual)
        image_dual += dual
        image_y[:] = y

        upper, lower = _bounds(n, tau, x_minus_z, z, primal_res, y, y - v, _norm(y - y_s), unit)
        gap = (upper - lower) / upper if upper else 0.0
        if gap <= _GAP_TOL:
            converged = True
            break
        if stop_below is not None and upper < stop_below and iterations < max_iters:
            break
        np.subtract(z, lifted_y, out=steps[accel.slot])
        step_norm = math.sqrt(accel.push())
        if iterations == 1:
            accel.restart(keep=0)  # the zero start is no image of a sweep
            plain = True
        else:
            if step_norm > best:
                accel.restart()
            plain = step_norm > best or not accel.extrapolate(extrapolated_re)
            best = min(best, step_norm)
        if plain:
            dual, y_s = image_dual, image_y
            lifted_y = lifted
        else:
            dual, y_s = _views(extrapolated, n)
            lifted_y = lift_ctx.lift(y_s)

    y = y * unit
    return RecoveryResult(
        x_hat=weight_apply(y, inverse=True),
        y_hat=y,
        iterations=iterations,
        primal_residual=primal_res * unit,
        dual_residual=_norm(lift_ctx.lift_adjoint(z - z_prev)) * unit,
        objective=float(np.linalg.svd(lifted, compute_uv=False).sum()) * unit,
        duality_gap=gap,
        converged=converged,
    )


def _relative_error(x, truth) -> float:
    """||x - truth|| / ||truth||, in power-of-two units of max |truth_i| so no square underflows."""
    unit = _unit(float(np.abs(truth).max()))
    return float(np.linalg.norm((x - truth) / unit) / np.linalg.norm(truth / unit))


def success(result: RecoveryResult, truth, threshold: float = SUCCESS_THRESHOLD) -> bool:
    """True iff the relative l2 recovery error is within threshold (closed)."""
    _check_positive(threshold, "threshold")
    truth = _check_vector(truth, result.x_hat.shape[0], "truth")
    if not truth.any():
        raise ValueError("truth must be nonzero")
    return _relative_error(result.x_hat, truth) <= threshold
