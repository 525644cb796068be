import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hankel_recover import (
    MeasurementEnsemble,
    Observation,
    measure,
    project_affine,
    project_ball,
    sample_ensemble,
    weight_apply,
)
from hankel_recover.measurement import _ball_multiplier


def _rand_vec(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


@st.composite
def _sketches(draw):
    """(N, M, seed) with 1 <= M <= 2N-1."""
    n = draw(st.integers(1, 24))
    return n, draw(st.integers(1, 2 * n - 1)), draw(st.integers(0, 2**32 - 1))


_scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_sample_ensemble_deterministic():
    a = sample_ensemble(6, 8, 123)
    b = sample_ensemble(6, 8, 123)
    assert np.array_equal(a.b_matrix, b.b_matrix)
    c = sample_ensemble(6, 8, 124)
    assert not np.array_equal(a.b_matrix, c.b_matrix)


def test_sample_ensemble_entry_statistics():
    # 200 x 499 ~ 1e5 entries: unit variance of the real part within 2%
    ens = sample_ensemble(200, 250, 0)
    assert ens.b_matrix.shape == (200, 499)
    assert abs(np.var(ens.b_matrix.real) - 1.0) < 0.02
    assert abs(np.var(ens.b_matrix.imag) - 1.0) < 0.02
    # mean squared column norm = 2M within 2%
    col_sq = np.sum(np.abs(ens.b_matrix) ** 2, axis=0)
    assert abs(col_sq.mean() / (2 * ens.m) - 1.0) < 0.02


def test_sample_ensemble_rejects_bool_counts():
    # bool is a numbers.Integral, but True is no count
    with pytest.raises(ValueError, match="integer"):
        sample_ensemble(True, 4)
    with pytest.raises(ValueError, match="integer"):
        sample_ensemble(1, True)


def test_sample_ensemble_validation():
    with pytest.raises(ValueError):
        sample_ensemble(0, 4, 0)
    with pytest.raises(ValueError):
        sample_ensemble(4, 0, 0)
    with pytest.raises(ValueError, match="integer"):
        sample_ensemble(2.5, 8)
    with pytest.raises(ValueError, match="integer"):
        sample_ensemble(2, 8.0)
    with pytest.raises(ValueError):
        MeasurementEnsemble(np.ones((3, 6)))  # even width: no N with 2N-1 columns
    with pytest.raises(ValueError):
        sample_ensemble(8, 4, 0)  # M > 2N-1: no projection onto B y = b
    with pytest.raises(ValueError, match="rank deficient"):
        MeasurementEnsemble(np.ones((3, 7)))
    rows = sample_ensemble(3, 4, 0).b_matrix
    with pytest.raises(ValueError, match="rank deficient"):
        MeasurementEnsemble(np.vstack([rows, rows[0] + 2j * rows[1]]))


def test_observation_validation():
    for delta in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="delta"):
            Observation(np.zeros(3, dtype=complex), delta)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="observation b"):
            Observation(np.array([1.0, bad, 0.0]))
    with pytest.raises(ValueError, match="expected a vector"):
        Observation(np.zeros((2, 3)))


def test_measure_noise_free_is_exact_and_linear():
    rng = np.random.default_rng(1)
    ens = sample_ensemble(10, 8, 2)
    x1 = _rand_vec(rng, 15)
    x2 = _rand_vec(rng, 15)
    b1 = measure(ens, x1).b
    b2 = measure(ens, x2).b
    b12 = measure(ens, x1 + 3j * x2).b
    assert np.allclose(b12, b1 + 3j * b2, rtol=1e-12)
    assert np.allclose(b1, ens.b_matrix @ weight_apply(x1), rtol=0, atol=0)


def test_measure_noise_norm_is_exact():
    rng = np.random.default_rng(3)
    ens = sample_ensemble(12, 8, 4)
    x = _rand_vec(rng, 15)
    for delta in (1e-6, 0.31, 7.0):
        obs = measure(ens, x, delta, rng_seed=99)
        gap = np.linalg.norm(obs.b - ens.b_matrix @ weight_apply(x))
        assert abs(gap - delta) <= 1e-12 * max(1.0, delta)
        assert obs.delta == delta


def test_measure_zero_signal_unit_noise():
    ens = sample_ensemble(9, 8, 5)
    obs = measure(ens, np.zeros(15), 1.0, rng_seed=0)
    assert abs(np.linalg.norm(obs.b) - 1.0) < 1e-12


def test_measure_validation():
    ens = sample_ensemble(4, 4, 0)
    with pytest.raises(ValueError):
        measure(ens, np.zeros(5))
    for delta in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise_delta"):
            measure(ens, np.zeros(7), delta)
    x = np.zeros(7, dtype=complex)
    x[3] = complex(np.nan, 0.0)
    with pytest.raises(ValueError, match="signal x"):
        measure(ens, x)
    # finite entries whose weighted measurements overflow: no numpy warning, one ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="observation b must have finite entries"):
            measure(ens, np.full(7, 1e308 + 1e308j))


@_property
@given(sketch=_sketches(), scale=_scales)
def test_project_affine_satisfies_constraint(sketch, scale):
    n, m, seed = sketch
    rng = np.random.default_rng(seed)
    ens = sample_ensemble(m, n, rng)
    v = scale * _rand_vec(rng, 2 * n - 1)
    b = scale * _rand_vec(rng, m)
    y = project_affine(ens, v, b)
    assert np.linalg.norm(ens.b_matrix @ y - b) <= 1e-9 * np.linalg.norm(b)


def test_project_affine_idempotent():
    rng = np.random.default_rng(7)
    ens = sample_ensemble(11, 8, 8)
    v = _rand_vec(rng, 15)
    b = _rand_vec(rng, 11)
    y = project_affine(ens, v, b)
    again = project_affine(ens, y, b)
    assert np.linalg.norm(again - y) <= 1e-12 * max(1.0, np.linalg.norm(y))


def test_project_affine_square_ignores_start():
    rng = np.random.default_rng(8)
    ens = sample_ensemble(15, 8, 9)  # M = 2N-1: unique feasible point
    b = _rand_vec(rng, 15)
    y1 = project_affine(ens, _rand_vec(rng, 15), b)
    y2 = project_affine(ens, _rand_vec(rng, 15), b)
    direct = np.linalg.solve(ens.b_matrix, b)
    assert np.linalg.norm(y1 - y2) <= 1e-9 * np.linalg.norm(direct)
    assert np.linalg.norm(y1 - direct) <= 1e-9 * np.linalg.norm(direct)


def test_project_affine_step_orthogonal_to_null_space():
    rng = np.random.default_rng(9)
    ens = sample_ensemble(10, 8, 10)
    v = _rand_vec(rng, 15)
    b = _rand_vec(rng, 10)
    y = project_affine(ens, v, b)
    null_basis = scipy.linalg.null_space(ens.b_matrix)
    assert null_basis.shape[1] == 15 - 10
    overlap = np.max(np.abs(null_basis.conj().T @ (y - v)))
    assert overlap <= 1e-10 * np.linalg.norm(y - v)


def test_project_ball_interior_point_unchanged():
    rng = np.random.default_rng(10)
    ens = sample_ensemble(9, 8, 11)
    v = _rand_vec(rng, 15)
    b = ens.b_matrix @ v  # gap 0: any positive delta keeps v inside
    y = project_ball(ens, v, b, 0.5)
    assert np.array_equal(y, v)


def test_project_ball_zero_delta_matches_affine():
    rng = np.random.default_rng(11)
    ens = sample_ensemble(9, 8, 12)
    v = _rand_vec(rng, 15)
    b = _rand_vec(rng, 9)
    assert np.linalg.norm(project_ball(ens, v, b, 0.0) - project_affine(ens, v, b)) <= 1e-8


@pytest.mark.parametrize("delta", [1e-300, 1e-160, 1e-120])
def test_project_ball_sub_rounding_delta_matches_affine(delta):
    # Newton on a delta this far below the misfit would overflow (1 + mu s^2)^3
    rng = np.random.default_rng(15)
    ens = sample_ensemble(10, 8, 16)
    v = _rand_vec(rng, 15)
    b = _rand_vec(rng, 10)
    y = project_ball(ens, v, b, delta)
    y_affine = project_affine(ens, v, b)
    assert np.all(np.isfinite(y))
    assert np.linalg.norm(y - y_affine) <= 1e-12 * np.linalg.norm(y_affine)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [2.0**-700, 1e-200, 1e-160, 1e160])
def test_project_ball_is_scale_free(scale):
    # the misfit's squares underflow or overflow at these scales; the
    # projection works in power-of-two units of the misfit, so y / scale is
    # the unit-scale point, exactly when the scale is a power of two
    rng = np.random.default_rng(17)
    ens = sample_ensemble(10, 8, 3)
    v = np.zeros(15, dtype=complex)
    b = _rand_vec(rng, 10)
    base = project_ball(ens, v, b, 1e-3)
    y = project_ball(ens, v, scale * b, 1e-3 * scale)
    assert np.linalg.norm(y / scale - base) <= 1e-12 * np.linalg.norm(base)
    if scale == 2.0**-700:
        assert np.array_equal(y / scale, base)
    # on the ball's boundary, to the rounding of the residual's evaluation
    assert np.linalg.norm((ens.b_matrix @ y - scale * b) / scale) <= 1e-3 * (1.0 + 1e-9)


@_property
@given(sketch=_sketches(), scale=_scales, ratio=st.floats(1e-6, 0.99))
def test_project_ball_feasibility_and_kkt(sketch, scale, ratio):
    # delta is a fraction of v's misfit ||B v - b||, so v lies outside the ball
    n, m, seed = sketch
    rng = np.random.default_rng(seed)
    ens = sample_ensemble(m, n, rng)
    v = scale * _rand_vec(rng, 2 * n - 1)
    b = scale * _rand_vec(rng, m)
    gap = np.linalg.norm(ens.b_matrix @ v - b)
    delta = ratio * gap
    y = project_ball(ens, v, b, delta)
    resid = ens.b_matrix @ y - b
    # the residual's evaluation rounds at about 1e-15 of the gap
    assert abs(np.linalg.norm(resid) - delta) <= 1e-9 * delta + 1e-13 * gap
    # KKT: y - v = -mu * B^H (B y - b) for some mu >= 0
    grad = ens.b_matrix.conj().T @ resid
    step = y - v
    mu = -np.real(np.vdot(grad, step)) / np.linalg.norm(grad) ** 2
    assert mu > 0
    assert np.linalg.norm(step + mu * grad) <= 1e-6 * np.linalg.norm(step)


def test_project_ball_multiplier_matches_brent():
    rng = np.random.default_rng(14)
    cases = [(ratio, scale) for ratio in np.geomspace(1e-8, 0.9, 8) for scale in (1e-6, 1.0, 1e6)]
    for trial, (ratio, scale) in enumerate(cases):
        ens = sample_ensemble(int(rng.integers(1, 16)), 8, 200 + trial)
        v = scale * _rand_vec(rng, 15)
        b = scale * _rand_vec(rng, ens.m)
        w = ens.b_matrix @ v - b
        gap = np.linalg.norm(w)
        delta = ratio * gap
        y = project_ball(ens, v, b, delta)
        # the residual's evaluation rounds at about 1e-15 of the gap
        assert abs(np.linalg.norm(ens.b_matrix @ y - b) - delta) <= 1e-9 * delta + 1e-13 * gap
        u, s, _ = np.linalg.svd(ens.b_matrix, full_matrices=False)
        wt2 = np.abs(u.conj().T @ w) ** 2
        s2 = s**2
        hi = 1.0 / (ratio * float(s2.min()))  # ||r(hi)|| <= gap / (1 + hi s_min^2) < delta
        ref = brentq(lambda mu: float(wt2 @ (1.0 + mu * s2) ** -2) - delta**2, 0.0, hi, xtol=1e-300, rtol=1e-14)
        assert abs(_ball_multiplier(wt2, s2, delta) - ref) <= 1e-10 * ref


def test_project_ball_never_beats_affine_objective():
    rng = np.random.default_rng(13)
    ens = sample_ensemble(10, 8, 14)
    v = _rand_vec(rng, 15)
    b = _rand_vec(rng, 10)
    y_affine = project_affine(ens, v, b)
    for delta in (1e-4, 0.1, 1.0):
        y_ball = project_ball(ens, v, b, delta)
        assert np.linalg.norm(y_ball - v) <= np.linalg.norm(y_affine - v) * (1 + 1e-12)


def test_project_ball_validation():
    ens = sample_ensemble(4, 4, 0)
    for delta in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="delta"):
            project_ball(ens, np.zeros(7), np.zeros(4), delta)
