import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_recover import (
    hankel_map,
    lift,
    lift_adjoint,
    numerical_rank,
    random_instance,
    synthesize,
    toeplitz_map,
    weight_apply,
)
from hankel_recover.hankel import HankelLift


def _inner(a, b):
    """Complex inner product <a, b> = sum a * conj(b)."""
    return np.vdot(np.asarray(b).ravel(), np.asarray(a).ravel())


def _rand_vec(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def _rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# Side length, generator seed and data scale of the property tests below.
_sides = st.integers(1, 40)
_seeds = st.integers(0, 2**32 - 1)
_scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_hankel_map_small():
    assert np.array_equal(hankel_map([1, 2, 3]), np.array([[1, 2], [2, 3]], dtype=complex))


def test_hankel_map_all_ones_is_rank_one():
    for n in (1, 3, 7):
        h = hankel_map(np.ones(2 * n - 1))
        assert np.array_equal(h, np.ones((n, n), dtype=complex))
        assert numerical_rank(h) == 1


def test_hankel_map_antidiagonals_constant():
    rng = np.random.default_rng(0)
    n = 9
    x = _rand_vec(rng, 2 * n - 1)
    h = hankel_map(x)
    for j in range(n):
        for k in range(n):
            assert h[j, k] == x[j + k]


def test_hankel_map_modal_rank_three():
    sig = random_instance(8, 3, "sinusoid", 123)
    h = hankel_map(synthesize(sig))
    s = np.linalg.svd(h, compute_uv=False)
    assert s[3] / s[0] < 1e-10
    assert numerical_rank(h) == 3
    assert numerical_rank(np.zeros((8, 8))) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_numerical_rank_rejects_non_finite_input(bad):
    h = hankel_map(np.arange(7.0))
    h[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        numerical_rank(h)


def test_hankel_map_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hankel_map([1, 2, 3, 4])
    with pytest.raises(ValueError):
        hankel_map([])  # no N with 2N-1 = 0
    with pytest.raises(ValueError):
        hankel_map(np.ones((3, 3)))


def test_lift_small_cases():
    assert np.allclose(lift([1.0, np.sqrt(2.0), 1.0]), np.ones((2, 2)), atol=1e-15)
    c = 0.3 - 1.1j
    assert np.allclose(lift([c]), [[c]])


@_property
@given(n=_sides, seed=_seeds, scale=_scales)
def test_lift_is_isometric(n, seed, scale):
    y = scale * _rand_vec(np.random.default_rng(seed), 2 * n - 1)
    assert abs(np.linalg.norm(lift(y)) - np.linalg.norm(y)) <= 1e-12 * np.linalg.norm(y)


def test_lift_adjoint_small():
    assert np.allclose(lift_adjoint(np.ones((2, 2))), [1.0, np.sqrt(2.0), 1.0])
    with pytest.raises(ValueError, match="square matrix"):
        lift_adjoint(np.ones((2, 3)))


def test_lift_adjoint_inverts_lift():
    rng = np.random.default_rng(2)
    for n in (1, 4, 16):
        y = _rand_vec(rng, 2 * n - 1)
        assert np.linalg.norm(lift_adjoint(lift(y)) - y) <= 1e-12 * np.linalg.norm(y)


@_property
@given(n=_sides, seed=_seeds, scale=_scales)
def test_adjoint_identity(n, seed, scale):
    # <G y, X> = <y, G* X>; both sides round at about eps * ||y|| ||X||,
    # the bound on either (Cauchy-Schwarz, G being an isometry)
    rng = np.random.default_rng(seed)
    y = scale * _rand_vec(rng, 2 * n - 1)
    x_mat = _rand_mat(rng, n)
    lhs = _inner(lift(y), x_mat)
    rhs = _inner(y, lift_adjoint(x_mat))
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(y) * np.linalg.norm(x_mat)


@_property
@given(n=_sides, seed=_seeds, scale=_scales)
def test_projector_idempotent_and_self_adjoint(n, seed, scale):
    rng = np.random.default_rng(seed)
    x_mat = scale * _rand_mat(rng, n)
    y_mat = _rand_mat(rng, n)
    proj = lift(lift_adjoint(x_mat))
    again = lift(lift_adjoint(proj))
    assert np.linalg.norm(again - proj) <= 1e-12 * np.linalg.norm(x_mat)
    lhs = _inner(proj, y_mat)
    rhs = _inner(x_mat, lift(lift_adjoint(y_mat)))
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(x_mat) * np.linalg.norm(y_mat)


def test_projected_matrix_is_hankel():
    rng = np.random.default_rng(5)
    n = 6
    proj = lift(lift_adjoint(_rand_mat(rng, n)))
    for j in range(n):
        for k in range(n - 1):
            if j + 1 < n:
                assert proj[j + 1, k] == pytest.approx(proj[j, k + 1], rel=1e-12, abs=1e-12)


def test_weight_apply_diagonal_values():
    d_diag = weight_apply(np.ones(7))
    weights = [1, 2, 3, 4, 3, 2, 1]  # the anti-diagonal lengths K_j for N = 4
    expected = [1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0, np.sqrt(3.0), np.sqrt(2.0), 1.0]
    assert np.allclose(d_diag, expected, atol=0)
    assert np.array_equal(d_diag, np.sqrt(weights))
    assert np.allclose(d_diag.real**2, weights, rtol=4 * np.finfo(float).eps)
    assert np.array_equal(weight_apply(np.ones(7), inverse=True), 1.0 / np.sqrt(weights))


def test_weight_palindrome_and_extremes():
    for n in (1, 2, 5, 16):
        weights = weight_apply(np.ones(2 * n - 1)).real ** 2
        assert np.array_equal(weights, weights[::-1])
        assert np.rint(weights.max()) == n
        assert weights.min() == 1
        with pytest.raises(ValueError, match="odd length"):  # signals have length 2N-1
            weight_apply(np.ones(2 * n))


def test_weight_apply_zero_and_round_trip():
    assert np.array_equal(weight_apply(np.zeros(7)), np.zeros(7, dtype=complex))
    rng = np.random.default_rng(6)
    x = _rand_vec(rng, 15)
    back = weight_apply(weight_apply(x), inverse=True)
    assert np.linalg.norm(back - x) <= 1e-14 * np.linalg.norm(x)


def test_toeplitz_map_small():
    assert np.array_equal(toeplitz_map([1, 2, 3]), np.array([[2, 1], [3, 2]], dtype=complex))


def test_toeplitz_unit_vector_is_identity():
    n = 5
    e = np.zeros(2 * n - 1)
    e[n - 1] = 1.0
    assert np.array_equal(toeplitz_map(e), np.eye(n, dtype=complex))


def test_toeplitz_is_flipped_hankel():
    rng = np.random.default_rng(7)
    n = 8
    x = _rand_vec(rng, 2 * n - 1)
    flip = np.fliplr(np.eye(n))
    assert np.allclose(toeplitz_map(x), hankel_map(x) @ flip)


def test_toeplitz_nuclear_norm_matches_hankel():
    rng = np.random.default_rng(8)
    n = 8
    x = _rand_vec(rng, 2 * n - 1)
    nuc_h = np.linalg.svd(hankel_map(x), compute_uv=False).sum()
    nuc_t = np.linalg.svd(toeplitz_map(x), compute_uv=False).sum()
    assert abs(nuc_h - nuc_t) <= 1e-10 * nuc_h


def test_modal_rank_invariant():
    for r in range(1, 7):
        sig = random_instance(16, r, "sinusoid", 100 + r)
        assert numerical_rank(hankel_map(synthesize(sig))) == r


def test_lift_context_methods_agree_with_free_functions():
    rng = np.random.default_rng(9)
    ctx = HankelLift(6)
    y = _rand_vec(rng, 11)
    x_mat = _rand_mat(rng, 6)
    assert np.array_equal(ctx.lift(y), lift(y))
    assert np.array_equal(ctx.lift_adjoint(x_mat), lift_adjoint(x_mat))
    assert np.array_equal(weight_apply(y), np.sqrt([1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]) * y)
