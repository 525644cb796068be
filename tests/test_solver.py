import numpy as np
import pytest

from hankel_recover import (
    HankelLift,
    Observation,
    RecoveryResult,
    SolverConfig,
    hankel_map,
    measure,
    random_instance,
    sample_ensemble,
    solve,
    success,
    svt,
    synthesize,
    weight_apply,
)
from hankel_recover import solver as solver_module


def _rand_mat(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_svt_shrinks_diagonal():
    out = svt(np.diag([3.0, 1.0]).astype(complex), 2.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_zero_threshold_is_identity():
    rng = np.random.default_rng(0)
    x = _rand_mat(rng, (5, 5))
    assert np.allclose(svt(x, 0.0), x, rtol=0, atol=1e-13)


def test_svt_singular_values_follow_shrinkage():
    rng = np.random.default_rng(1)
    x = _rand_mat(rng, (6, 6))
    s = np.linalg.svd(x, compute_uv=False)
    for tau in (0.1, 1.0, s[0] + 1.0):
        out_s = np.linalg.svd(svt(x, tau), compute_uv=False)
        assert np.allclose(out_s, np.maximum(s - tau, 0.0), atol=1e-10)


def test_svt_nuclear_norm_nonincreasing_in_tau():
    rng = np.random.default_rng(2)
    x = _rand_mat(rng, (6, 6))
    nucs = [np.linalg.svd(svt(x, tau), compute_uv=False).sum() for tau in (0.0, 0.3, 1.0, 3.0)]
    assert all(a >= b - 1e-12 for a, b in zip(nucs, nucs[1:]))


def test_svt_is_prox_of_nuclear_norm():
    # brute-force optimality probe: 1e4 random perturbations never beat the prox
    rng = np.random.default_rng(3)
    x = _rand_mat(rng, (5, 5))
    tau = 0.7
    out = svt(x, tau)
    base = tau * np.linalg.svd(out, compute_uv=False).sum() + 0.5 * np.linalg.norm(out - x) ** 2
    dirs = _rand_mat(rng, (10_000, 5, 5))
    scales = 10.0 ** rng.uniform(-3, 0, size=10_000)
    cands = out[None] + dirs * scales[:, None, None]
    sv = np.linalg.svd(cands, compute_uv=False)
    objs = tau * sv.sum(axis=1) + 0.5 * (np.abs(cands - x[None]) ** 2).reshape(10_000, -1).sum(axis=1)
    assert objs.min() >= base - 1e-12


def _svt_by_svd(x, tau):
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vh


def _with_spectrum(rng, shape, s):
    """Random complex matrix of the given shape and singular values s."""
    left, _ = np.linalg.qr(_rand_mat(rng, (shape[0], len(s))))
    right, _ = np.linalg.qr(_rand_mat(rng, (shape[1], len(s))))
    return (left * s) @ right.conj().T


def _svt_route(monkeypatch, x, tau):
    """svt(x, tau) and whether it fell back to the full SVD."""
    svd_calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svd_calls.append(1)
        return real_svd(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", counting_svd)
        out = svt(x, tau)
    return out, bool(svd_calls)


def _assert_matches_svd_definition(out, x, tau):
    ref = _svt_by_svd(x, tau)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(64, 64), (96, 40), (40, 96)])
def test_svt_matches_svd_definition_across_scales(shape, monkeypatch):
    # sigma_1 / tau from 1 to 1e8 with a cluster of singular values at tau:
    # the Gram route serves the low ratios, the full-SVD fallback the high ones
    rng = np.random.default_rng(11)
    k = min(shape)
    tau = 0.3
    routes = set()
    for ratio in 10.0 ** np.arange(9):
        s = np.sort(
            np.concatenate(
                [[ratio], 1.0 + rng.uniform(-0.01, 0.01, k // 4), np.geomspace(ratio, 1e-3, k - 1 - k // 4)]
            )
        )[::-1]
        x = _with_spectrum(rng, shape, tau * s)
        out, fell_back = _svt_route(monkeypatch, x, tau)
        routes.add(fell_back)
        _assert_matches_svd_definition(out, x, tau)
    assert routes == {False, True}


def test_svt_matches_svd_definition_when_rank_deficient():
    rng = np.random.default_rng(12)
    for shape, rank in (((64, 64), 5), ((50, 30), 1), ((30, 50), 29)):
        s = np.zeros(min(shape))
        s[:rank] = np.geomspace(10.0, 0.1, rank)
        x = _with_spectrum(rng, shape, s)
        for tau in (0.05, 0.5, 2.0, 20.0):
            _assert_matches_svd_definition(svt(x, tau), x, tau)


def test_svt_zero_threshold_matches_svd_definition():
    rng = np.random.default_rng(13)
    for shape in ((64, 64), (12, 5), (5, 12)):
        x = _rand_mat(rng, shape)
        out = svt(x, 0.0)
        _assert_matches_svd_definition(out, x, 0.0)
        assert np.linalg.norm(out - x) <= 1e-10 * np.linalg.norm(x)


def test_svt_matches_svd_definition_on_admm_iterates(monkeypatch):
    # the complex-symmetric Hankel-plus-dual matrices the solver thresholds
    # at N = 64, below (cap-hit) and above the phase transition
    inputs = []

    def recording(x_mat, tau):
        inputs.append((x_mat.copy(), tau))
        return svt(x_mat, tau)

    monkeypatch.setattr(solver_module, "svt", recording)
    n = 64
    for r, m, seed in ((2, 12, 5), (3, 60, 6)):
        x = synthesize(random_instance(n, r, "sinusoid", seed))
        ens = sample_ensemble(m, n, seed + 100)
        solve(ens, measure(ens, x), HankelLift(n), SolverConfig(max_iters=40))
    assert len(inputs) == 80
    for x_mat, tau in inputs[1::3]:
        _assert_matches_svd_definition(svt(x_mat, tau), x_mat, tau)


def test_svt_rejects_negative_tau():
    with pytest.raises(ValueError):
        svt(np.eye(3), -0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_primal=0.0)
    with pytest.raises(ValueError):
        SolverConfig(delta=-1e-3)


def test_solve_square_system_is_direct():
    n = 16
    sig = random_instance(n, 2, "sinusoid", 31)
    x = synthesize(sig)
    ens = sample_ensemble(2 * n - 1, n, 32)
    obs = measure(ens, x)
    res = solve(ens, obs, HankelLift(n))
    direct = weight_apply(np.linalg.solve(ens.b_matrix, obs.b), inverse=True)
    assert np.linalg.norm(res.x_hat - direct) <= 1e-8 * np.linalg.norm(direct)
    assert res.converged
    assert res.iterations <= 50


def test_solve_exact_recovery_instance():
    n = 16
    sig = random_instance(n, 2, "sinusoid", 41)
    x = synthesize(sig)
    ens = sample_ensemble(24, n, 42)
    obs = measure(ens, x)
    res = solve(ens, obs, HankelLift(n))
    rel = np.linalg.norm(res.x_hat - x) / np.linalg.norm(x)
    assert rel < 1e-4
    assert res.converged
    assert success(res, x, 1e-3)
    # final iterate satisfies the constraint to projection accuracy
    feas = np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b)
    assert feas <= 1e-9 * (1.0 + np.linalg.norm(obs.b))
    # recovered objective matches the nuclear norm of the lifted recovery
    assert res.objective == pytest.approx(
        np.linalg.svd(hankel_map(res.x_hat, n), compute_uv=False).sum(), rel=1e-8
    )


def test_solve_zero_data_returns_zero():
    n = 8
    ens = sample_ensemble(10, n, 5)
    obs = Observation(np.zeros(10, dtype=complex))
    res = solve(ens, obs, HankelLift(n))
    assert np.linalg.norm(res.x_hat) == 0.0
    assert res.converged
    assert res.iterations == 1
    assert res.objective == 0.0


def test_solve_noisy_program_respects_ball():
    n = 12
    sig = random_instance(n, 2, "sinusoid", 8)
    x = synthesize(sig)
    ens = sample_ensemble(18, n, 9)
    delta = 1e-2
    obs = measure(ens, x, delta, rng_seed=10)
    res = solve(ens, obs, HankelLift(n), SolverConfig(delta=delta, max_iters=600))
    gap = np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b)
    assert gap <= delta * (1 + 1e-6)
    weighted = np.linalg.norm(HankelLift(n).d_diag * (res.x_hat - x))
    assert weighted <= 50 * delta  # stability at a generous constant


def test_solve_reads_noise_level_from_observation():
    n = 12
    x = synthesize(random_instance(n, 2, "sinusoid", 8))
    ens = sample_ensemble(18, n, 9)
    delta = 1e-2
    obs = measure(ens, x, delta, rng_seed=10)
    res = solve(ens, obs, HankelLift(n), SolverConfig(max_iters=600))
    # the noise-ball program ran: its constraint is active, where the
    # equality-constrained program would fit b exactly
    gap = np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b)
    assert 0.5 * delta <= gap <= delta * (1 + 1e-6)
    matching = solve(ens, obs, HankelLift(n), SolverConfig(delta=delta, max_iters=600))
    assert np.array_equal(res.x_hat, matching.x_hat)


def test_solve_rejects_conflicting_delta():
    n = 8
    x = synthesize(random_instance(n, 1, "sinusoid", 3))
    ens = sample_ensemble(10, n, 4)
    with pytest.raises(ValueError, match="delta"):
        solve(ens, measure(ens, x, 1e-2, rng_seed=5), HankelLift(n), SolverConfig(delta=2e-2))
    with pytest.raises(ValueError, match="delta"):
        solve(ens, measure(ens, x), HankelLift(n), SolverConfig(delta=1e-2))


def test_solve_deterministic():
    n = 10
    sig = random_instance(n, 2, "sinusoid", 17)
    x = synthesize(sig)
    ens = sample_ensemble(14, n, 18)
    obs = measure(ens, x)
    a = solve(ens, obs, HankelLift(n))
    b = solve(ens, obs, HankelLift(n))
    assert np.array_equal(a.x_hat, b.x_hat)
    assert a.iterations == b.iterations
    assert a.primal_residual == b.primal_residual
    assert a.objective == b.objective


def test_solve_nonconvergence_is_flagged_not_raised():
    n = 12
    sig = random_instance(n, 3, "sinusoid", 19)
    x = synthesize(sig)
    ens = sample_ensemble(16, n, 20)
    obs = measure(ens, x)
    res = solve(ens, obs, HankelLift(n), SolverConfig(max_iters=3))
    assert isinstance(res, RecoveryResult)
    assert not res.converged
    assert res.iterations == 3


def test_solve_dimension_mismatch():
    ens = sample_ensemble(6, 8, 0)
    obs = Observation(np.zeros(6, dtype=complex))
    with pytest.raises(ValueError):
        solve(ens, obs, HankelLift(9))
    with pytest.raises(ValueError):
        solve(ens, Observation(np.zeros(7, dtype=complex)), HankelLift(8))


def test_success_threshold_is_closed():
    # binary-exact construction: relative error is exactly 0.25
    truth = np.zeros(5, dtype=complex)
    truth[0] = 1.0
    x_hat = truth.copy()
    x_hat[1] = 0.25
    res = RecoveryResult(
        x_hat=x_hat,
        y_hat=x_hat,
        iterations=1,
        primal_residual=0.0,
        dual_residual=0.0,
        objective=0.0,
        converged=True,
    )
    assert success(res, truth, 0.25)  # boundary counts as success
    assert not success(res, truth, 0.2499)
    exact = RecoveryResult(
        x_hat=truth,
        y_hat=truth,
        iterations=1,
        primal_residual=0.0,
        dual_residual=0.0,
        objective=0.0,
        converged=True,
    )
    assert success(exact, truth, 1e-12)
    with pytest.raises(ValueError):
        success(res, np.zeros(5))
