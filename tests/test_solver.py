import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_recover import (
    MAX_ITERS,
    Observation,
    RecoveryResult,
    derive_seed,
    hankel_map,
    lift,
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
    sweeps = 0
    for r, m, seed, cap in ((2, 12, 5, 60), (3, 60, 6, 40)):
        x = synthesize(random_instance(n, r, "sinusoid", seed))
        ens = sample_ensemble(m, n, seed + 100)
        sweeps += solve(ens, measure(ens, x), max_iters=cap).iterations
    assert len(inputs) == sweeps >= 75  # one svt per sweep
    for x_mat, tau in inputs[1::3]:
        _assert_matches_svd_definition(svt(x_mat, tau), x_mat, tau)


def test_svt_rejects_negative_tau():
    for tau in (-0.1, np.nan, -np.inf):
        with pytest.raises(ValueError, match="tau"):
            svt(np.eye(3), tau)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_svt_rejects_non_finite_input(bad):
    x = _rand_mat(np.random.default_rng(15), (6, 9))
    x[2, 4] = bad
    for a in (x, x.T):
        for tau in (0.0, 0.5):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
                svt(a, tau)


def test_svt_falls_back_to_svd_when_gram_overflows():
    # A^H A overflows for this finite input
    x = _rand_mat(np.random.default_rng(16), (8, 8))
    scale = 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        out = svt(x * scale, 0.5 * scale)
    _assert_matches_svd_definition(out / scale, x, 0.5)


def test_config_validation():
    ens = sample_ensemble(4, 3, 0)
    obs = measure(ens, synthesize(random_instance(3, 1, "sinusoid", 0)))
    for bad in (0, np.nan, 2.5):
        with pytest.raises(ValueError, match="max_iters"):
            solve(ens, obs, max_iters=bad)


def test_solve_square_system_is_direct():
    n = 16
    sig = random_instance(n, 2, "sinusoid", 31)
    x = synthesize(sig)
    ens = sample_ensemble(2 * n - 1, n, 32)
    obs = measure(ens, x)
    res = solve(ens, obs)
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
    res = solve(ens, obs)
    rel = np.linalg.norm(res.x_hat - x) / np.linalg.norm(x)
    assert rel < 1e-4
    assert res.converged
    assert success(res, x, 1e-3)
    # final iterate satisfies the constraint to projection accuracy
    feas = np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b)
    assert feas <= 1e-9 * (1.0 + np.linalg.norm(obs.b))
    # recovered objective matches the nuclear norm of the lifted recovery
    assert res.objective == pytest.approx(
        np.linalg.svd(hankel_map(res.x_hat), compute_uv=False).sum(), rel=1e-8
    )


def test_solve_zero_data_returns_zero():
    n = 8
    ens = sample_ensemble(10, n, 5)
    obs = Observation(np.zeros(10, dtype=complex))
    res = solve(ens, obs)
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
    res = solve(ens, obs, max_iters=600)
    gap = np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b)
    assert gap <= delta * (1 + 1e-6)
    weighted = np.linalg.norm(weight_apply(res.x_hat - x))
    assert weighted <= 50 * delta  # stability at a generous constant


def test_anderson_singular_system_leaves_out_alone():
    # two pushes of the same residual: the differences' Gram matrix is 0
    accel = solver_module._Anderson(3, 4)
    rng = np.random.default_rng(5)
    res, img = _rand_mat(rng, 3), _rand_mat(rng, 4)
    for _ in range(2):
        accel.res[accel.slot], accel.img[accel.slot] = res, img
        accel.push()
    out = np.full(8, 7.0)
    assert accel.extrapolate(out) is False
    assert np.all(out == 7.0)


def test_solve_ball_feasible_at_cap_after_extrapolated_step(monkeypatch):
    # An extrapolated state may leave the noise ball; the returned point is
    # the last projection's output, so it is feasible wherever the cap falls.
    n = 12
    x = synthesize(random_instance(n, 2, "sinusoid", 8))
    ens = sample_ensemble(18, n, 9)
    delta = 1e-2
    obs = measure(ens, x, delta, rng_seed=10)
    events = []
    real_svt, real_extrapolate = solver_module.svt, solver_module._Anderson.extrapolate

    def counting_svt(x_mat, tau):
        events.append(None)
        return real_svt(x_mat, tau)

    def recording_extrapolate(self, out):
        done = real_extrapolate(self, out)
        if done:
            y = out.view(complex)[n * n : n * n + 2 * n - 1]
            events.append(float(np.linalg.norm(ens.b_matrix @ y - obs.b)))
        return done

    monkeypatch.setattr(solver_module, "svt", counting_svt)
    monkeypatch.setattr(solver_module._Anderson, "extrapolate", recording_extrapolate)

    def outside_at(max_iters):
        """Sweep count and misfit of each extrapolated state that left the ball."""
        events.clear()
        res = solve(ens, obs, max_iters=max_iters)
        sweeps, outside = 0, {}
        for event in events:
            if event is None:
                sweeps += 1
            elif event > 1.01 * delta:
                outside[sweeps] = event
        return res, outside

    _, outside = outside_at(200)
    assert outside, "no extrapolated state left the noise ball"
    last = min(outside) + 1  # the sweep that starts from the first one
    res, outside = outside_at(last)
    assert res.iterations == last and not res.converged
    assert last - 1 in outside
    assert np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b) <= delta * (1 + 1e-6)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(log_scale=st.floats(-6.0, 6.0), trial=st.integers(0, 3))
def test_solve_is_scale_invariant(log_scale, trial):
    n = 16
    x = synthesize(random_instance(n, 2, "sinusoid", 41 + trial))
    ens = sample_ensemble(24, n, 42 + trial)
    obs = measure(ens, x)
    scale = 10.0**log_scale
    base = solve(ens, obs)
    scaled = solve(ens, Observation(scale * obs.b))
    assert scaled.converged == base.converged
    assert np.linalg.norm(scaled.x_hat - scale * base.x_hat) <= 1e-6 * scale * np.linalg.norm(base.x_hat)
    assert success(scaled, scale * x) == success(base, x)


def test_converged_failures_beat_the_truth():
    # Below the transition (N = 32, R = 2, M = 4) a converged solve that
    # misses the truth must have found a feasible point of smaller nuclear
    # norm: converging elsewhere is the program's outcome, not the solver's.
    n, r, m = 32, 2, 4
    converged_failures = 0
    for seed in range(6):
        x = synthesize(random_instance(n, r, "sinusoid", seed))
        ens = sample_ensemble(m, n, 1000 + seed)
        obs = measure(ens, x)
        res = solve(ens, obs)
        assert np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b) <= 1e-9 * np.linalg.norm(obs.b)
        if res.converged and not success(res, x):
            converged_failures += 1
            nuc_hat = np.linalg.svd(lift(res.y_hat), compute_uv=False).sum()
            nuc_true = np.linalg.svd(lift(weight_apply(x)), compute_uv=False).sum()
            assert nuc_hat < (1.0 - 1e-6) * nuc_true, f"seed {seed}: converged to a point that does not beat the truth"
    assert converged_failures >= 2


def test_solve_reads_noise_level_from_observation():
    n = 12
    x = synthesize(random_instance(n, 2, "sinusoid", 8))
    ens = sample_ensemble(18, n, 9)
    delta = 1e-2
    obs = measure(ens, x, delta, rng_seed=10)
    res = solve(ens, obs, max_iters=600)
    # the noise-ball program ran: its constraint is active, where the
    # equality-constrained program would fit b exactly
    gap = np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b)
    assert 0.5 * delta <= gap <= delta * (1 + 1e-6)


def test_solve_deterministic():
    n = 10
    sig = random_instance(n, 2, "sinusoid", 17)
    x = synthesize(sig)
    ens = sample_ensemble(14, n, 18)
    obs = measure(ens, x)
    a = solve(ens, obs)
    b = solve(ens, obs)
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
    res = solve(ens, obs, max_iters=3)
    assert isinstance(res, RecoveryResult)
    assert not res.converged
    assert res.iterations == 3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_weighted_lift_nuclear_norm_is_at_most_n_times_norm(n, seed, log_scale):
    # ||G D e||_* <= sqrt(N) ||G D e||_F = sqrt(N) ||D e|| <= N ||e||: the bound
    # behind the phase transition's certified failures
    e = 10.0**log_scale * _rand_mat(np.random.default_rng(seed), 2 * n - 1)
    nuclear = np.linalg.svd(lift(weight_apply(e)), compute_uv=False).sum()
    assert nuclear <= n * np.linalg.norm(e) * (1.0 + 1e-12)


def _below_transition_instance():
    # N = 16, R = 2, M = 5: a solve that converges after about 120 sweeps
    x = synthesize(random_instance(16, 2, "sinusoid", 3))
    ens = sample_ensemble(5, 16, 4)
    return ens, measure(ens, x)


def test_solve_bound_below_the_minimum_changes_nothing():
    ens, obs = _below_transition_instance()
    plain = solve(ens, obs)
    assert plain.converged and plain.iterations > 1
    bounded = solve(ens, obs, stop_below=(1.0 - 1e-6) * plain.objective)
    assert np.array_equal(bounded.x_hat, plain.x_hat)
    assert bounded.iterations == plain.iterations
    assert bounded.converged and bounded.objective == plain.objective


def test_solve_bound_above_the_minimum_stops_at_a_check(monkeypatch):
    ens, obs = _below_transition_instance()
    uppers = []
    real_bounds = solver_module._bounds

    def recording_bounds(*args):
        upper, lower = real_bounds(*args)
        uppers.append(upper)
        return upper, lower

    monkeypatch.setattr(solver_module, "_bounds", recording_bounds)
    plain = solve(ens, obs)
    # every sweep is a check: the solve stops at the first sweep whose upper
    # bound on ||G y||_* falls below the bound, here not the first sweep
    bound = 1.2 * plain.objective
    first = next(k for k, upper in enumerate(uppers, 1) if upper < bound)
    assert 1 < first < plain.iterations
    res = solve(ens, obs, stop_below=bound)
    assert not res.converged
    assert res.iterations == first
    assert np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b) <= 1e-9 * np.linalg.norm(obs.b)
    assert res.objective < bound
    assert res.objective == pytest.approx(np.linalg.svd(lift(res.y_hat), compute_uv=False).sum(), rel=1e-12)
    # at the cap the stop is not taken, so converged=False with iterations <
    # max_iters always means a stop below the bound
    capped = solve(ens, obs, max_iters=first, stop_below=bound)
    assert capped.iterations == first and not capped.converged
    with pytest.raises(ValueError, match="stop_below"):
        solve(ens, obs, stop_below=np.nan)


def _solve_recording_bounds(ens, obs, **kwargs):
    """solve(ens, obs, **kwargs) and the bounds (f_up, f_lo) of its last sweep."""
    seen = []
    real_bounds = solver_module._bounds

    def recording_bounds(*args):
        bounds = real_bounds(*args)
        seen.append(bounds)
        return bounds

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "_bounds", recording_bounds)
        res = solve(ens, obs, **kwargs)
    return res, seen[-1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 16),
    r=st.integers(1, 3),
    m_share=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
    log_noise=st.one_of(st.none(), st.floats(-4.0, -1.0)),
    max_iters=st.integers(1, 60),
    log_scale=st.floats(-6.0, 6.0),
)
def test_duality_gap_brackets_the_minimum(n, r, m_share, seed, log_noise, max_iters, log_scale):
    # f_lo <= the minimum <= ||G D x_true||_* (the truth is feasible) and
    # f_up >= ||G y_hat||_*, after any number of sweeps and for both programs
    m = max(1, round(m_share * (2 * n - 1)))
    x = synthesize(random_instance(n, r, "sinusoid", derive_seed(seed, "signal")))
    ens = sample_ensemble(m, n, derive_seed(seed, "ensemble"))
    obs = measure(ens, x)
    if log_noise is not None:
        obs = measure(ens, x, 10.0**log_noise * np.linalg.norm(obs.b), derive_seed(seed, "noise"))
    res, (upper, lower) = _solve_recording_bounds(ens, obs, max_iters=max_iters)
    assert lower <= np.linalg.svd(lift(weight_apply(x)), compute_uv=False).sum()
    assert upper >= np.linalg.svd(lift(res.y_hat), compute_uv=False).sum()
    assert res.duality_gap == pytest.approx((upper - lower) / upper, rel=1e-12)
    assert res.converged == (res.duality_gap <= solver_module._GAP_TOL)
    # the relative gap is scale-free: b -> s b and delta -> s delta
    scale = 10.0**log_scale
    scaled = solve(ens, Observation(scale * obs.b, scale * obs.delta), max_iters=max_iters)
    assert scaled.iterations == res.iterations
    assert scaled.duality_gap == pytest.approx(res.duality_gap, rel=1e-6, abs=1e-12)


def test_found_success_stops_on_its_certificate():
    # base seed 14, N = 64, R = 3, M = 36, trial 0 of the phase transition:
    # a success whose primal residual stalls near 1.2e-4 while the iterate no
    # longer moves, so only the gap can stop it before the cap
    n, r, m = 64, 3, 36
    x = synthesize(random_instance(n, r, "sinusoid", derive_seed(14, "signal", r, m, 0)))
    ens = sample_ensemble(m, n, derive_seed(14, "ensemble", r, m, 0))
    res = solve(ens, measure(ens, x))
    assert res.converged and res.iterations < MAX_ITERS
    assert res.duality_gap <= solver_module._GAP_TOL
    assert success(res, x)


def test_solve_dimension_mismatch():
    ens = sample_ensemble(6, 8, 0)
    with pytest.raises(ValueError, match="observation"):
        solve(ens, Observation(np.zeros(7, dtype=complex)))


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
        duality_gap=0.0,
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
        duality_gap=0.0,
        converged=True,
    )
    assert success(exact, truth, 1e-12)
    with pytest.raises(ValueError):
        success(res, np.zeros(5))
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="threshold"):
            success(exact, truth, bad)


def _certify_truth(ens, y_true, r):
    """||K||_op of an exact dual certificate that y_true uniquely minimizes
    ||lift(y)||_* subject to B y = B y_true, or None if none was found.

    With lift(y_true) = U S V^H of rank r, T its tangent space and P_T-perp
    the projection onto the complement, the truth is the unique minimizer when
    (i) B is injective on the Hankel tangent space {h : P_T-perp(lift(h)) = 0}
    and (ii) some Y = U_r V_r^H + U_perp K V_perp^H with ||K||_op < 1 has
    lift_adjoint(Y) in range(B^H), that is orthogonal to null(B) (Candes and
    Recht 2009). (ii) is an affine set A k = c for k = vec(K), searched by at
    most 2000 rounds of alternating projections onto it and onto the ball
    ||K||_op <= 0.99. Every lam bounds ||K||_op >= |<lam, c>| / ||A^H lam||_*
    on the affine set, so the search stops early once this bound, taken at the
    gap between the two projections, shows that no K in it has ||K||_op <= 1.
    """
    n = ens.n
    u, _, vh = np.linalg.svd(lift(y_true))
    u_perp, v_perp = u[:, r:], vh[r:].conj().T
    side = n - r

    def off_tangent(h):  # U_perp^H lift(h) V_perp, flattened
        return (u_perp.conj().T @ lift(h) @ v_perp).ravel()

    _, s, basis = np.linalg.svd(np.stack([off_tangent(e) for e in np.eye(ens.ambient_len)], axis=1))
    tangent = basis[np.count_nonzero(s > 1e-8 * s[0]) :].conj().T
    if np.linalg.svd(ens.b_matrix @ tangent, compute_uv=False).min() <= 1e-8:
        return None
    null_b = np.linalg.svd(ens.b_matrix)[2][ens.m :].conj().T
    a = np.stack([off_tangent(g).conj() for g in null_b.T])
    c = -np.array([np.vdot(lift(g), u[:, :r] @ vh[:r]) for g in null_b.T])
    a_pinv = np.linalg.pinv(a)
    k = np.zeros(side * side, dtype=complex)
    for _ in range(2000):
        k -= a_pinv @ (a @ k - c)
        ku, ks, kvh = np.linalg.svd(k.reshape(side, side))
        if ks[0] < 1.0 - 1e-9:
            return float(ks[0])
        clipped = ((ku * np.minimum(ks, 0.99)) @ kvh).ravel()
        lam = a_pinv.conj().T @ (k - clipped)
        lam_nuc = np.linalg.svd((a.conj().T @ lam).reshape(side, side), compute_uv=False).sum()
        if abs(np.vdot(lam, c)) > (1.0 + 1e-9) * lam_nuc:
            return None
        k = clipped
    return None


def test_acceptance05_m8_outcomes_are_the_convex_programs():
    # The M = 8 cell of acceptance 05's phase-transition grid (N = 16, R = 2,
    # 50 trials, seed 0), rebuilt with the harness's per-trial seeds. Each
    # outcome there belongs to the convex program, not to the solver: a
    # certified truth is the unique minimizer and must be recovered, and a
    # failure must return a feasible point that beats the truth, which no exact
    # solver could then recover. With more than 0.1 * trials certified optima,
    # no exact solver has a success rate of at most 0.1 in this cell.
    n, r, m, trials = 16, 2, 8, 50
    certified = {}
    for t in range(trials):
        x = synthesize(random_instance(n, r, "sinusoid", derive_seed(0, "signal", r, m, t)))
        ens = sample_ensemble(m, n, derive_seed(0, "ensemble", r, m, t))
        obs = measure(ens, x)
        res = solve(ens, obs)
        y_true = weight_apply(x)
        recovered = success(res, x)
        k_op = _certify_truth(ens, y_true, r)
        if k_op is not None:
            certified[t] = k_op
            assert recovered, f"trial {t}: the truth is a certified optimum but was not recovered"
        if not recovered:
            misfit = np.linalg.norm(ens.b_matrix @ res.y_hat - obs.b)
            assert misfit <= 1e-9 * np.linalg.norm(obs.b), f"trial {t}: infeasible point"
            nuc_hat = np.linalg.svd(lift(res.y_hat), compute_uv=False).sum()
            nuc_true = np.linalg.svd(lift(y_true), compute_uv=False).sum()
            assert nuc_hat < (1.0 - 1e-6) * nuc_true, f"trial {t}: failure does not beat the truth"
    assert len(certified) > 0.1 * trials, f"certified trials (||K||_op): {certified}"
