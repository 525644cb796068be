import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_recover import (
    MAX_ITERS,
    NormScan,
    PhaseGrid,
    derive_seed,
    emit_csv,
    lift,
    lift_adjoint,
    measure,
    numerical_rank,
    random_instance,
    run_norm_scan,
    run_phase_transition,
    sample_ensemble,
    solve,
    success,
    synthesize,
    weight_apply,
)
from hankel_recover import harness as harness_module
from hankel_recover.harness import THREADS_ENV_VAR, _top_singular_value, worker_count


def test_derive_seed_is_stable():
    # frozen values: changing the derivation would silently break
    # reproducibility of published runs
    assert derive_seed(0, "signal", 2, 8, 0) == 10369714296199902909
    assert derive_seed(0) == 1041621211125469266
    assert derive_seed(-5, "x") == 11002729665855482085


def test_derive_seed_separates_labels():
    seeds = {
        derive_seed(0, "signal", 1, 2, 3),
        derive_seed(0, "ensemble", 1, 2, 3),
        derive_seed(0, "signal", 1, 2, 4),
        derive_seed(0, "signal", 1, 3, 2),
        derive_seed(1, "signal", 1, 2, 3),
    }
    assert len(seeds) == 5
    assert all(0 <= s < 2**64 for s in seeds)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the seed was checked")


def test_seed_outside_signed_128_bits_is_rejected_before_any_work(monkeypatch):
    # the hash reads the base seed as 16 signed bytes: both ends of that
    # range hash, one past either end is a ValueError, as is NaN
    assert derive_seed(2**127 - 1) != derive_seed(-(2**127))
    for seed in (2**127, -(2**127) - 1, math.nan):
        with pytest.raises(ValueError, match="base_seed must satisfy"):
            derive_seed(seed)
        with pytest.raises(ValueError, match="seed label must satisfy"):
            derive_seed(0, "signal", seed)
    assert derive_seed(0, 2**127 - 1) != derive_seed(0, -(2**127))
    # a seed must be an integer: a float or a bool is not truncated to one
    for seed in (1.5, 2.9, True):
        with pytest.raises(ValueError, match="base_seed must satisfy"):
            derive_seed(seed)
        with pytest.raises(ValueError, match="seed label must satisfy"):
            derive_seed(0, "signal", seed)
    assert derive_seed(np.int64(3), np.int8(2)) == derive_seed(3, 2)
    monkeypatch.setattr("hankel_recover.harness._phase_trial", _no_work)
    monkeypatch.setattr("hankel_recover.harness._top_singular_value", _no_work)
    for seed in (2**127, 1.5, True):
        with pytest.raises(ValueError, match="base_seed must satisfy"):
            run_phase_transition(8, [1], [10], trials=2, base_seed=seed)
    for seed in (-(2**127) - 1, 2.7, True):
        with pytest.raises(ValueError, match="rng_seed must satisfy"):
            run_norm_scan([4], trials=30, rng_seed=seed)


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert worker_count() == 3
    for bad in ("0", "-3"):
        monkeypatch.setenv(THREADS_ENV_VAR, bad)
        with pytest.raises(ValueError, match=f"{THREADS_ENV_VAR} must be >= 1.*got {bad}"):
            worker_count()
    monkeypatch.setenv(THREADS_ENV_VAR, "abc")
    with pytest.raises(ValueError, match=f"{THREADS_ENV_VAR}.*'abc'"):
        worker_count()
    monkeypatch.delenv(THREADS_ENV_VAR)
    assert worker_count() >= 1
    # the pool is sized to the CPUs this process may run on, not the machine's
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert worker_count() == 1
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    assert worker_count() == 2
    monkeypatch.delenv(THREADS_ENV_VAR)
    monkeypatch.delattr("os.sched_getaffinity")
    assert worker_count() == 8


def test_phase_transition_square_cell_is_certain():
    grid = run_phase_transition(8, [2], [15], trials=5, base_seed=1)
    assert grid.success_rate[0, 0] == 1.0


def test_phase_transition_monotone_in_m():
    grid = run_phase_transition(8, [2], [5, 13], trials=10, base_seed=2)
    assert grid.success_rate[0, 1] >= grid.success_rate[0, 0]


def test_phase_transition_validates_before_work():
    with pytest.raises(ValueError):
        run_phase_transition(8, [2], [16], trials=5)  # m > 2N-1
    with pytest.raises(ValueError):
        run_phase_transition(8, [15], [8], trials=5)  # r >= 2N-1
    with pytest.raises(ValueError):
        run_phase_transition(8, [2], [8], trials=0)
    # counts must be integers, not truncated
    with pytest.raises(ValueError, match="n must"):
        run_phase_transition(8.7, [1], [15], 1)
    with pytest.raises(ValueError, match="trials must"):
        run_phase_transition(8, [1], [15], trials=2.5)
    for bad in (0, np.nan, 2.5):
        with pytest.raises(ValueError, match="max_iters"):
            run_phase_transition(8, [1], [15], 1, max_iters=bad)
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="threshold"):
            run_phase_transition(8, [2], [8], trials=5, threshold=bad)


def test_harness_count_rules_reject_bool():
    with pytest.raises(ValueError, match="integer"):
        run_phase_transition(4, [True], [7], True, max_iters=True)
    with pytest.raises(ValueError, match="r must"):
        run_phase_transition(4, [True], [7], 1)
    with pytest.raises(ValueError, match="max_iters"):
        run_phase_transition(4, [1], [7], 1, max_iters=True)
    with pytest.raises(ValueError, match="trials must"):
        run_norm_scan([4], True)


def test_phase_transition_early_stops_move_no_outcome(monkeypatch):
    # Each cell's rate equals the outcomes of plain solves, re-run trial by
    # trial; the grid crosses the transition, so some of its solves stop early.
    n, r_values, m_values, trials, seed = 16, (1, 2), (3, 5, 8, 12, 31), 5, 5
    solves = []

    def recording_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        solves.append(res)
        return res

    monkeypatch.setattr(harness_module, "solve", recording_solve)
    grid = run_phase_transition(n, r_values, m_values, trials, base_seed=seed)
    stopped = [res for res in solves if not res.converged and res.iterations < MAX_ITERS]
    assert stopped, "no solve stopped below its bound"
    for i, r in enumerate(r_values):
        for j, m in enumerate(m_values):
            outcomes = []
            for t in range(trials):
                x = synthesize(random_instance(n, r, rng_seed=derive_seed(seed, "signal", r, m, t)))
                ens = sample_ensemble(m, n, derive_seed(seed, "ensemble", r, m, t))
                outcomes.append(success(solve(ens, measure(ens, x)), x))
            assert grid.success_rate[i, j] == np.mean(outcomes), f"R={r}, M={m}"
    assert 0.0 < grid.success_rate.mean() < 1.0


def _nuclear(y):
    return np.linalg.svd(lift(y), compute_uv=False).sum()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 24),
    r=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_threshold=st.floats(-4.0, -1.0),
    log_scale=st.floats(-6.0, 6.0),
)
def test_success_floor_is_below_every_success(n, r, seed, log_threshold, log_scale):
    r = min(r, 2 * n - 2)
    x = 10.0**log_scale * synthesize(random_instance(n, r, rng_seed=seed))
    threshold = 10.0**log_threshold
    radius = threshold * np.linalg.norm(x)
    floor = harness_module._success_floor(x, threshold)
    # at least the plain bound ||G D x||_* - N threshold ||x||
    assert floor >= _nuclear(weight_apply(x)) - n * radius * (1.0 + 1e-12)
    # successes on the boundary: the steepest first-order descent direction
    # of the nuclear norm, which the floor's slope term prices exactly, and
    # random directions
    u, _, vh = np.linalg.svd(lift(weight_apply(x)))
    k = numerical_rank(lift(weight_apply(x)))
    rng = np.random.default_rng(seed)
    directions = [-weight_apply(lift_adjoint(u[:, :k] @ vh[:k]))]
    directions += [rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1) for _ in range(5)]
    for e in directions:
        e *= radius / np.linalg.norm(e)
        assert _nuclear(weight_apply(x + e)) >= floor - 1e-12 * _nuclear(weight_apply(x))


def test_phase_transition_cells_reproducible_in_isolation():
    full = run_phase_transition(8, [1, 2], [6, 15], trials=5, base_seed=7)
    single = run_phase_transition(8, [2], [6], trials=5, base_seed=7)
    assert single.success_rate[0, 0] == full.success_rate[1, 0]


def test_phase_transition_worker_pool_does_not_change_rates(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "1")
    serial = run_phase_transition(8, [2], [6, 15], trials=6, base_seed=3)
    monkeypatch.setenv(THREADS_ENV_VAR, "4")
    threaded = run_phase_transition(8, [2], [6, 15], trials=6, base_seed=3)
    assert np.array_equal(serial.success_rate, threaded.success_rate)


def test_norm_scan_statistics():
    scan = run_norm_scan([1], trials=200, rng_seed=5)
    # spectral norm of the 1x1 lift is |g0|, Rayleigh with mean sqrt(pi/2)
    assert abs(scan.means[0] - math.sqrt(math.pi / 2)) <= 3 * scan.stderrs[0]
    assert scan.stderrs[0] > 0


def test_norm_scan_deterministic_and_validated():
    # Lanczos starts from a fixed vector; at N = 128 it runs several
    # convergence checks before it stops
    a = run_norm_scan([2, 4, 128], trials=40, rng_seed=9)
    b = run_norm_scan([2, 4, 128], trials=40, rng_seed=9)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.stderrs, b.stderrs)
    with pytest.raises(ValueError):
        run_norm_scan([4], trials=29)
    with pytest.raises(ValueError):
        run_norm_scan([0], trials=50)
    with pytest.raises(ValueError, match="n must"):
        run_norm_scan([4.6], trials=30)
    with pytest.raises(ValueError, match="trials must"):
        run_norm_scan([4], trials=30.5)


def test_results_are_read_only():
    scan = run_norm_scan([4], trials=30)
    grid = run_phase_transition(4, [1], [7], 1)
    for values in (scan.means, scan.stderrs, grid.success_rate):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 99


def _lifted_gaussian(n, rng):
    g = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    return lift(g)


@pytest.mark.parametrize("n, samples", [(2, 8), (16, 8), (64, 4), (128, 4), (512, 2)])
def test_top_singular_value_matches_svd(n, samples):
    rng = np.random.default_rng(n)
    for _ in range(samples):
        a = _lifted_gaussian(n, rng)
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(_top_singular_value(a) - want) <= 1e-12 * want
    # a clustered top pair, sigma_2 = sigma_1 (1 - 1e-9) and sigma_2 = sigma_1,
    # between random unitaries, with the rest of the spectrum below 0.9
    for gap in (1e-9, 0.0):
        s = np.concatenate(([1.0, 1.0 - gap], rng.uniform(0.0, 0.9, n - 2)))
        left, _ = np.linalg.qr(_lifted_gaussian(n, rng))
        right, _ = np.linalg.qr(_lifted_gaussian(n, rng))
        a = (left * s) @ right.conj().T
        assert abs(_top_singular_value(a) - 1.0) <= 1e-12


def test_top_singular_value_rectangular_and_tiny():
    rng = np.random.default_rng(1)
    for shape in [(1, 1), (1, 5), (5, 1), (40, 7), (7, 40)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(_top_singular_value(a) - want) <= 1e-12 * want


def test_top_singular_value_of_zero_is_zero():
    with np.errstate(all="raise"):
        assert _top_singular_value(np.zeros((6, 6), dtype=complex)) == 0.0
        assert _top_singular_value(np.zeros((3, 8), dtype=complex)) == 0.0


@pytest.mark.parametrize("z", [0.97 * np.exp(0.3j), 1.0, -0.5, 0.9j])
def test_top_singular_value_rank_one_breakdown_is_exact(z, monkeypatch):
    # lift(D x) = H(x) = a a^T for x_k = z^k, a = (z^0, ..., z^(n-1)): rank
    # one with norm ||a||^2, so the Krylov space is invariant after one step
    n = 200
    a_mat = lift(weight_apply(z ** np.arange(2 * n - 1)))
    want = float(np.sum(np.abs(z) ** (2 * np.arange(n))))
    checks = []  # convergence tests run; a breakdown at step 2 comes before any
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: checks.append(m.shape) or eigh(m))
    with np.errstate(all="raise"):  # no division by a vanishing beta
        got = _top_singular_value(a_mat)
    assert checks == []
    assert abs(got - want) <= 1e-13 * want


def test_norm_scan_stderr_shrinks_with_trials():
    small = run_norm_scan([8], trials=50, rng_seed=11)
    large = run_norm_scan([8], trials=200, rng_seed=11)
    ratio = small.stderrs[0] / large.stderrs[0]
    assert 1.4 <= ratio <= 2.9  # expected 2 = sqrt(200/50), within sampling noise


def test_emit_csv_phase_grid_schema(tmp_path):
    grid = run_phase_transition(8, [2, 1], [15, 6], trials=4, base_seed=4)
    path = tmp_path / "grid.csv"
    emit_csv(grid, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,R,M,trials,threshold,success_rate"
    assert len(lines) == 5
    # rows sorted by (R, M) even though inputs were not
    keys = [tuple(map(float, ln.split(",")[1:3])) for ln in lines[1:]]
    assert keys == sorted(keys)
    for ln in lines[1:]:
        n, r, m, trials, threshold, rate = ln.split(",")
        assert int(n) == 8 and int(trials) == 4
        assert 0.0 <= float(rate) <= 1.0


def test_emit_csv_round_trip_9_digits(tmp_path):
    rate = np.array([[1.0 / 3.0, 0.123456789]])
    grid = PhaseGrid(
        n=8, r_values=(2,), m_values=(6, 7), trials=9, threshold=1e-3,
        base_seed=0, success_rate=rate,
    )
    path = tmp_path / "grid.csv"
    emit_csv(grid, path)
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    parsed = [float(row[-1]) for row in rows]
    for got, want in zip(parsed, rate[0]):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_emit_csv_empty_grid_is_header_only(tmp_path):
    grid = PhaseGrid(
        n=8, r_values=(), m_values=(), trials=1, threshold=1e-3,
        base_seed=0, success_rate=np.zeros((0, 0)),
    )
    path = tmp_path / "empty.csv"
    emit_csv(grid, path)
    assert path.read_text(encoding="utf-8") == "N,R,M,trials,threshold,success_rate\n"


def test_emit_csv_norm_scan_schema(tmp_path):
    scan = run_norm_scan([4, 2], trials=40, rng_seed=13)
    path = tmp_path / "scan.csv"
    emit_csv(scan, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,trials,mean_norm,stderr"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [2, 4]


def test_emit_csv_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        emit_csv({"not": "a result"}, tmp_path / "x.csv")


def test_emit_csv_bytes_deterministic(tmp_path):
    grid1 = run_phase_transition(8, [1], [6, 15], trials=4, base_seed=21)
    grid2 = run_phase_transition(8, [1], [6, 15], trials=4, base_seed=21)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(grid1, p1)
    emit_csv(grid2, p2)
    assert p1.read_bytes() == p2.read_bytes()
