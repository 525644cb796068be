import numpy as np
import pytest

from hankel_recover import (
    ModalSignal,
    Mode,
    ModeExtractionError,
    matrix_pencil,
    random_instance,
    synthesize,
)


def _match_poles(estimated, true_modes):
    """Greedy nearest-pole matching; returns the worst pole distance."""
    remaining = [m.z for m in true_modes]
    worst = 0.0
    for est in estimated:
        dists = [abs(est.z - z) for z in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    return worst


def test_synthesize_constant_mode():
    sig = ModalSignal((Mode(1.0, 1.0),), 3)
    assert np.array_equal(synthesize(sig), np.ones(5, dtype=complex))


def test_synthesize_alternating_mode():
    sig = ModalSignal((Mode(-1.0, 2.0),), 2)
    assert np.array_equal(synthesize(sig), np.array([2, -2, 2], dtype=complex))


def test_synthesize_quarter_turn():
    sig = ModalSignal((Mode(np.exp(2j * np.pi * 0.25), 1.0),), 2)
    assert np.allclose(synthesize(sig), [1.0, 1.0j, -1.0], atol=1e-15)


def test_synthesize_linear_in_amplitudes():
    rng = np.random.default_rng(0)
    z = np.exp(2j * np.pi * rng.random(3))
    c1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    make = lambda c: synthesize(ModalSignal(tuple(Mode(zi, ci) for zi, ci in zip(z, c)), 8))
    combined = make(c1 + 2.5 * c2)
    assert np.allclose(combined, make(c1) + 2.5 * make(c2), rtol=1e-12)


def test_modal_signal_validation():
    sig = ModalSignal((Mode(1.0, 1.0), Mode(-1.0, 2.0)), 4)
    assert sig.r == 2 and sig.ambient_len == 7
    with pytest.raises(ValueError):
        ModalSignal((Mode(1.0, 0.0),), 4)  # zero amplitude
    with pytest.raises(ValueError):
        ModalSignal((Mode(1.0, 1.0), Mode(1.0, 2.0)), 4)  # duplicate poles
    with pytest.raises(ValueError):
        ModalSignal(tuple(Mode(np.exp(2j * np.pi * k / 9), 1.0) for k in range(7)), 4)  # R >= 2N-1
    with pytest.raises(ValueError):
        ModalSignal((), 4)


def test_random_instance_amplitude_range():
    sig = random_instance(32, 20, "sinusoid", 1)
    mags = np.array([abs(m.c) for m in sig.modes])
    assert np.all(mags >= 2.0)
    assert np.all(mags <= 1.0 + np.sqrt(10.0))


def test_random_instance_deterministic():
    a = random_instance(16, 3, "damped", 42)
    b = random_instance(16, 3, "damped", 42)
    assert a == b
    c = random_instance(16, 3, "damped", 43)
    assert a != c


def test_random_instance_frequency_distribution():
    # 10^4 draws of f ~ U[0,1): empirical mean within 0.5 +- 0.02
    freqs = []
    for k in range(2000):
        sig = random_instance(16, 5, "sinusoid", 10_000 + k)
        freqs.extend(np.angle(m.z) / (2 * np.pi) % 1.0 for m in sig.modes)
    freqs = np.asarray(freqs)
    assert freqs.size == 10_000
    assert abs(freqs.mean() - 0.5) < 0.02


def test_random_instance_damped_moduli():
    sig = random_instance(16, 6, "damped", 7)
    mods = np.array([abs(m.z) for m in sig.modes])
    assert np.all(mods < 1.0)
    assert np.all(mods >= np.exp(-0.5) - 1e-12)


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(4, 7, "sinusoid", 0)
    with pytest.raises(ValueError):
        random_instance(4, 0, "sinusoid", 0)
    with pytest.raises(ValueError):
        random_instance(4, 2, "gaussian", 0)
    with pytest.raises(ValueError, match="integer"):
        random_instance(8.5, 1)
    with pytest.raises(ValueError, match="integer"):
        random_instance(8, 1.0)
    random_instance(np.int64(8), np.int64(1))  # numpy integers are integers


def test_matrix_pencil_constant_signal():
    modes, residual = matrix_pencil(np.ones(5), 1)
    assert residual < 1e-12
    assert len(modes) == 1
    assert abs(modes[0].z - 1.0) < 1e-10
    assert abs(modes[0].c - 1.0) < 1e-10


def test_matrix_pencil_two_sinusoids():
    sig = random_instance(8, 2, "sinusoid", 5)
    modes, _ = matrix_pencil(synthesize(sig), 2)
    assert _match_poles(modes, sig.modes) < 1e-8


def test_matrix_pencil_damped_modes():
    sig = random_instance(8, 3, "damped", 9)
    x = synthesize(sig)
    modes, residual = matrix_pencil(x, 3)
    assert all(abs(m.z) < 1.0 for m in modes)
    fit = synthesize(ModalSignal(tuple(modes), 8))
    resynthesized = np.linalg.norm(fit - x) / np.linalg.norm(x)
    assert resynthesized < 1e-6
    assert abs(residual - resynthesized) <= 1e-12  # the residual the pencil returns is the fit's


def test_matrix_pencil_round_trip_both_families():
    for k, family in enumerate(["sinusoid", "damped"] * 3):
        r = 1 + k % 4
        sig = random_instance(16, r, family, 300 + k)
        modes, _ = matrix_pencil(synthesize(sig), r)
        assert _match_poles(modes, sig.modes) < 1e-8


def test_matrix_pencil_validation():
    with pytest.raises(ValueError):
        matrix_pencil(np.ones(5), 3)  # r > N-1
    with pytest.raises(ValueError, match="integer"):
        matrix_pencil(np.ones(5), 1.5)
    with pytest.raises(ValueError):
        matrix_pencil(np.ones(4), 1)  # even length
    with pytest.raises(ValueError):
        matrix_pencil(np.zeros(5), 1)
    with pytest.raises(ModeExtractionError) as info:
        matrix_pencil(np.ones(9), 2)  # rank-one data cannot carry two modes
    assert info.value.residual == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_matrix_pencil_rejects_non_finite_input(bad):
    x = synthesize(random_instance(8, 2, "sinusoid", 21))
    x[5] = bad
    with pytest.raises(ValueError, match="finite"):
        matrix_pencil(x, 2)


def test_matrix_pencil_reports_residual_on_noise():
    rng = np.random.default_rng(11)
    sig = random_instance(8, 3, "sinusoid", 13)
    x = synthesize(sig)
    x = x + 0.1 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    with pytest.raises(ModeExtractionError) as info:
        matrix_pencil(x, 1)
    assert info.value.residual > 1e-6
    assert np.isfinite(info.value.residual)


def test_matrix_pencil_order_is_stable():
    sig = random_instance(12, 4, "sinusoid", 21)
    x = synthesize(sig)
    first, _ = matrix_pencil(x, 4)
    second, _ = matrix_pencil(x.copy(), 4)
    assert first == second
    phases = [np.angle(m.z) for m in first]
    assert phases == sorted(phases)
