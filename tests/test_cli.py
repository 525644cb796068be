import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hankel_recover import MAX_ITERS, random_instance, synthesize
from hankel_recover import solver as solver_module
from hankel_recover.cli import load_signal, main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_recover_generated_instance(tmp_path):
    out = tmp_path / "result.json"
    code = run_cli(["recover", "--n", "16", "--r", "2", "--m", "24", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["relative_error"] < 1e-4
    assert payload["success"] is True
    assert len(payload["x_hat"]["real"]) == 31
    assert payload["modes"] is not None and len(payload["modes"]) == 2
    assert payload["pencil_residual"] < 1e-4


def test_recover_zero_m_is_usage_error(tmp_path, capsys):
    code = run_cli(["recover", "--n", "16", "--r", "2", "--m", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage: hankel-recover recover" in err and "error: --m must" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--n", "8", "--r", "1", "--m", "10", "--delta", "nan"],
        ["recover", "--n", "8", "--r", "1", "--m", "10", "--delta", "inf"],
        ["recover", "--n", "8", "--r", "1", "--m", "10", "--threshold", "nan"],
        ["phase-transition", "--n", "8", "--r", "1", "--m", "10", "--trials", "2", "--threshold", "nan"],
    ],
)
def test_non_finite_flag_is_usage_error(argv, tmp_path, capsys):
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and f"error: {argv[-2]} must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--n", "8", "--r", "1", "--m", "10", "--delta", "nan"],
        ["recover", "--n", "8", "--r", "1", "--m", "10", "--max-iters", "0"],
        ["recover", "--config", "missing.json"],
        ["phase-transition", "--n", "8", "--r", "1", "--m", "40", "--trials", "2"],
        ["norm-scan", "--trials", "5"],
        ["recover", "--rho", "30"],
        ["norm-scan", "--bogus", "1"],
    ],
)
def test_usage_error_shows_the_subcommands_usage(argv, tmp_path, monkeypatch, capsys):
    # errors found after parsing (flag rules, solver flags, config file) and
    # unrecognized flags show the subcommand's usage with its flags, not the
    # top-level one
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert f"usage: hankel-recover {argv[0]} [-h]" in err
    assert f"hankel-recover {argv[0]}: error: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--n", "8", "--r", "1", "--m", "10"],
        ["phase-transition", "--n", "8", "--r", "1", "--m", "10", "--trials", "2"],
        ["norm-scan", "--n", "4", "--trials", "30"],
    ],
)
@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
def test_seed_outside_signed_128_bits_is_usage_error(argv, seed, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli([*argv, f"--seed={seed}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"usage: hankel-recover {argv[0]} [-h]" in err and "error: --seed must satisfy" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["recover", "--n", "8", "--r", "1", "--m", "10"], "solve"),
        (["phase-transition", "--n", "8", "--r", "1", "--m", "10", "--trials", "2"], "run_phase_transition"),
        (["norm-scan", "--n", "4", "--trials", "30"], "run_norm_scan"),
    ],
)
@pytest.mark.parametrize("out", ["missing/out", "."])
def test_unwritable_out_is_usage_error_before_any_work(argv, work, out, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(f"hankel_recover.cli.{work}", no_work)
    path = str(tmp_path / out)
    assert run_cli([*argv, "--out", path]) == 1
    err = capsys.readouterr().err
    assert f"usage: hankel-recover {argv[0]} [-h]" in err and f"error: --out {path}" in err


def test_recover_missing_required_flags_is_usage_error():
    assert run_cli(["recover", "--m", "4"]) == 1
    assert run_cli(["recover", "--n", "8", "--m", "4"]) == 1  # no --r, no --input


def test_recover_square_sketch_reproduces_input(tmp_path):
    x = synthesize(random_instance(16, 3, "sinusoid", 2024))
    sig_file = tmp_path / "sig.json"
    sig_file.write_text(json.dumps({"real": list(x.real), "imag": list(x.imag)}))
    out = tmp_path / "result.json"
    code = run_cli(
        ["recover", "--input", str(sig_file), "--m", "31", "--n", "16", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    x_hat = np.array(payload["x_hat"]["real"]) + 1j * np.array(payload["x_hat"]["imag"])
    assert np.linalg.norm(x_hat - x) <= 1e-8 * np.linalg.norm(x)
    assert payload["relative_error"] <= 1e-8
    # N comes from the file's length 2N-1 when --n is left out
    out = tmp_path / "no_n.json"
    assert run_cli(["recover", "--input", str(sig_file), "--m", "31", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 16

    # R = 5 is a valid --r for N = 4 (R < 2N-1) but beyond the pencil's N-1:
    # the recovery stands and the mode fields are null
    out = tmp_path / "r5.json"
    assert run_cli(["recover", "--n", "4", "--r", "5", "--m", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["modes"] is None and payload["pencil_residual"] is None


def test_recover_nonconverged_exit_code(tmp_path):
    out = tmp_path / "result.json"
    code = run_cli(
        ["recover", "--n", "8", "--r", "2", "--m", "10", "--seed", "0", "--max-iters", "2", "--out", str(out)]
    )
    assert code == 2
    assert json.loads(out.read_text())["converged"] is False


def test_recover_noisy_program_converges_on_its_certificate(tmp_path, capsys):
    out = tmp_path / "noisy.json"
    code = run_cli(
        ["recover", "--n", "32", "--r", "2", "--m", "40", "--delta", "1e-2", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True and payload["iterations"] < MAX_ITERS
    assert payload["duality_gap"] <= solver_module._GAP_TOL
    assert f"duality_gap={payload['duality_gap']:.2e}" in capsys.readouterr().out


def test_recover_stdout_json_when_no_out(capsys):
    code = run_cli(["recover", "--n", "8", "--r", "1", "--m", "15", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 8 and payload["m"] == 15


def test_recover_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "m": 15, "r": 1, "seed": 5}))
    out = tmp_path / "a.json"
    assert run_cli(["recover", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 8

    out2 = tmp_path / "b.json"
    assert run_cli(["recover", "--config", str(cfg), "--m", "12", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["m"] == 12


def test_recover_rejects_bad_input_file(tmp_path):
    bad = tmp_path / "sig.json"
    bad.write_text(json.dumps({"real": [1, 2, 3]}))
    assert run_cli(["recover", "--input", str(bad), "--n", "2", "--m", "3"]) == 1
    missing = tmp_path / "nope.json"
    assert run_cli(["recover", "--input", str(missing), "--n", "2", "--m", "3"]) == 1
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"real": [1.0, 0.0, 0.0], "imag": [0.0, 0.0, 0.0]}))
    assert run_cli(["recover", "--input", str(short), "--n", "16", "--m", "5"]) == 1
    uneven = tmp_path / "uneven.json"
    uneven.write_text(json.dumps({"real": [1.0, 0.0, 0.0], "imag": [0.0, 0.0]}))
    with pytest.raises(ValueError, match="equal-length"):
        load_signal(uneven)
    assert run_cli(["recover", "--input", str(uneven), "--n", "2", "--m", "3"]) == 1


def test_recover_even_length_input_without_n_names_the_file(tmp_path, capsys):
    even = tmp_path / "even.json"
    even.write_text(json.dumps({"real": [1.0] * 16, "imag": [0.0] * 16}))
    assert run_cli(["recover", "--m", "5", "--input", str(even)]) == 1
    err = capsys.readouterr().err
    assert "usage: hankel-recover recover" in err
    assert f"--input {even}" in err and "odd length" in err


def test_recover_input_length_mismatch_names_the_file(tmp_path, capsys):
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({"real": [1.0] * 15, "imag": [0.0] * 15}))
    assert run_cli(["recover", "--n", "9", "--m", "10", "--input", str(ones)]) == 1
    err = capsys.readouterr().err
    assert "usage: hankel-recover recover" in err
    assert f"--input {ones}: " in err and "length 15, expected 2N-1 = 17" in err


def test_recover_tiny_input_succeeds(tmp_path):
    # squares of 1e-200 underflow; the solve and the relative error are scale-free
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"real": [1e-200] * 15, "imag": [0.0] * 15}))
    out = tmp_path / "result.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(["recover", "--m", "15", "--input", str(tiny), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["success"] is True and payload["relative_error"] <= 1e-12


def test_recover_tiny_input_reports_error_and_modes_in_units(tmp_path):
    # at 2^-700 the weighted error's squares and the pencil's data underflow;
    # both work in power-of-two units, so every figure scales exactly
    results = []
    for name, value in (("ones", 1.0), ("tiny", 2.0**-700)):
        signal = tmp_path / f"{name}.json"
        signal.write_text(json.dumps({"real": [value] * 15, "imag": [0.0] * 15}))
        out = tmp_path / f"{name}_result.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["recover", "--m", "15", "--r", "1", "--input", str(signal), "--out", str(out)]) == 0
        results.append(json.loads(out.read_text()))
    ones, tiny = results
    assert ones["weighted_error"] > 0.0
    assert tiny["weighted_error"] == 2.0**-700 * ones["weighted_error"]
    assert tiny["modes"] is not None and tiny["pencil_residual"] == ones["pencil_residual"]
    for mode, ref in zip(tiny["modes"], ones["modes"]):
        assert mode["z"] == ref["z"] and mode["c"] == [2.0**-700 * c for c in ref["c"]]


def test_recover_rejects_non_finite_input(tmp_path, capsys):
    # json accepts the NaN literal; the loader must reject it before the solver
    path = tmp_path / "nan.json"
    path.write_text('{"real": [1.0, NaN, 0.0], "imag": [0.0, 0.0, 0.0]}')
    with pytest.raises(ValueError, match="finite"):
        load_signal(path)
    assert run_cli(["recover", "--input", str(path), "--n", "2", "--m", "3"]) == 1
    assert "finite" in capsys.readouterr().err


def test_recover_zero_input_signal_is_usage_error_before_any_work(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"real": [0.0] * 15, "imag": [0.0] * 15}))
    out = tmp_path / "result.json"
    assert run_cli(["recover", "--n", "8", "--m", "10", "--input", str(zero), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage: hankel-recover recover" in err and "no nonzero entry" in err
    assert not out.exists()


def test_recover_overflowing_input_is_usage_error(tmp_path, capsys):
    # finite entries whose measurements overflow fail in measure, before the solve
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"real": [1e308] * 15, "imag": [1e308] * 15}))
    out = tmp_path / "result.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the usage error is the only report
        assert run_cli(["recover", "--n", "8", "--m", "10", "--input", str(big), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage: hankel-recover recover" in err and "must have finite entries" in err
    assert f"--input {big}: " in err  # not only the usage line's [--input INPUT]
    assert "Traceback" not in err and not out.exists()


def test_recover_overflowing_observation_is_usage_error(tmp_path, capsys):
    # noise of norm 1e200 makes ||b||^2 overflow; the solve refuses it before any sweep
    out = tmp_path / "result.json"
    assert run_cli(["recover", "--n", "8", "--r", "1", "--m", "10", "--delta", "1e200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage: hankel-recover recover" in err and "observation b is too large" in err
    assert "Traceback" not in err and not out.exists()


def test_recover_sub_rounding_delta_succeeds(tmp_path):
    out = tmp_path / "result.json"
    assert run_cli(["recover", "--n", "8", "--r", "1", "--m", "10", "--delta", "1e-300", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["converged"] is True


def test_load_signal_round_trip(tmp_path):
    x = synthesize(random_instance(4, 2, "damped", 6))
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({"real": list(x.real), "imag": list(x.imag)}))
    assert np.allclose(load_signal(path), x)


def test_phase_transition_subcommand(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = run_cli(
        ["phase-transition", "--n", "8", "--r", "1", "--m", "6,15", "--trials", "4",
         "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,R,M,trials,threshold,success_rate"
    assert len(lines) == 3
    assert "wrote" in capsys.readouterr().out


def test_phase_transition_usage_error(tmp_path, capsys):
    # each bad value is reported under its flag's name, before any trial runs
    out = tmp_path / "grid.csv"
    for argv, flag in (
        (["--n", "8", "--m", "99", "--trials", "2"], "--m"),
        (["--n", "8", "--r", "1", "--m", "40", "--trials", "2"], "--m"),
        (["--n", "0", "--r", "1", "--m", "1", "--trials", "2"], "--n"),
        (["--n", "8", "--r", "15", "--m", "8", "--trials", "2"], "--r"),
        (["--n", "8", "--r", "1", "--m", "8", "--trials", "0"], "--trials"),
        (["--n", "8", "--r", "1", "--m", "8", "--trials", "2", "--max-iters", "0"], "--max-iters"),
    ):
        assert run_cli(["phase-transition", *argv, "--out", str(out)]) == 1
        assert f"error: {flag} must" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli(["phase-transition", "--m", "oops"]) == 1


def test_norm_scan_subcommand(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run_cli(["norm-scan", "--n", "1,4", "--trials", "40", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,trials,mean_norm,stderr"
    assert len(lines) == 3
    capsys.readouterr()
    assert run_cli(["norm-scan", "--n", "4", "--trials", "5"]) == 1  # too few trials
    assert "error: --trials must be >= 30" in capsys.readouterr().err
    assert run_cli(["norm-scan", "--n", "4,0", "--trials", "40"]) == 1
    assert "error: --n must be >= 1" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    assert run_cli(["frobnicate"]) == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hankel_recover", "recover", "--n", "8", "--r", "1",
         "--m", "15", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_import_does_not_load_scipy():
    # nothing in the package needs scipy, whose import takes longer than the
    # rest of the package with numpy; the noisy solve covers the noise-ball
    # projection as well as the import path
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hankel_recover as hr, hankel_recover.cli; "
         "ens = hr.sample_ensemble(10, 8, 0); "
         "x = hr.synthesize(hr.random_instance(8, 1, 'sinusoid', 0)); "
         "hr.solve(ens, hr.measure(ens, x, 1e-2, rng_seed=1)); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
