"""Config files and ``--full`` go through the same option declarations as
explicit flags."""

import inspect
import json

import numpy as np
import pytest

from hankel_recover import PhaseGrid, run_phase_transition, solve, success
from hankel_recover.cli import build_parser, main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "command, config, option",
    [
        ("recover", {"n": "abc", "m": 5, "r": 1}, "--n"),
        ("phase-transition", {"trials": "x"}, "--trials"),
        ("norm-scan", {"trials": "x"}, "--trials"),
        ("phase-transition", [{"trials": 2}], "must hold a JSON object"),  # not an object
        ("recover", {"n": 8, "m": 10, "r": 1, "rho": 30}, "'rho'"),  # not an option
        ("phase-transition", {"trails": 3}, "'trails'"),
        ("phase-transition", {"full": "no"}, "'full'"),  # not a JSON boolean
    ],
)
def test_malformed_config_value_is_usage_error(tmp_path, capsys, command, config, option):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and option in err and str(path) in err and "Traceback" not in err


def test_full_grid_precedence(tmp_path):
    # flag > config file > --full > built-in default
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 2, "m": [6, 15], "r": 1}))
    out = tmp_path / "grid.csv"
    assert run_cli(["phase-transition", "--full", "--config", str(path), "--n", "8", "--out", str(out)]) == 0
    rows = [line.split(",")[:4] for line in out.read_text().splitlines()]
    assert rows == [["N", "R", "M", "trials"], ["8", "1", "6", "2"], ["8", "1", "15", "2"]]


@pytest.mark.parametrize(
    "full, grid",
    [
        (True, (64, [1, 2, 3], list(range(1, 128)), 100)),
        (False, (16, [1, 2, 3], [4, 8, 12, 16, 20, 24, 28, 31], 20)),
    ],
)
def test_config_full_selects_the_full_grid(tmp_path, monkeypatch, full, grid):
    calls = []

    def capture(n, r_values, m_values, trials, **kwargs):
        calls.append((n, r_values, m_values, trials))
        return PhaseGrid(n, tuple(r_values), tuple(m_values), trials, 0.01, 0, np.zeros((len(r_values), len(m_values))))

    monkeypatch.setattr("hankel_recover.cli.run_phase_transition", capture)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"full": full}))
    assert run_cli(["phase-transition", "--config", str(path), "--out", str(tmp_path / "grid.csv")]) == 0
    assert calls == [grid]


@pytest.mark.parametrize("command", ["recover", "phase-transition"])
def test_solver_flag_defaults_are_solver_config_defaults(command):
    args = vars(build_parser().parse_args([command]))
    for fn in (solve, run_phase_transition):
        assert args["max_iters"] == inspect.signature(fn).parameters["max_iters"].default
    for fn in (success, run_phase_transition):
        assert args["threshold"] == inspect.signature(fn).parameters["threshold"].default
