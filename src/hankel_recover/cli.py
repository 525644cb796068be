"""Command-line interface: single recoveries, phase-transition grids, and
spectral-norm scans.

Exit codes: 0 success (recover: solver converged), 1 usage error,
2 recover finished without converging.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import derive_seed, emit_csv, run_norm_scan, run_phase_transition
from .hankel import HankelLift
from .measurement import measure, sample_ensemble
from .modal import ModeExtractionError, matrix_pencil, random_instance, synthesize
from .solver import SolverConfig, solve, success

__all__ = ["main", "build_parser", "load_signal"]

_SOLVER = SolverConfig()
_SOLVER_FLAGS = {"rho": _SOLVER.rho, "max_iters": _SOLVER.max_iters, "tol": _SOLVER.tol_primal}
_RHO_HELP = f"ADMM penalty relative to the rms of b, rho * sqrt(M) / ||b|| (default {_SOLVER.rho:g})"
_TOL_HELP = (
    f"ADMM relative tolerance: ||G y - Z|| <= tol ||Z|| and ||G*(Z_k - Z_k-1)|| <= tol ||y|| "
    f"(default {_SOLVER.tol_primal:g})"
)

_DEFAULTS = {
    "recover": {
        "delta": 0.0,
        "seed": 0,
        "threshold": 1e-3,
        **_SOLVER_FLAGS,
        "family": "sinusoid",
    },
    "phase-transition": {
        "n": 16,
        "r": "1,2,3",
        "m": "4,8,12,16,20,24,28,31",
        "trials": 20,
        "threshold": 1e-3,
        "seed": 0,
        **_SOLVER_FLAGS,
        "out": "phase_transition.csv",
    },
    "norm-scan": {
        "n": "1,2,4,8,16,32,64",
        "trials": 200,
        "seed": 0,
        "out": "norm_scan.csv",
    },
}

# Full protocol: N=64, 100 trials per cell, M swept over 1..127.
_FULL_GRID = {"n": 64, "trials": 100, "m": ",".join(str(m) for m in range(1, 128))}


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves 2 for
    non-converged recoveries, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hankel-recover",
        description="Recover exponential-mode signals from scaled Gaussian "
        "sketches; run phase-transition grids and spectral-norm scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="recover one signal from a Gaussian sketch")
    rec.add_argument("--n", type=int, help="Hankel side length N; signals have length 2N-1")
    rec.add_argument("--r", type=int, help="number of modes (needed to generate, optional with --input)")
    rec.add_argument("--m", type=int, help="number of measurements")
    rec.add_argument("--delta", type=float, help="noise level (0 = noise-free, default 0)")
    rec.add_argument("--seed", type=int, help="base seed for signal/sketch/noise (default 0)")
    rec.add_argument("--threshold", type=float, help="relative-error success threshold (default 1e-3)")
    rec.add_argument("--rho", type=float, help=_RHO_HELP)
    rec.add_argument("--max-iters", type=int, help=f"ADMM iteration cap (default {_SOLVER.max_iters})")
    rec.add_argument("--tol", type=float, help=_TOL_HELP)
    rec.add_argument("--family", choices=["sinusoid", "damped"], help="mode family for generated signals")
    rec.add_argument("--input", help="JSON signal file to recover instead of generating one")
    rec.add_argument("--out", help="write the result JSON here (default: stdout)")
    rec.add_argument("--config", help="JSON config file; flags override its values")

    pt = sub.add_parser("phase-transition", help="success-rate grid over (R, M)")
    pt.add_argument("--n", type=int, help="Hankel side length (default 16)")
    pt.add_argument("--r", help="comma-separated R values (default 1,2,3)")
    pt.add_argument("--m", help="comma-separated M values (default 4,8,...,31)")
    pt.add_argument("--trials", type=int, help="trials per cell (default 20)")
    pt.add_argument("--threshold", type=float, help="success threshold (default 1e-3)")
    pt.add_argument("--seed", type=int, help="base seed (default 0)")
    pt.add_argument("--rho", type=float, help=_RHO_HELP)
    pt.add_argument("--max-iters", type=int, help=f"ADMM iteration cap (default {_SOLVER.max_iters})")
    pt.add_argument("--tol", type=float, help=_TOL_HELP)
    pt.add_argument("--out", help="output CSV path (default phase_transition.csv)")
    pt.add_argument("--config", help="JSON config file; flags override its values")
    pt.add_argument("--full", action="store_true", help="full protocol: N=64, 100 trials, M=1..127")

    ns = sub.add_parser("norm-scan", help="Monte-Carlo scan of the lifted-Gaussian spectral norm")
    ns.add_argument("--n", help="comma-separated N values (default 1,2,4,...,64)")
    ns.add_argument("--trials", type=int, help="trials per N (default 200, minimum 30)")
    ns.add_argument("--seed", type=int, help="base seed (default 0)")
    ns.add_argument("--out", help="output CSV path (default norm_scan.csv)")
    ns.add_argument("--config", help="JSON config file; flags override its values")

    return parser


def _load_config(parser, path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config {path} must hold a JSON object")
    return cfg


def _getter(args, config, defaults):
    """Flags override the config file, which overrides built-in defaults."""

    def get(key):
        value = getattr(args, key.replace("-", "_"), None)
        if value is None:
            value = config.get(key, defaults.get(key))
        return value

    return get


def _int_list(parser, value, flag):
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    try:
        items = [int(tok) for tok in str(value).split(",") if tok.strip()]
    except ValueError:
        items = []
    if not items:
        parser.error(f"{flag} expects a comma-separated list of integers, got {value!r}")
    return items


def load_signal(path) -> np.ndarray:
    """Read a signal JSON file: an object with equal-length arrays
    ``real`` and ``imag``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        real = np.asarray(data["real"], dtype=float)
        imag = np.asarray(data["imag"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"signal file {path} must hold 'real' and 'imag' arrays") from exc
    if real.ndim != 1 or real.shape != imag.shape:
        raise ValueError(f"signal file {path}: 'real' and 'imag' must be equal-length vectors")
    if not (np.isfinite(real).all() and np.isfinite(imag).all()):
        raise ValueError(f"signal file {path}: 'real' and 'imag' must have finite entries")
    return real + 1j * imag


def _extract_modes(x_hat, r):
    """Mode payload and re-synthesis residual; (None, residual) if the fit fails."""
    try:
        modes = matrix_pencil(x_hat, r)
    except ModeExtractionError as exc:
        return None, exc.residual
    except ValueError:
        return None, None  # r exceeds what the pencil supports
    z = np.array([m.z for m in modes])
    c = np.array([m.c for m in modes])
    fit = c @ np.power.outer(z, np.arange(x_hat.shape[0]))
    residual = float(np.linalg.norm(fit - x_hat) / np.linalg.norm(x_hat))
    payload = [{"z": [m.z.real, m.z.imag], "c": [m.c.real, m.c.imag]} for m in modes]
    return payload, residual


def _run_recover(parser, args) -> int:
    config = _load_config(parser, args.config)
    get = _getter(args, config, _DEFAULTS["recover"])

    n, m, r = get("n"), get("m"), get("r")
    if n is None or m is None:
        parser.error("--n and --m are required (flags or config file)")
    n, m = int(n), int(m)
    delta = float(get("delta"))
    seed = int(get("seed"))
    threshold = float(get("threshold"))
    input_path = get("input")
    if n < 1:
        parser.error("--n must be >= 1")
    if not 1 <= m <= 2 * n - 1:
        parser.error(f"--m must satisfy 1 <= m <= 2N-1 = {2 * n - 1}")
    if delta < 0:
        parser.error("--delta must be nonnegative")
    if threshold <= 0:
        parser.error("--threshold must be positive")
    if r is None and input_path is None:
        parser.error("--r is required unless --input provides a signal")
    if r is not None:
        r = int(r)
        if not 1 <= r < 2 * n - 1:
            parser.error(f"--r must satisfy 1 <= r < 2N-1 = {2 * n - 1}")
    try:
        cfg = SolverConfig(
            rho=float(get("rho")),
            max_iters=int(get("max_iters")),
            tol_primal=float(get("tol")),
            tol_dual=float(get("tol")),
        )
    except ValueError as exc:
        parser.error(str(exc))

    if input_path is not None:
        try:
            x_true = load_signal(input_path)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        if x_true.shape[0] != 2 * n - 1:
            parser.error(f"input signal has length {x_true.shape[0]}, expected 2N-1 = {2 * n - 1}")
    else:
        sig = random_instance(n, r, get("family"), derive_seed(seed, "signal"))
        x_true = synthesize(sig)

    lift_ctx = HankelLift(n)
    ens = sample_ensemble(m, n, derive_seed(seed, "ensemble"))
    obs = measure(ens, x_true, delta, derive_seed(seed, "noise"))
    result = solve(ens, obs, lift_ctx, cfg)

    rel_error = float(np.linalg.norm(result.x_hat - x_true) / np.linalg.norm(x_true))
    weighted_error = float(np.linalg.norm(lift_ctx.d_diag * (result.x_hat - x_true)))
    modes = pencil_residual = None
    if r is not None:
        modes, pencil_residual = _extract_modes(result.x_hat, r)

    payload = {
        "n": n,
        "m": m,
        "r": r,
        "delta": delta,
        "seed": seed,
        "threshold": threshold,
        "converged": result.converged,
        "iterations": result.iterations,
        "primal_residual": result.primal_residual,
        "dual_residual": result.dual_residual,
        "objective": result.objective,
        "relative_error": rel_error,
        "weighted_error": weighted_error,
        "success": bool(success(result, x_true, threshold)),
        "x_hat": {"real": result.x_hat.real.tolist(), "imag": result.x_hat.imag.tolist()},
        "modes": modes,
        "pencil_residual": pencil_residual,
    }
    text = json.dumps(payload, indent=2)
    summary = (
        f"recover n={n} m={m} r={r} delta={delta:g} seed={seed}: "
        f"rel_error={rel_error:.3e} converged={result.converged} "
        f"iterations={result.iterations}"
    )
    out = get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(summary)
        print(f"wrote {out}")
    else:
        print(text)
        print(summary, file=sys.stderr)
    return 0 if result.converged else 2


def _run_phase_transition(parser, args) -> int:
    config = _load_config(parser, args.config)
    defaults = dict(_DEFAULTS["phase-transition"])
    if args.full or config.get("full"):
        defaults.update(_FULL_GRID)
    get = _getter(args, config, defaults)

    n = int(get("n"))
    trials = int(get("trials"))
    r_values = _int_list(parser, get("r"), "--r")
    m_values = _int_list(parser, get("m"), "--m")
    try:
        cfg = SolverConfig(
            rho=float(get("rho")),
            max_iters=int(get("max_iters")),
            tol_primal=float(get("tol")),
            tol_dual=float(get("tol")),
        )
        grid = run_phase_transition(
            n,
            r_values,
            m_values,
            trials,
            threshold=float(get("threshold")),
            base_seed=int(get("seed")),
            config=cfg,
        )
    except ValueError as exc:
        parser.error(str(exc))
    out = get("out")
    emit_csv(grid, out)
    print(
        f"phase transition n={n} cells={len(r_values) * len(m_values)} "
        f"trials={trials} seed={get('seed')}"
    )
    for i, r in enumerate(grid.r_values):
        rates = " ".join(f"M={m}:{grid.success_rate[i, j]:.2f}" for j, m in enumerate(grid.m_values))
        print(f"  R={r}: {rates}")
    print(f"wrote {out}")
    return 0


def _run_norm_scan(parser, args) -> int:
    config = _load_config(parser, args.config)
    get = _getter(args, config, _DEFAULTS["norm-scan"])
    n_values = _int_list(parser, get("n"), "--n")
    try:
        scan = run_norm_scan(n_values, int(get("trials")), int(get("seed")))
    except ValueError as exc:
        parser.error(str(exc))
    out = get("out")
    emit_csv(scan, out)
    for k, n in enumerate(scan.n_values):
        print(f"N={n}: mean spectral norm {scan.means[k]:.6f} +- {scan.stderrs[k]:.6f}")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "recover":
        return _run_recover(parser, args)
    if args.command == "phase-transition":
        return _run_phase_transition(parser, args)
    return _run_norm_scan(parser, args)


if __name__ == "__main__":
    sys.exit(main())
