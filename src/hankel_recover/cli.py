"""Command-line interface: single recoveries, phase-transition grids, and
spectral-norm scans.

Exit codes: 0 success (recover: solver converged, its duality gap within
tolerance), 1 usage error, 2 recover finished without converging.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .harness import _check_scan_trials, _check_seed, derive_seed, emit_csv, run_norm_scan, run_phase_transition
from .hankel import _check_count, _check_finite, _side_length, weight_apply
from .measurement import _check_delta, _check_m, measure, sample_ensemble
from .modal import ModeExtractionError, _check_r, matrix_pencil, random_instance, synthesize
from .solver import MAX_ITERS, SUCCESS_THRESHOLD, _check_positive, solve, success

__all__ = ["main", "build_parser", "load_signal"]

# What --full sets; a config file and explicit flags override each entry.
_FULL_GRID = {"n": 64, "trials": 100, "m": ",".join(str(m) for m in range(1, 128))}


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves 2 for
    non-converged recoveries, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(value) -> list[int]:
    try:
        items = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        items = []
    if not items:
        raise argparse.ArgumentTypeError(f"expects a comma-separated list of integers, got {value!r}")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hankel-recover",
        description="Recover exponential-mode signals from scaled Gaussian "
        "sketches; run phase-transition grids and spectral-norm scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="recover one signal from a Gaussian sketch")
    rec.add_argument("--n", type=int, help="Hankel side length N; signals have length 2N-1 (optional with --input)")
    rec.add_argument("--r", type=int, help="number of modes (needed to generate, optional with --input)")
    rec.add_argument("--m", type=int, help="number of measurements")
    rec.add_argument("--delta", type=float, default=0.0, help="noise level (0 = noise-free, default %(default)g)")
    rec.add_argument(
        "--family", choices=["sinusoid", "damped"], default="sinusoid", help="mode family for generated signals"
    )
    rec.add_argument("--input", help="JSON signal file to recover instead of generating one")
    rec.add_argument("--out", help="write the result JSON here (default: stdout)")

    pt = sub.add_parser("phase-transition", help="success-rate grid over (R, M)")
    pt.add_argument("--n", type=int, default=16, help="Hankel side length (default %(default)s)")
    pt.add_argument("--r", type=_int_list, default="1,2,3", help="comma-separated R values (default %(default)s)")
    pt.add_argument(
        "--m",
        type=_int_list,
        default="4,8,12,16,20,24,28,31",
        help="comma-separated M values (default %(default)s)",
    )
    pt.add_argument("--trials", type=int, default=20, help="trials per cell (default %(default)s)")
    pt.add_argument("--out", default="phase_transition.csv", help="output CSV path (default %(default)s)")
    pt.add_argument("--full", action="store_true", help="full protocol: N=64, 100 trials, M=1..127")

    ns = sub.add_parser("norm-scan", help="Monte-Carlo scan of the lifted-Gaussian spectral norm")
    ns.add_argument(
        "--n", type=_int_list, default="1,2,4,8,16,32,64", help="comma-separated N values (default %(default)s)"
    )
    ns.add_argument("--trials", type=int, default=200, help="trials per N (default %(default)s, minimum 30)")
    ns.add_argument("--out", default="norm_scan.csv", help="output CSV path (default %(default)s)")

    for p in (rec, pt):
        p.add_argument(
            "--threshold", type=float, default=SUCCESS_THRESHOLD, help="success threshold (default %(default)g)"
        )
        p.add_argument("--max-iters", type=int, default=MAX_ITERS, help="ADMM sweep cap (default %(default)s)")
    # Usage errors found after parsing go through the subcommand's parser,
    # so that they show its usage line and flags.
    for p in (rec, pt, ns):
        p.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.set_defaults(subparser=p)
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


def _as_flags(values, args) -> list[str]:
    """``--key=value`` tokens for the entries of ``values``, each of which must
    name a valued option of the subcommand parsed into ``args`` (``"full"``
    is read before); lists become comma-separated and nulls are skipped."""
    valued = set(vars(args)) - {"command", "subparser", "config", "full"}
    tokens = []
    for key, value in values.items():
        if key == "full" and hasattr(args, "full"):
            continue
        if key not in valued:
            args.subparser.error(f"config file {args.config} has unknown key {key!r}")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        if value is not None:
            tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _parse_args(parser, argv):
    """``parser.parse_args``, but unrecognized arguments show the subcommand's usage."""
    args, extras = parser.parse_known_args(argv)
    if extras:
        args.subparser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _parse(parser, argv):
    """Parse ``argv`` with the ``--full`` grid and then the ``--config``
    values placed ahead of the explicit flags, so that a flag beats the
    config file, which beats ``--full``, which beats the built-in default;
    ``"full"`` must be a JSON boolean, every other value is type-checked by
    its option's declaration."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(parser, argv)
    config = _load_config(args.subparser, args.config)
    full = config.get("full") if hasattr(args, "full") else None
    if not isinstance(full, (bool, type(None))):
        args.subparser.error(f"config file {args.config}: 'full' must be true or false, got {full!r}")
    presets = dict(_FULL_GRID) if full or getattr(args, "full", False) else {}
    presets.update(config)
    flags = _as_flags(presets, args)
    try:
        return _parse_args(parser, [argv[0], *flags, *argv[1:]])
    except SystemExit:  # argv parsed alone above, so the config file holds the bad value
        sys.stderr.write(f"{args.subparser.prog}: error: the rejected value is from config file {args.config}\n")
        raise


def _check_out(path) -> None:
    """--out must name a file that can be written, so that no work is lost
    to a bad path."""
    folder = os.path.dirname(os.path.abspath(path))
    writable = os.access(path if os.path.exists(path) else folder, os.W_OK)
    if os.path.isdir(path) or not os.path.isdir(folder) or not writable:
        raise ValueError(f"--out {path} is not a writable file path")


def load_signal(path) -> np.ndarray:
    """Read a signal JSON file: an object with equal-length arrays
    ``real`` and ``imag`` of finite entries, not all zero. Any fault in the
    file, including one in reading it, raises ``ValueError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read signal file {path}: {exc}") from exc
    try:
        real = np.asarray(data["real"], dtype=float)
        imag = np.asarray(data["imag"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"signal file {path} must hold 'real' and 'imag' arrays") from exc
    if real.ndim != 1 or real.shape != imag.shape:
        raise ValueError(f"signal file {path}: 'real' and 'imag' must be equal-length vectors")
    x = _check_finite(real + 1j * imag, f"signal file {path}: 'real' and 'imag'")
    if not x.any():
        raise ValueError(f"signal file {path} has no nonzero entry, so there is no signal to recover")
    return x


def _extract_modes(x_hat, r):
    """Mode payload and the pencil's re-synthesis residual; (None, residual) if the fit fails."""
    try:
        modes, residual = matrix_pencil(x_hat, r)
    except ModeExtractionError as exc:
        return None, exc.residual
    except ValueError:
        return None, None  # r exceeds what the pencil supports
    payload = [{"z": [m.z.real, m.z.imag], "c": [m.c.real, m.c.imag]} for m in modes]
    return payload, residual


def _run_recover(args) -> int:
    n, m, r = args.n, args.m, args.r
    x_true = None if args.input is None else load_signal(args.input)
    if n is None and x_true is not None:
        try:
            n = _side_length(x_true)
        except ValueError as exc:
            raise ValueError(f"--input {args.input}: {exc}") from None
    if n is None or m is None:
        raise ValueError("--n and --m are required (flags or config file; --input gives N)")
    if r is None and x_true is None:
        raise ValueError("--r is required unless --input provides a signal")
    _check_count(n, "--n")
    _check_m(m, n, "--m")
    _check_delta(args.delta, "--delta")
    if r is not None:
        _check_r(r, n, "--r")

    if x_true is None:
        x_true = synthesize(random_instance(n, r, args.family, derive_seed(args.seed, "signal")))
    elif x_true.shape[0] != 2 * n - 1:
        raise ValueError(f"input signal has length {x_true.shape[0]}, expected 2N-1 = {2 * n - 1}")

    ens = sample_ensemble(m, n, derive_seed(args.seed, "ensemble"))
    obs = measure(ens, x_true, args.delta, derive_seed(args.seed, "noise"))
    result = solve(ens, obs, max_iters=args.max_iters)

    rel_error = float(np.linalg.norm(result.x_hat - x_true) / np.linalg.norm(x_true))
    weighted_error = float(np.linalg.norm(weight_apply(result.x_hat - x_true)))
    modes = pencil_residual = None
    if r is not None:
        modes, pencil_residual = _extract_modes(result.x_hat, r)

    payload = {
        "n": n,
        "m": m,
        "r": r,
        "delta": args.delta,
        "seed": args.seed,
        "threshold": args.threshold,
        "converged": result.converged,
        "iterations": result.iterations,
        "primal_residual": result.primal_residual,
        "dual_residual": result.dual_residual,
        "objective": result.objective,
        "duality_gap": result.duality_gap,
        "relative_error": rel_error,
        "weighted_error": weighted_error,
        "success": bool(success(result, x_true, args.threshold)),
        "x_hat": {"real": result.x_hat.real.tolist(), "imag": result.x_hat.imag.tolist()},
        "modes": modes,
        "pencil_residual": pencil_residual,
    }
    text = json.dumps(payload, indent=2)
    summary = (
        f"recover n={n} m={m} r={r} delta={args.delta:g} seed={args.seed}: "
        f"rel_error={rel_error:.3e} converged={result.converged} "
        f"iterations={result.iterations} duality_gap={result.duality_gap:.2e}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(summary)
        print(f"wrote {args.out}")
    else:
        print(text)
        print(summary, file=sys.stderr)
    return 0 if result.converged else 2


def _run_phase_transition(args) -> int:
    _check_count(args.n, "--n")
    for m in args.m:
        _check_m(m, args.n, "--m")
    for r in args.r:
        _check_r(r, args.n, "--r")
    _check_count(args.trials, "--trials")
    grid = run_phase_transition(
        args.n,
        args.r,
        args.m,
        args.trials,
        threshold=args.threshold,
        base_seed=args.seed,
        max_iters=args.max_iters,
    )
    emit_csv(grid, args.out)
    print(
        f"phase transition n={args.n} cells={len(args.r) * len(args.m)} "
        f"trials={args.trials} seed={args.seed}"
    )
    for i, r in enumerate(grid.r_values):
        rates = " ".join(f"M={m}:{grid.success_rate[i, j]:.2f}" for j, m in enumerate(grid.m_values))
        print(f"  R={r}: {rates}")
    print(f"wrote {args.out}")
    return 0


def _run_norm_scan(args) -> int:
    for n in args.n:
        _check_count(n, "--n")
    _check_scan_trials(args.trials, "--trials")
    scan = run_norm_scan(args.n, args.trials, args.seed)
    emit_csv(scan, args.out)
    for k, n in enumerate(scan.n_values):
        print(f"N={n}: mean spectral norm {scan.means[k]:.6f} +- {scan.stderrs[k]:.6f}")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {"recover": _run_recover, "phase-transition": _run_phase_transition, "norm-scan": _run_norm_scan}


def main(argv=None) -> int:
    args = _parse(build_parser(), argv)
    try:
        _check_seed(args.seed, "--seed")
        if hasattr(args, "threshold"):
            _check_positive(args.threshold, "--threshold")
            _check_count(args.max_iters, "--max-iters")
        if args.out is not None:
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # a rule on a flag, the input file or HANKEL_RECOVER_THREADS
        args.subparser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
