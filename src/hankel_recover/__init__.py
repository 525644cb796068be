"""Recovery of exponential-mode signals from scaled Gaussian sketches via
low-rank Hankel lifting and nuclear-norm ADMM."""

from .hankel import (
    HankelLift,
    hankel_map,
    lift,
    lift_adjoint,
    numerical_rank,
    toeplitz_map,
    weight_apply,
)
from .harness import (
    NormScan,
    PhaseGrid,
    derive_seed,
    emit_csv,
    run_norm_scan,
    run_phase_transition,
)
from .measurement import (
    MeasurementEnsemble,
    Observation,
    measure,
    project_affine,
    project_ball,
    sample_ensemble,
)
from .modal import (
    ModalSignal,
    Mode,
    ModeExtractionError,
    matrix_pencil,
    random_instance,
    synthesize,
)
from .solver import RecoveryResult, SolverConfig, solve, success, svt

__version__ = "0.1.0"

__all__ = [
    "HankelLift",
    "MeasurementEnsemble",
    "ModalSignal",
    "Mode",
    "ModeExtractionError",
    "NormScan",
    "Observation",
    "PhaseGrid",
    "RecoveryResult",
    "SolverConfig",
    "derive_seed",
    "emit_csv",
    "hankel_map",
    "lift",
    "lift_adjoint",
    "matrix_pencil",
    "measure",
    "numerical_rank",
    "project_affine",
    "project_ball",
    "random_instance",
    "run_norm_scan",
    "run_phase_transition",
    "sample_ensemble",
    "solve",
    "success",
    "svt",
    "synthesize",
    "toeplitz_map",
    "weight_apply",
]
