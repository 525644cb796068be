"""Recovery of exponential-mode signals from scaled Gaussian sketches via
low-rank Hankel lifting and nuclear-norm ADMM."""

from . import hankel, harness, measurement, modal, solver
from .hankel import *  # noqa: F403
from .harness import *  # noqa: F403
from .measurement import *  # noqa: F403
from .modal import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*hankel.__all__, *harness.__all__, *measurement.__all__, *modal.__all__, *solver.__all__]
