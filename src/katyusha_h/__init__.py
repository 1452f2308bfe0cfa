"""Single-loop accelerated variance reduction for composite finite-sum
convex problems, with a certified momentum/checkpoint schedule, a FISTA
baseline, complexity predictors, and brute-force verification oracles.

The top level holds what a script needs to build a problem, pick alpha and
run; everything else is imported from its submodule."""

from .analysis import select_alpha
from .optimizers import RunConfig, run
from .problems import synthesize, with_reference
from .proximal import Regularizer

__all__ = ["Regularizer", "RunConfig", "run", "select_alpha", "synthesize", "with_reference"]
