"""Power-law boundary-layer similarity solutions via a non-iterative scaling transformation.

One initial-value integration in rescaled variables, one algebraic
rescaling, no iteration on the missing wall curvature -- plus an
independent shooting oracle to prove it.

Exported: the model, the fixed-step integrator with its two tableaus,
the transform pipeline (:func:`solve` and its stages), the shooting
oracle, and the errors, all derived from :class:`BoundaryLayerError`.
The command line is :mod:`powerlaw_blasius.cli`.
"""

from .errors import (
    BlowUpError,
    BoundaryLayerError,
    BracketError,
    ConvergenceError,
    CurvatureError,
    DomainError,
    NoPlateauError,
    ShotDivergedError,
)
from .model import (
    ModelParameter,
    ReferenceRow,
    make_parameter,
    pohlhausen_skin_friction,
    reference_table,
)
from .runge_kutta import (
    CLASSIC_RK4,
    COOPER_VERNER_8,
    ButcherTableau,
    GridSpec,
    integrate,
)
from .shooting import ShootingConfig, matched_grid, shoot, solve_by_shooting
from .transform import (
    SolutionProfile,
    TransformResult,
    find_truncated_boundary,
    integrate_starred,
    recover_lambda,
    rescale_profile,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "BoundaryLayerError",
    "BracketError",
    "ButcherTableau",
    "CLASSIC_RK4",
    "COOPER_VERNER_8",
    "ConvergenceError",
    "CurvatureError",
    "DomainError",
    "GridSpec",
    "ModelParameter",
    "NoPlateauError",
    "ReferenceRow",
    "ShootingConfig",
    "ShotDivergedError",
    "SolutionProfile",
    "TransformResult",
    "find_truncated_boundary",
    "integrate",
    "integrate_starred",
    "make_parameter",
    "matched_grid",
    "pohlhausen_skin_friction",
    "recover_lambda",
    "reference_table",
    "rescale_profile",
    "shoot",
    "solve",
    "solve_by_shooting",
]
