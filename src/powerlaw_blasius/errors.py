"""Exception types raised by the boundary-layer solvers."""

__all__ = [
    "BoundaryLayerError",
    "DomainError",
    "CurvatureError",
    "BlowUpError",
    "NoPlateauError",
    "BracketError",
    "ShotDivergedError",
    "ConvergenceError",
]


class BoundaryLayerError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(BoundaryLayerError, ValueError):
    """Power-law index outside the range the model accepts."""


class CurvatureError(BoundaryLayerError, ValueError):
    """Curvature f'' went genuinely negative where the model needs it >= 0.

    The fractional power (f'')^(2-P) is real only for non-negative
    curvature; tiny negative values (any, for P > 1: touchdown overshoot)
    get clamped, anything beyond the clamp window raises this.
    """


class BlowUpError(BoundaryLayerError, ArithmeticError):
    """An integration diverged at ``t``.

    Either a stage evaluation of the ODE right-hand side was non-finite
    or a state component left the trust region; the message says which.
    """

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(message)


class NoPlateauError(BoundaryLayerError, RuntimeError):
    """The truncated-boundary search found no plateau at the requested tolerance."""


class BracketError(BoundaryLayerError, ValueError):
    """Shooting bracket does not straddle a sign change of the residual."""


class ShotDivergedError(BoundaryLayerError, RuntimeError):
    """A shooting trajectory blew up before reaching the truncated boundary."""

    def __init__(self, guess: float, cause: Exception):
        self.guess = guess
        super().__init__(f"shot diverged for initial curvature guess {guess:.6g}: {cause}")


class ConvergenceError(BoundaryLayerError, RuntimeError):
    """Iteration budget exhausted before the residual tolerance was met."""
