"""Power-law boundary-layer similarity solutions via a non-iterative scaling transformation.

One initial-value integration in rescaled variables, one algebraic
rescaling, no iteration on the missing wall curvature -- plus an
independent shooting oracle to prove it.

Exported: the model, the fixed-step integrator with its order-8
tableau, the transform pipeline (:func:`solve` and its stages), the
shooting oracle, and the errors, all derived from
:class:`BoundaryLayerError`.  Each module's ``__all__`` declares its
share of that surface, and this file only re-exports it.  The command
line is :mod:`powerlaw_blasius.cli`.
"""

from . import errors, model, runge_kutta, shooting, transform
from .errors import *
from .model import *
from .runge_kutta import *
from .shooting import *
from .transform import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *model.__all__, *runge_kutta.__all__, *shooting.__all__, *transform.__all__]
