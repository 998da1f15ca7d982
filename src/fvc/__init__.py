"""Numerical toolkit for fractional variational problems of Bolza type.

Trajectories are parametrized by (u, y) with x = y + I^alpha[u], costs
combine a Mayer endpoint term with a fractional-order integral Lagrange term,
and the necessary optimality conditions (Euler-Lagrange, transversality,
Legendre) are exposed as computable residuals.
"""

# the public API is each module's __all__, republished here
from .conditions import *  # noqa: F401,F403
from .convex import *  # noqa: F401,F403
from .expr import *  # noqa: F401,F403
from .frac_ops import *  # noqa: F401,F403
from .functional import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"
