"""chemoflux: a 1-D finite-difference laboratory for viscous chemotaxis
conservation laws and their zero-viscosity limit.

The package integrates the coupled system

    u_t + (eps * u^2 - v)_x = eps * u_xx
    v_t - (u v)_x           = v_xx

and its eps = 0 limit, audits entropy balance, mass conservation, and a
positivity floor along trajectories, measures the convergence rate of the
viscous solutions toward the limit as eps shrinks, and translates
chemotaxis (density, chemoattractant) trajectories into these variables
via the logarithmic-gradient substitution.

Every public name of the submodules imported below is re-exported here.
Not re-exported: ``cli``, and ``tridiag``, the Thomas solver kept as the
reference for the FFT diffusion solve.
"""

from . import convergence, diagnostics, ksbridge, model, stepping
from .convergence import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .ksbridge import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .stepping import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (
    model.__all__
    + stepping.__all__
    + diagnostics.__all__
    + convergence.__all__
    + ksbridge.__all__
)
