"""Finite-difference experiments for semilinear elliptic problems on
epigraphs, strips and related unbounded domains: qualitative solver checks
(monotonicity sweeps, comparison and uniqueness probes, symmetry transfer,
gradient and oscillation estimates) plus a config-driven CLI."""

__version__ = "0.1.0"

from .errors import *
from .geometry import *
from .nonlinearity import *
from .closed_forms import *
from .discretization import *
from .solver import *
from .moving_plane import *
from .comparison import *
from .estimates import *
from .reporting import *

# each import above also binds its submodule's name in this package
__all__ = [name for module in (errors, geometry, nonlinearity, closed_forms,
                               discretization, solver, moving_plane,
                               comparison, estimates, reporting)
           for name in module.__all__]
