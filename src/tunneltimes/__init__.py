"""Tunneling times for parametric 1-D barriers.

Computes the entropic tunneling time alongside the classical, phase, and
dwell times for rectangular, triangular, laser-dressed Coulomb, and
tabulated barriers, with WKB and exact transmission probabilities, a
numeric scattering oracle, and reproduction harnesses that emit
machine-readable plot data.

Each module's public names (its ``__all__``) are re-exported here.
"""

from .errors import *
from .experiments import *
from .potentials import *
from .stattherm import *
from .times import *
from .transmission import *
from .turning import *
from .units import *
from .wkb import *

__version__ = "0.1.0"
