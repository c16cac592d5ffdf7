"""Blockers of noncrossing perfect matchings and Hamiltonian paths in convex position.

Exact enumeration of both families, exact all-optimal hitting sets, the
explicit caterpillar blocker family, witness path constructions, and a
verification harness producing deterministic machine-readable certificates.
"""

from . import enumeration, formula, geometry, hitting, render, verification, witnesses
from .enumeration import *  # noqa: F401,F403
from .formula import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .hitting import *  # noqa: F401,F403
from .render import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403
from .witnesses import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's public names, each once.
__all__ = sorted(
    {
        name
        for module in (enumeration, formula, geometry, hitting, render, verification, witnesses)
        for name in module.__all__
    }
)
