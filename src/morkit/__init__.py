"""Projection-based model order reduction toolkit.

Parametrized full-order toy problems, POD/greedy reduced bases with
certified error bounds, empirical interpolation of functions and operators,
geometry morphing maps, and active-subspace parameter reduction.
"""

from . import active_subspaces, certification, fom, interpolation, linalg, morphing, rb

__version__ = "0.1.0"
