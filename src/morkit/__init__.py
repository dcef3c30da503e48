"""Projection-based model order reduction toolkit.

Parametrized full-order toy problems, POD/greedy reduced bases with
certified error bounds, empirical interpolation of functions and operators,
geometry morphing maps, and active-subspace parameter reduction.
"""

from . import active_subspaces, certification, fom, interpolation, linalg, morphing, rb
from .active_subspaces import (
    ActiveSubspace,
    SampledGradients,
    estimate_subspace,
    n_train_heuristic,
    project_active,
    sample_gradients,
    subspace_distance,
)
from .certification import (
    CertifiedErrorEstimator,
    CoercivityError,
    build_coercivity_model,
    coercivity_lb,
    error_bounds,
    residual_dual_norm,
    riesz_offline,
)
from .fom import (
    AffineSystem,
    FomSolution,
    NewtonError,
    NonlinearFom,
    ParamDomain,
    assemble_gaussian_poisson,
    assemble_thermal_block,
    fom_solve,
    nonlinear_solve,
)
from .interpolation import (
    DeimBasis,
    EimBasis,
    deim_build,
    deim_eval,
    eim_build,
    eim_interpolate,
    lebesgue_constant,
    mdeim_build,
    mdeim_reconstruct,
)
from .linalg import SingularMatrixError, orthonormalize, solve, svd, sym_eig
from .morphing import (
    FfdLattice,
    IdwMorph,
    MorphBuildError,
    RbfMorph,
    ffd_deform,
    idw_deform,
    rbf_build,
    rbf_deform,
)
from .rb import (
    ReducedBasis,
    RomSystem,
    greedy,
    lift,
    load_rom,
    pod,
    project,
    rom_solve,
    save_rom,
)

__version__ = "0.1.0"
