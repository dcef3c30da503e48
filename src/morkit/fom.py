"""Full-order parametrized toy problems on structured grids.

Provides the generic affine-system container plus three concrete problems:
a two-material heat-conduction block with a moving interface, a Poisson
problem with a parametrized Gaussian forcing, and a small nonlinear
diffusion problem used by the operator hyper-reduction demo. The non-affine
Gaussian source becomes a load through a matrix on its values at grid points.

Discretization is bilinear quadrilateral finite elements on a uniform grid,
with symmetric elimination of Dirichlet rows/columns so assembled operators
stay SPD. Matrices are stored sparse (CSR); everything downstream that needs
dense data densifies explicitly.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import SingularMatrixError

# reference element matrices on [0,1]^2, node order (0,0),(1,0),(1,1),(0,1)
_KX_REF = np.array(
    [[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]], dtype=float
) / 6.0
_KY_REF = np.array(
    [[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]], dtype=float
) / 6.0
_M_REF = np.array(
    [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
) / 36.0


@dataclass(frozen=True)
class ParamDomain:
    """Box parameter domain in R^p."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper bounds must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self):
        return self.lower.shape[0]

    def contains(self, mu):
        """Whether ``mu`` lies in the box, padded by 1e-12 of its width."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        pad = 1e-12 * (self.upper - self.lower)
        return bool(np.all(mu >= self.lower - pad) and np.all(mu <= self.upper + pad))

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        return self.lower + (self.upper - self.lower) * rng.random((n, self.dim))

    def uniform_grid(self, points_per_dim):
        """Tensor grid of parameter points, strictly inside the open box."""
        axes = [
            np.linspace(lo, hi, points_per_dim + 2)[1:-1]
            for lo, hi in zip(self.lower, self.upper)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def affine_weights(theta_map, mu, count):
    """Evaluate a theta map at ``mu``, checking it gives ``count`` weights."""
    theta = np.atleast_1d(np.asarray(theta_map(mu), dtype=float))
    if theta.shape != (count,):
        raise ValueError(
            f"theta map returned {theta.shape[0]} weights for {count} affine terms"
        )
    return theta


def affine_sum(theta_map, terms, mu):
    """The affine combination sum_q theta_q(mu) * terms[q] (0 for no terms).

    Works for sparse and dense terms alike; every assembly of a
    parameter-dependent operator or load goes through here.
    """
    return weighted_sum(affine_weights(theta_map, mu, len(terms)), terms)


def weighted_sum(weights, terms):
    """The sum over q of weights[..., q] * terms[q], for one row or a stack.

    A 1-d ``weights`` gives one sum and works for sparse terms. An (M, Q)
    stack gives the M sums of dense terms stacked, each bitwise equal to
    the sum of its own row: the products and additions are the same.
    """
    if weights.ndim == 2:
        weights = weights.T[(...,) + (None,) * np.ndim(terms[0])]
    return sum(w * term for w, term in zip(weights, terms))


@dataclass
class AffineSystem:
    """Parametrized linear system as theta-weighted sums of constant terms.

    ``matrix_terms`` holds the Q_a constant stiffness contributions,
    ``rhs_terms`` the Q_f load contributions; ``theta_a``/``theta_f`` map a
    parameter point to the corresponding weight vectors. ``gram`` is the SPD
    matrix defining the discrete inner product (H1-type, parameter
    independent). Outputs are compliant, s(mu) = f(mu) . u: the load is the
    output functional, so a system given a new load has the matching output.
    """

    matrix_terms: list
    rhs_terms: list
    theta_a: callable
    theta_f: callable
    gram: sp.csr_matrix
    domain: ParamDomain
    theta_name: str = None
    nodes: np.ndarray = None  # dof coordinates, for export / diagnostics

    def __post_init__(self):
        n = self.matrix_terms[0].shape[0]
        for a in self.matrix_terms:
            if a.shape != (n, n):
                raise ValueError("all matrix terms must share the same square shape")
        for f in self.rhs_terms:
            if f.shape != (n,):
                raise ValueError("rhs terms must match the matrix dimension")
        if self.gram.shape != (n, n):
            raise ValueError("gram matrix dimension mismatch")

    @property
    def dof_count(self):
        return self.matrix_terms[0].shape[0]

    @property
    def q_a(self):
        return len(self.matrix_terms)

    @property
    def q_f(self):
        return len(self.rhs_terms)

    def assemble_matrix(self, mu):
        return affine_sum(self.theta_a, self.matrix_terms, mu)

    def assemble_rhs(self, mu):
        return affine_sum(self.theta_f, self.rhs_terms, mu)

    def gram_factor(self):
        """Sparse LU solver of the gram matrix, owned by the caller.

        The system keeps no factorization, so none outlives the offline
        work that needed it.
        """
        try:
            return spla.factorized(sp.csc_matrix(self.gram))
        except RuntimeError as exc:
            raise SingularMatrixError(f"gram factorization failed: {exc}") from exc

    def gram_solve(self, b, factor):
        """Solve gram x = b with ``factor`` from :meth:`gram_factor`."""
        return factor(np.asarray(b, dtype=float))

    def gram_norm(self, v):
        return float(np.sqrt(max(v @ (self.gram @ v), 0.0)))


@dataclass(frozen=True)
class FomSolution:
    """Full-order solution at one parameter point."""

    mu: np.ndarray
    coefficients: np.ndarray
    output: float


class NewtonError(RuntimeError):
    """Newton iteration failed to converge; carries the last residual norm."""

    def __init__(self, message, residual_norm):
        super().__init__(message)
        self.residual_norm = residual_norm


def _grid_nodes(n, lo=0.0, hi=1.0):
    x = np.linspace(lo, hi, n + 1)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def _element_connectivity(n):
    """Local-to-global node indices for each of the n*n elements.

    Node (i, j) on the (n+1)x(n+1) grid has global index i*(n+1)+j, i along x.
    Element (i, j) covers [x_i, x_{i+1}] x [y_j, y_{j+1}]; elements are
    numbered i*n + j.
    """
    i, j = np.divmod(np.arange(n * n), n)
    n00 = i * (n + 1) + j
    n10 = n00 + n + 1
    return np.stack([n00, n10, n10 + 1, n00 + 1], axis=1)


class _Q1Pattern:
    """CSR pattern of the Q1 operators between the kept nodes of a grid.

    Element-local entry (e, 4a + b) couples nodes conn[e, a] and conn[e, b].
    Entries with a node outside ``keep`` (a boolean node mask) are dropped;
    the rest land on the sorted CSR slots of the kept nodes, numbered in
    node order. ``scatter`` is the 0/1 (slots x 16*elements) map from local
    entries to slots: applied to the raveled element matrices, it sums each
    slot's contributions in element order, as a COO sum of duplicates does.
    """

    def __init__(self, conn, keep):
        self.size = m = int(np.count_nonzero(keep))
        dof_of_node = np.full(len(keep), -1)
        dof_of_node[keep] = np.arange(m)
        dofs = dof_of_node[conn]
        rows = np.repeat(dofs, 4, axis=1).ravel()
        cols = np.tile(dofs, (1, 4)).ravel()
        inside = np.flatnonzero((rows >= 0) & (cols >= 0))
        keys, slot = np.unique(rows[inside] * m + cols[inside], return_inverse=True)
        self._indptr = np.searchsorted(keys, np.arange(m + 1) * m)
        self._indices = keys % m
        self.scatter = sp.csr_matrix(
            (np.ones(len(inside)), (slot, inside)), shape=(len(keys), 16 * len(conn))
        )

    def assemble(self, local_matrices):
        """The operator of the per-element 4x4 matrices."""
        return self.on_pattern(self.scatter @ np.ravel(local_matrices))

    def on_pattern(self, data):
        """The CSR matrix with ``data`` on the pattern slots."""
        shape = (self.size, self.size)
        return sp.csr_matrix((data, self._indices, self._indptr), shape=shape)


def theta_thermal(mu):
    """Affine weights of the two-material block with interface parameter mu."""
    mu = np.atleast_1d(mu)
    if mu.shape != (1,):
        raise ValueError(f"expected one interface parameter, got {mu.size} values")
    mu = float(mu[0])
    if not 0.0 < mu < 1.0:
        raise ValueError("interface parameter must lie strictly inside (0, 1)")
    return np.array([1.0 / (2.0 * mu), 2.0 * mu, 1.0 / (2.0 - 2.0 * mu), 2.0 - 2.0 * mu])


def _theta_thermal_f(mu):
    return np.array([1.0])


# (theta_a, theta_f) by name, so saved reduced models can be reloaded
THETA_REGISTRY = {
    "thermal-block": (theta_thermal, _theta_thermal_f),
}


def assemble_thermal_block(n=32, sigma1=1.0, sigma2=1.0):
    """Two-material heat conduction on the unit square, interface at x = mu.

    Assembled on the reference configuration (interface at 0.5) with the
    x-/y-derivative split per subdomain, giving four affine stiffness terms.
    Unit inflow flux on the x=0 edge provides the single load term; the x=1
    edge carries homogeneous Dirichlet conditions, eliminated symmetrically.
    The output is compliant, s = f . u. Requires even ``n`` so the
    material interface falls on a grid line.
    """
    if n < 3:
        raise ValueError("grid resolution must be at least 3")
    if n % 2 != 0:
        raise ValueError("grid resolution must be even (interface on a grid line)")
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        raise ValueError("conductivities must be positive")

    nodes = _grid_nodes(n)
    conn = _element_connectivity(n)
    h = 1.0 / n
    centers_x = nodes[conn].mean(axis=1)[:, 0]
    left = centers_x < 0.5
    keep = nodes[:, 0] < 1.0 - 1e-12
    pattern = _Q1Pattern(conn, keep)

    def stiff(mask, sigma, ref):
        local = np.zeros((len(conn), 4, 4))
        local[mask] = sigma * ref  # hx = hy so the aspect factor is 1
        return pattern.assemble(local)

    terms = [stiff(left, sigma1, _KX_REF), stiff(left, sigma1, _KY_REF),
             stiff(~left, sigma2, _KX_REF), stiff(~left, sigma2, _KY_REF)]
    mass = pattern.assemble(np.broadcast_to(h * h * _M_REF, (len(conn), 4, 4)))
    # H1 inner product at the reference parameter (all theta weights equal 1)
    gram = sp.csr_matrix(sum(terms) + mass)

    # unit Neumann flux on the x=0 edge: trapezoidal edge load
    load = np.zeros(len(nodes))
    load[:n] += h / 2.0
    load[1:n + 1] += h / 2.0
    f = load[keep]

    return AffineSystem(
        matrix_terms=terms,
        rhs_terms=[f],
        theta_a=theta_thermal,
        theta_f=_theta_thermal_f,
        gram=gram,
        # box kept away from the (0,1) endpoints where the theta weights
        # blow up and the certified bound loses accuracy to round-off
        domain=ParamDomain([0.05], [0.95]),
        theta_name="thermal-block",
        nodes=nodes[keep],
    )


def thermal_block_direct(n, mu, sigma1=1.0, sigma2=1.0):
    """Direct stiffness assembly on the physically deformed grid.

    The reference grid is mapped so the material interface sits at x = mu;
    used as the truth counterpart of the affine expansion.
    """
    if n % 2 != 0:
        raise ValueError("grid resolution must be even")
    mu = float(np.atleast_1d(mu)[0])
    nodes = _grid_nodes(n)
    xbar = nodes[:, 0]
    x = np.where(xbar <= 0.5, 2.0 * mu * xbar, (2.0 - 2.0 * mu) * xbar + 2.0 * mu - 1.0)
    nodes = np.stack([x, nodes[:, 1]], axis=1)
    conn = _element_connectivity(n)
    hy = 1.0 / n

    x0, x1 = nodes[conn[:, 0], 0], nodes[conn[:, 1], 0]
    hx = (x1 - x0)[:, None, None]
    sigma = np.where(0.5 * (x1 + x0) < mu, sigma1, sigma2)[:, None, None]
    local = sigma * ((hy / hx) * _KX_REF + (hx / hy) * _KY_REF)
    return _Q1Pattern(conn, xbar < 1.0 - 1e-12).assemble(local)


def gaussian_forcing(x, mu):
    """Gaussian heat source ``exp(-2|x - mu|^2)`` centered at the parameter point.

    The width is fixed: x lies in [-1,1]^2 and mu in the parameter domain
    [-1,1]^2 of ``assemble_gaussian_poisson``, so the peak moves across the
    whole domain. The decay rate of any Q-term approximation of this family,
    EIM included, is set by that width and domain, not by the grid.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu = np.asarray(mu, dtype=float)
    r2 = (x[:, 0] - mu[0]) ** 2 + (x[:, 1] - mu[1]) ** 2
    return np.exp(-2.0 * r2)


def assemble_gaussian_poisson(n=24):
    """Poisson problem on [-1,1]^2 with a parameter-dependent Gaussian source.

    The stiffness is parameter independent (one affine term, weight 1), with
    homogeneous Dirichlet conditions on the whole boundary.

    Returns ``(system, points, load_map)``. The source ``gaussian_forcing`` is
    not affine in the parameter, so ``system`` has no load terms. ``points``
    are all the grid nodes, boundary included, where the source is sampled.
    ``load_map`` is the CSR matrix of the interior rows of the full-grid mass:
    ``load_map @ g`` is the consistent interior load of the nodal values ``g``,
    and ``load_map @ G`` gives one load per column of ``G``.
    """
    if n < 3:
        raise ValueError("grid resolution must be at least 3")
    nodes = _grid_nodes(n, -1.0, 1.0)
    conn = _element_connectivity(n)
    h = 2.0 / n
    interior_mask = np.all(np.abs(nodes) < 1.0 - 1e-12, axis=1)
    interior = np.flatnonzero(interior_mask)
    pattern = _Q1Pattern(conn, interior_mask)
    local_mass = np.broadcast_to(h * h * _M_REF, (len(conn), 4, 4))

    a = pattern.assemble(np.broadcast_to(_KX_REF + _KY_REF, (len(conn), 4, 4)))
    gram = sp.csr_matrix(a + pattern.assemble(local_mass))
    mass_full = _Q1Pattern(conn, np.ones(len(nodes), dtype=bool)).assemble(local_mass)

    system = AffineSystem(
        matrix_terms=[a],
        rhs_terms=[],
        theta_a=lambda mu: np.array([1.0]),
        theta_f=lambda mu: np.array([]),
        gram=gram,
        domain=ParamDomain([-1.0, -1.0], [1.0, 1.0]),
        nodes=nodes[interior],
    )
    return system, nodes, mass_full[interior]


def solve_gaussian_poisson(system, points, load_map, mu):
    """Truth solve with the load ``load_map @ gaussian_forcing(points, mu)``."""
    f = load_map @ gaussian_forcing(points, mu)
    a = sp.csc_matrix(system.assemble_matrix(mu))
    u = spla.spsolve(a, f)
    return FomSolution(mu=np.asarray(mu, dtype=float), coefficients=u, output=float(f @ u))


def fom_solve(system, mu):
    """Solve the affine full-order system at one parameter point."""
    if not system.rhs_terms:
        raise ValueError("the system has no load terms (rhs_terms is empty)")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if not system.domain.contains(mu):
        raise ValueError(f"parameter {mu} outside the parameter domain")
    a = sp.csc_matrix(system.assemble_matrix(mu))
    f = system.assemble_rhs(mu)
    u = spla.spsolve(a, f)
    if not np.all(np.isfinite(u)):
        raise SingularMatrixError("full-order solve produced non-finite values")
    resid = np.linalg.norm(a @ u - f)
    if resid > 1e-10 * max(np.linalg.norm(f), 1.0):
        raise SingularMatrixError(
            f"full-order solve residual too large: {resid:.3e}"
        )
    return FomSolution(mu=mu, coefficients=u, output=float(f @ u))


def fom_solve_many(system, mus):
    """Yield :func:`fom_solve` at each point of ``mus``, in that order.

    The solves run side by side, one per CPU the process may use (its
    affinity set, else the CPU count). With k CPUs, k - 1 helper threads
    take the points in order, handed out at most 2k points ahead of the one
    being yielded. While that point is unfinished, the calling thread does
    not wait but solves the first handed-out point no helper has started,
    and waits only when every point is taken. So at most k factorizations
    are alive at once and few results wait. With one CPU this is the plain
    serial loop, and no thread starts.

    The results are bitwise those of the serial loop: each is one
    ``fom_solve`` call on its own point, nothing is summed across points,
    and SciPy's SuperLU factors with the GIL released and keeps its error
    state per thread. Every thread calls the module's ``fom_solve``, so a
    wrapper set in its place sees every solve. A failing point raises its
    error when the iteration reaches it. On an error, or when the generator
    is closed early, the solves not yet started are cancelled and none
    still running is waited for.
    """
    # imported here: fom adds no module-level import (its import time is
    # benchmarked)
    import os

    mus = list(mus)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    if cpus == 1:
        for mu in mus:
            yield fom_solve(system, mu)
        return

    from concurrent.futures import Future, ThreadPoolExecutor

    def solve_here(mu):
        done = Future()
        try:
            done.set_result(fom_solve(system, mu))
        except Exception as exc:  # raised when the iteration reaches mu
            done.set_exception(exc)
        return done

    pool = ThreadPoolExecutor(max_workers=cpus - 1)
    ahead = {}  # index -> future of each point handed out and not yielded
    try:
        for i in range(len(mus)):
            for j in range(i + len(ahead), min(i + 2 * cpus, len(mus))):
                ahead[j] = pool.submit(fom_solve, system, mus[j])
            while not ahead[i].done():
                # cancel() takes a point back only if no helper started it
                taken = next((j for j in sorted(ahead) if ahead[j].cancel()), None)
                if taken is None:
                    break
                ahead[taken] = solve_here(mus[taken])
            yield ahead.pop(i).result()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def nu_gaussian(x, mu):
    """Parametrized diffusivity field: shifted Gaussian bump over a floor."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu = np.asarray(mu, dtype=float)
    expo = -2.0 * (x[:, 0] - mu[0] - 0.5) ** 2 - 2.0 * (x[:, 1] - mu[1] - 0.5) ** 2
    return np.exp(2.0 * expo) / 100.0 + 0.01


_NONLIN_COEFF = 0.01  # scale of the solution-dependent coefficient of C(u)


class NonlinearFom:
    """Nonlinear diffusion problem u + div-free operator terms on [0,1]^2.

    Discrete residual R(u; mu) = M u + A(mu) u + C(u) u - f, where A(mu) is a
    stiffness matrix with the non-affine coefficient ``nu_gaussian`` and C(u)
    a stiffness matrix whose per-element coefficient is
    ``0.01 * mean(u)^2`` (solution dependent). Homogeneous Dirichlet
    on the whole boundary. Exposes the two operator snapshots for matrix
    hyper-reduction.

    ``mass``, ``diffusion_matrix`` and ``convection_matrix`` are CSR matrices
    on the interior Q1 ``pattern``, and their ``data`` arrays follow its slot
    order. The stiffness data is ``stiffness_scatter @ coef``, a sparse
    nnz x elements map applied to per-element coefficients, so the entries
    at a few slots need the coefficients of the few elements that touch them.
    """

    def __init__(self, n=12):
        if n < 3:
            raise ValueError("grid resolution must be at least 3")
        self.n = n
        nodes = _grid_nodes(n)
        conn = _element_connectivity(n)
        h = 1.0 / n
        interior_mask = np.all((nodes > 1e-12) & (nodes < 1.0 - 1e-12), axis=1)
        self.interior = np.flatnonzero(interior_mask)
        self.conn = conn
        self.centers = nodes[conn].mean(axis=1)
        self.domain = ParamDomain([-0.5, -0.5], [0.5, 0.5])
        self.pattern = _Q1Pattern(conn, interior_mask)
        self.dof_count = self.pattern.size

        self._k_unit_ref = _KX_REF + _KY_REF  # hx = hy
        self.stiffness_scatter = sp.csr_matrix(
            self.pattern.scatter
            @ sp.kron(sp.identity(len(conn)), self._k_unit_ref.reshape(16, 1))
        )
        local_mass = np.broadcast_to(h * h * _M_REF, (len(conn), 4, 4))
        self.mass = self.pattern.assemble(local_mass)
        full_mass = _Q1Pattern(conn, np.ones(len(nodes), dtype=bool)).assemble(local_mass)
        self.forcing = (full_mass @ np.ones(len(nodes)))[self.interior]

    def _full_u(self, u):
        full = np.zeros((self.n + 1) * (self.n + 1))
        full[self.interior] = u
        return full

    def diffusion_coefficients(self, mu, elements=slice(None)):
        """Coefficient of A(mu) on the given elements (all by default)."""
        return nu_gaussian(self.centers[elements], mu)

    def convection_coefficients(self, u, elements=slice(None)):
        """Coefficient of C(u) on the given elements (all by default)."""
        mean_u = self._full_u(u)[self.conn[elements]].mean(axis=1)
        return _NONLIN_COEFF * mean_u ** 2

    def diffusion_matrix(self, mu):
        """A(mu): stiffness with the non-affine coefficient at element centers."""
        coef = self.diffusion_coefficients(mu)
        return self.pattern.on_pattern(self.stiffness_scatter @ coef)

    def convection_matrix(self, u):
        """C(u): stiffness with the solution-dependent element coefficient."""
        coef = self.convection_coefficients(u)
        return self.pattern.on_pattern(self.stiffness_scatter @ coef)

    def operator_snapshot(self, u, mu):
        return self.diffusion_matrix(mu), self.convection_matrix(u)

    def residual(self, u, mu):
        a, c = self.operator_snapshot(u, mu)
        return self.mass @ u + a @ u + c @ u - self.forcing

    def jacobian(self, u, mu):
        """Sparse Jacobian M + A(mu) + C(u) + dC/du u, in one scatter."""
        u_e = self._full_u(u)[self.conn]
        mean_u = u_e.mean(axis=1)
        coef = self.diffusion_coefficients(mu) + _NONLIN_COEFF * mean_u ** 2
        # derivative of the C(u) coefficients: coef_e = k (mean u_e)^2, so
        # d coef_e / d u_node = k 2 mean_u / 4 for each of the element's nodes
        dcoef = _NONLIN_COEFF * 2.0 * mean_u / 4.0
        ku = np.einsum("ij,ej->ei", self._k_unit_ref, u_e)
        local = coef[:, None, None] * self._k_unit_ref + (dcoef[:, None] * ku)[:, :, None]
        data = self.mass.data + self.pattern.scatter @ local.ravel()
        return self.pattern.on_pattern(data)


def newton(residual, jacobian, u, tol, max_iter):
    """Newton iteration from ``u``, shared by the truth and hyper-reduced solves.

    Returns the first iterate with ``||residual(u)|| <= tol``, after at most
    ``max_iter`` sparse-LU steps. ``jacobian`` is called only for a step, at
    the iterate of the last ``residual`` call. Raises :class:`NewtonError`
    with the last residual norm if no iterate reaches ``tol``.
    """
    for step in range(max(max_iter, 0) + 1):
        r = residual(u)
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol:
            return u
        if step < max_iter:
            u = u - spla.spsolve(jacobian(u), r, permc_spec="MMD_AT_PLUS_A")
    raise NewtonError(
        f"Newton did not converge in {max_iter} iterations "
        f"(last residual {r_norm:.3e})",
        r_norm,
    )


# the residual norm at which the truth and the hyper-reduced Newton solves stop
_NEWTON_TOL = 1e-9


def nonlinear_solve(fom, mu, max_iter=50):
    """:func:`newton` for the nonlinear diffusion problem, started at zero."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return newton(lambda u: fom.residual(u, mu), lambda u: fom.jacobian(u, mu),
                  np.zeros(fom.dof_count), _NEWTON_TOL, max_iter)


def write_csv(path, header, rows):
    """Write ``header``, then one comma-separated line per row.

    Integers are written as integers and every other value with 17
    significant digits, so floats round-trip exactly. ``rows`` is an array or
    an iterable of rows; all rows are formatted by one ``%`` operation, with
    one line template per distinct sequence of value types.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    templates, lines, values = {}, [], []
    for row in rows:
        types = tuple(map(type, row))
        line = templates.get(types)
        if line is None:
            line = templates[types] = ",".join(
                ["%d" if issubclass(t, (int, np.integer)) else "%.17g" for t in types]
            )
        lines.append(line)
        values.extend(row)
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "\n".join(lines) % tuple(values))
