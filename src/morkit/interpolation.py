"""Empirical interpolation family: EIM, DEIM and matrix DEIM.

Greedy builders select hierarchical basis columns and "magic" sample indices;
evaluation reconstructs a full field (or operator) from values at those few
indices alone.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import linalg
from .fom import NewtonError


@dataclass
class FunctionSamples:
    """Sampled function values: rows are spatial points, columns parameters."""

    values: np.ndarray
    points: np.ndarray = None
    parameters: list = None

    def __post_init__(self):
        self.values = linalg.check_matrix(self.values, "sample matrix")
        if self.points is not None:
            self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
            if self.points.shape[0] != self.values.shape[0]:
                raise ValueError("point count must match the sample row count")
        if self.parameters is not None and len(self.parameters) != self.values.shape[1]:
            raise ValueError("parameter count must match the sample column count")


@dataclass
class EimBasis:
    """Hierarchical interpolation basis with its magic indices."""

    basis: np.ndarray
    magic_indices: list
    error_history: list
    selected_parameter_indices: list

    @property
    def size(self):
        return self.basis.shape[1]

    @property
    def interp_matrix(self):
        """The collocation matrix: the basis rows at the magic indices."""
        return self.basis[self.magic_indices, :]


@dataclass
class DeimBasis:
    """Orthonormal interpolation modes with greedily selected sample indices."""

    basis: np.ndarray
    magic_indices: list
    singular_values: np.ndarray = field(default_factory=lambda: np.array([]))
    error_history: list = field(default_factory=list)
    # operator bases: the matrix shape, and the column-major flat index
    # (row + n_rows * col) of the entry each basis row holds
    matrix_shape: tuple = None
    pattern: np.ndarray = None

    @property
    def size(self):
        return self.basis.shape[1]

    def magic_entries(self):
        """Magic indices mapped back to (row, col) operator entries."""
        if self.matrix_shape is None:
            raise ValueError("not an operator basis")
        n_rows = self.matrix_shape[0]
        return [(int(f % n_rows), int(f // n_rows)) for f in self.pattern[self.magic_indices]]


def _eim_residual(f, basis, indices):
    """Residual of interpolating every column of f at the magic indices."""
    t = basis[indices, :]
    coeff = scipy.linalg.solve_triangular(t, f[indices, :], lower=True,
                                          unit_diagonal=True)
    return f - basis @ coeff


def eim_build(samples, tol=1e-12, n_max=None):
    """Greedy empirical-interpolation basis from a sample matrix.

    Column selection maximizes the sup-norm interpolation residual, the magic
    index maximizes the pointwise residual of that column, and the normalized
    residual column is appended. The recorded error history uses the
    up-to-date interpolant after each append, so it is non-increasing and the
    stopping test reflects the current basis. Each step makes one pass over
    the new residual: its column sup norms give both the error and the next
    column.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    f = samples.values
    m, n_cols = f.shape
    residual = f
    col_err = np.abs(residual).max(axis=0)
    if col_err.max() == 0.0:
        raise ValueError("sample matrix is identically zero")
    if n_max is None:
        n_max = min(m, n_cols)

    basis = np.zeros((m, 0))
    indices = []
    selected_cols = []
    history = []

    while basis.shape[1] < n_max:
        j_k = int(np.argmax(col_err))
        r_col = residual[:, j_k]
        i_k = int(np.argmax(np.abs(r_col)))
        denom = r_col[i_k]
        if abs(denom) < 1e-14:
            break  # saturation: training data numerically in the span
        basis = np.column_stack([basis, r_col / denom])
        indices.append(i_k)
        selected_cols.append(j_k)
        residual = _eim_residual(f, basis, indices)
        col_err = np.abs(residual).max(axis=0)
        eps = float(col_err.max())
        history.append(eps)
        if eps <= tol:
            break

    return EimBasis(
        basis=basis,
        magic_indices=indices,
        error_history=history,
        selected_parameter_indices=selected_cols,
    )


def eim_coefficients(basis, values_at_magic_points):
    """Interpolation coefficients by forward substitution on the unit-lower T."""
    v = np.asarray(values_at_magic_points, dtype=float)
    if v.shape[0] != basis.size:
        raise ValueError("expected one value per magic point")
    return scipy.linalg.solve_triangular(
        basis.interp_matrix, v, lower=True, unit_diagonal=True
    )


def eim_interpolate(basis, values_at_magic_points):
    """Reconstruct the full field from its values at the magic points."""
    return basis.basis @ eim_coefficients(basis, values_at_magic_points)


def lebesgue_constant(basis):
    """Discrete Lebesgue constant: max absolute row sum of the Lagrange matrix."""
    t_inv = scipy.linalg.solve_triangular(
        basis.interp_matrix, np.eye(basis.size), lower=True, unit_diagonal=True
    )
    lagrange = basis.basis @ t_inv
    constant = float(np.abs(lagrange).sum(axis=1).max())
    bound = 2.0 ** basis.size - 1.0
    if constant > bound * (1.0 + 1e-9):
        raise AssertionError(
            f"Lebesgue constant {constant} exceeds the 2^Q - 1 bound {bound}"
        )
    return constant


def deim_build(snapshots, tol=1e-10, n_max=None):
    """Interpolation basis from POD modes with greedy index selection.

    The stopping error is the relative Frobenius reconstruction error of the
    snapshot matrix from its currently sampled rows.
    """
    s = linalg.check_matrix(snapshots, "snapshot matrix")
    if np.abs(s).max() == 0.0:
        raise ValueError("snapshot matrix is identically zero")
    svd = linalg.svd(s)
    sigma = svd.singular_values
    keep = int(np.sum(sigma > 1e-12 * sigma[0]))
    modes = svd.left_vectors[:, :keep]
    if n_max is not None:
        keep = min(keep, n_max)
    s_norm = np.linalg.norm(s)

    indices = [int(np.argmax(np.abs(modes[:, 0])))]
    history = []
    q = 1
    while True:
        h_q = modes[:, :q]
        pth = h_q[indices, :]
        try:
            coeff = np.linalg.solve(pth, s[indices, :])
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "singular sampled-row system during index selection"
            ) from exc
        eps = float(np.linalg.norm(s - h_q @ coeff) / s_norm)
        history.append(eps)
        if eps <= tol or q >= keep:
            break
        # next index from the residual of the next mode
        c = np.linalg.solve(pth, modes[indices, q])
        r = modes[:, q] - h_q @ c
        i_k = int(np.argmax(np.abs(r)))
        if i_k in indices:  # guarded: cannot happen with independent modes
            raise RuntimeError("repeated interpolation index")
        indices.append(i_k)
        q += 1
    return DeimBasis(
        basis=modes[:, :q],
        magic_indices=indices,
        singular_values=sigma,
        error_history=history,
    )


def deim_eval(basis, sampled_values):
    """Reconstruct a full vector from its entries at the magic indices."""
    return basis.basis @ deim_coefficients(basis, sampled_values)


def deim_coefficients(basis, sampled_values):
    """Expansion coefficients from entries at the magic indices."""
    v = np.asarray(sampled_values, dtype=float)
    if v.shape[0] != basis.size:
        raise ValueError("expected one sampled value per magic index")
    pth = basis.basis[basis.magic_indices, :]
    return np.linalg.solve(pth, v)


def mdeim_build(operator_snapshots, tol=1e-10, n_max=None):
    """Matrix DEIM on the union nonzero pattern of the operator snapshots.

    Each snapshot, sparse or dense, contributes its nonzero entries. The
    union pattern is kept in column-major order, the order of the vectorized
    matrix, so the greedy argmax breaks ties as it would on the full vector.
    The builder runs on the nnz x snapshots matrix: the basis rows are the
    pattern entries and ``magic_indices`` index those rows.
    """
    mats = []
    for a in operator_snapshots:
        a = sp.csc_matrix(a, dtype=float, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if mats and a.shape != mats[0].shape:
            raise ValueError("operator snapshots must share one shape")
        mats.append(a)
    n_rows = mats[0].shape[0]
    keys = [a.indices + n_rows * np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
            for a in mats]
    pattern = np.unique(np.concatenate(keys))
    stacked = np.zeros((len(pattern), len(mats)))
    for k, (key, a) in enumerate(zip(keys, mats)):
        stacked[np.searchsorted(pattern, key), k] = a.data
    basis = deim_build(stacked, tol=tol, n_max=n_max)
    basis.matrix_shape = mats[0].shape
    basis.pattern = pattern
    return basis


def mdeim_reconstruct(basis, operator):
    """Reconstruct an operator, sparse on the basis pattern, from its magic entries."""
    rows, cols = np.array(basis.magic_entries()).T
    if not sp.issparse(operator):
        operator = np.asarray(operator, dtype=float)
    sampled = np.asarray(operator[rows, cols], dtype=float).ravel()
    values = basis.basis @ deim_coefficients(basis, sampled)
    cols, rows = np.divmod(basis.pattern, basis.matrix_shape[0])
    return sp.csr_matrix((values, (rows, cols)), shape=basis.matrix_shape)


def _modes_on_slots(problem, basis):
    """The basis modes on the problem's pattern slots, and the magic slots."""
    cols, rows = np.divmod(basis.pattern, basis.matrix_shape[0])
    slots = problem.pattern.entry_slots(rows, cols)
    modes = np.zeros((len(problem.mass.data), basis.size))
    modes[slots] = basis.basis
    return modes, slots[basis.magic_indices]


def reduced_mesh(problem, magic_slots):
    """The elements that touch the entries at ``magic_slots``, the reduced mesh.

    Also returns the dense map from coefficients on those elements to the
    entries: the rows ``magic_slots`` of ``problem.stiffness_scatter``
    restricted to the mesh.
    """
    rows = problem.stiffness_scatter[magic_slots]
    mesh = np.unique(rows.indices)
    return mesh, rows[:, mesh].toarray()


def mdeim_nonlinear_solve(problem, a_basis, c_basis, mu, tol=1e-9, max_iter=100):
    """Hyper-reduced quasi-Newton solve with both operators interpolated.

    ``problem`` is a :class:`~morkit.fom.NonlinearFom`. The operators are
    never assembled: their coefficients are evaluated only on the reduced
    mesh, the elements that touch a magic entry, and the magic entries are
    ``stiffness_scatter[magic] @ coef`` there. A(mu) is interpolated once per
    solve; each iteration updates the data of the operator on its fixed
    sparse pattern and does one sparse LU. The state keeps full dimension.
    The Jacobian drops the derivative of the solution-dependent
    coefficients, so the iteration is quasi-Newton. Raises
    :class:`~morkit.fom.NewtonError` if ``max_iter`` steps do not reach
    ``tol``.
    """
    a_modes, a_slots = _modes_on_slots(problem, a_basis)
    c_modes, c_slots = _modes_on_slots(problem, c_basis)
    mesh, g = reduced_mesh(problem, np.concatenate([a_slots, c_slots]))
    g_a, g_c = g[:a_basis.size], g[a_basis.size:]
    a_values = g_a @ problem.diffusion_coefficients(mu, mesh)
    fixed = problem.mass.data + a_modes @ deim_coefficients(a_basis, a_values)
    op = problem.pattern.on_pattern(np.empty_like(fixed))  # data set by each iteration
    f = np.asarray(problem.forcing, dtype=float)
    u = np.zeros(f.shape[0])
    for it in range(max_iter + 1):
        c_values = g_c @ problem.convection_coefficients(u, mesh)
        op.data[:] = fixed + c_modes @ deim_coefficients(c_basis, c_values)
        r = op @ u - f
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol:
            return u
        if it < max_iter:
            u = u - spla.spsolve(op, r, permc_spec="MMD_AT_PLUS_A")
    raise NewtonError(
        f"operator-interpolated iteration stalled after {max_iter} iterations "
        f"at residual {r_norm:.3e}",
        r_norm,
    )


def export_eim_basis(basis, directory, points=None):
    """Write an interpolation basis as CSV matrices plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, "basis.csv"), basis.basis,
               delimiter=",", fmt="%.17g")
    manifest = {
        "q": basis.size,
        "magic_indices": [int(i) for i in basis.magic_indices],
        "error_history": [float(e) for e in basis.error_history],
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    if points is not None:
        np.savetxt(os.path.join(directory, "magic_points.csv"),
                   np.atleast_2d(points)[basis.magic_indices],
                   delimiter=",", fmt="%.17g")
