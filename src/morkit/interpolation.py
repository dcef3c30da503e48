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

from . import linalg
from .fom import newton


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
    """Orthonormal interpolation modes with greedily selected sample indices.

    An operator basis from :func:`mdeim_build` has a CSR ``pattern``; its
    basis rows and magic indices are that pattern's slots.
    """

    basis: np.ndarray
    magic_indices: list
    singular_values: np.ndarray = field(default_factory=lambda: np.array([]))
    error_history: list = field(default_factory=list)
    pattern: sp.csr_matrix = None

    @property
    def size(self):
        return self.basis.shape[1]


def _eim_residual(f, basis, indices):
    """Residual of interpolating every column of f at the magic indices."""
    t = basis[indices, :]
    coeff = scipy.linalg.solve_triangular(t, f[indices, :], lower=True,
                                          unit_diagonal=True)
    return f - basis @ coeff


def eim_build(samples, tol=1e-12, n_max=None):
    """Greedy empirical-interpolation basis from a sample matrix.

    ``samples`` is the 2-d matrix of function values, one row per spatial
    point and one column per parameter. Column selection maximizes the
    sup-norm interpolation residual, the magic index maximizes the
    pointwise residual of that column, and the normalized residual column
    is appended. The recorded error history uses the up-to-date interpolant
    after each append, so the stopping test reflects the current basis. It
    need not decrease: the interpolant is not a best approximation. One pass
    over each new residual's column sup norms gives the error and next column.
    """
    if not tol > 0.0:  # also rejects NaN
        raise ValueError("tolerance must be positive")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    f = linalg.check_matrix(samples, "sample matrix")
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

    ``snapshots`` is the 2-d snapshot matrix, one column per parameter. The
    stopping error is the relative Frobenius reconstruction error of the
    snapshot matrix from its currently sampled rows.
    """
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    s = linalg.check_matrix(snapshots, "snapshot matrix")
    if np.abs(s).max() == 0.0:
        raise ValueError("snapshot matrix is identically zero")
    u, sigma, _ = linalg.svd(s)
    keep = int(np.sum(sigma > 1e-12 * sigma[0]))
    modes = u[:, :keep]
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
            raise linalg.SingularMatrixError(
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
            raise linalg.SingularMatrixError("repeated interpolation index")
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


def _on_pattern(pattern, operator):
    """``operator`` in CSR; ValueError unless it has ``pattern``'s slots."""
    a = sp.csr_matrix(operator, dtype=float)
    if (a.shape != pattern.shape or not np.array_equal(a.indptr, pattern.indptr)
            or not np.array_equal(a.indices, pattern.indices)):
        raise ValueError("operator is not on the basis pattern")
    return a


def mdeim_build(operator_snapshots, tol=1e-10, n_max=None):
    """Matrix DEIM on the CSR slots that all operator snapshots share.

    Each snapshot, sparse or dense, is taken in CSR; all must share one
    shape, ``indptr`` and ``indices`` (ValueError otherwise). DEIM runs on
    the nnz x snapshots matrix of their ``data``, so the basis rows and
    ``magic_indices`` are slots of ``pattern``, the first snapshot.
    """
    mats = [sp.csr_matrix(a, dtype=float) for a in operator_snapshots]
    if not mats:
        raise ValueError("no operator snapshots")
    stacked = np.column_stack([_on_pattern(mats[0], a).data for a in mats])
    basis = deim_build(stacked, tol=tol, n_max=n_max)
    basis.pattern = mats[0]
    return basis


def mdeim_reconstruct(basis, operator):
    """The operator on the basis pattern, from its values at the magic slots."""
    p = basis.pattern
    sampled = _on_pattern(p, operator).data[basis.magic_indices]
    values = basis.basis @ deim_coefficients(basis, sampled)
    return sp.csr_matrix((values, p.indices, p.indptr), shape=p.shape)


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

    ``problem`` is a :class:`~morkit.fom.NonlinearFom`; both bases must lie on
    its operators' pattern (ValueError otherwise). The operators are never
    assembled: their coefficients are evaluated only on the reduced mesh, the
    elements that touch a magic slot, and the magic values are
    ``stiffness_scatter[magic] @ coef`` there. A(mu) is interpolated once per
    solve; each residual sets the operator's data from the modes, and the
    truth solve's loop, :func:`~morkit.fom.newton`, steps with that operator.
    The state keeps full dimension. The Jacobian drops the derivative of the
    solution-dependent coefficients, so the iteration is quasi-Newton. Raises
    :class:`~morkit.fom.NewtonError` if ``max_iter`` steps do not reach
    ``tol``.
    """
    for basis in (a_basis, c_basis):
        _on_pattern(basis.pattern, problem.mass)
    mesh, g = reduced_mesh(problem, np.concatenate([a_basis.magic_indices,
                                                    c_basis.magic_indices]))
    g_a, g_c = g[:a_basis.size], g[a_basis.size:]
    a_values = g_a @ problem.diffusion_coefficients(mu, mesh)
    fixed = problem.mass.data + a_basis.basis @ deim_coefficients(a_basis, a_values)
    op = problem.pattern.on_pattern(np.empty_like(fixed))  # data set by each residual
    f = np.asarray(problem.forcing, dtype=float)

    def residual(u):
        c_values = g_c @ problem.convection_coefficients(u, mesh)
        op.data[:] = fixed + c_basis.basis @ deim_coefficients(c_basis, c_values)
        return op @ u - f

    return newton(residual, lambda u: op, np.zeros(f.shape[0]), tol, max_iter)


def export_eim_basis(basis, directory, points):
    """Write a basis, the ``points`` at its magic indices and a JSON manifest."""
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
    np.savetxt(os.path.join(directory, "magic_points.csv"),
               np.atleast_2d(points)[basis.magic_indices],
               delimiter=",", fmt="%.17g")
