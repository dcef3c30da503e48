"""Dense linear-algebra kernels shared by the rest of the package.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy): SVD,
symmetric eigendecomposition, linear solve and weighted Gram-Schmidt
orthonormalization. All functions operate on plain ndarrays and are pure.
"""

import numpy as np
import scipy.linalg


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a linear solve meets a numerically singular matrix."""


class SvdConvergenceError(np.linalg.LinAlgError):
    """Raised when the SVD iteration fails to converge."""


def check_matrix(a, name):
    """Validate and return a 2-d float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_vector(b, name):
    """Validate and return a 1-d float array with finite entries."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} contains non-finite entries")
    return b


def svd(a):
    """Thin singular value decomposition of a dense matrix.

    Returns numpy's ``(u, s, vt)``, a = u diag(s) vt: orthonormal columns in
    ``u`` and rows in ``vt``, non-negative singular values in descending order.
    """
    a = check_matrix(a, "svd input")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc


def sym_eig(c):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Rejects asymmetric input (relative asymmetry above 1e-12).
    """
    c = check_matrix(c, "sym_eig input")
    if c.shape[0] != c.shape[1]:
        raise ValueError("sym_eig requires a square matrix")
    scale = max(np.abs(c).max(), 1.0)
    if np.abs(c - c.T).max() > 1e-12 * scale:
        raise ValueError("sym_eig requires a symmetric matrix")
    w, v = np.linalg.eigh(c)
    # eigh returns ascending order; flip preserves input-order stability for ties
    return w[::-1].copy(), v[:, ::-1].copy()


def solve(a, b):
    """Solve the dense linear system a x = b with explicit singularity check.

    A pivot of the LU factorization below 1e-14 times the largest one raises
    :class:`SingularMatrixError`.
    """
    a = check_matrix(a, "solve matrix")
    b = check_vector(b, "solve rhs")
    if a.shape[0] != a.shape[1]:
        raise ValueError("solve requires a square matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError("rhs length does not match matrix dimension")
    # the LAPACK calls of scipy.linalg.lu_factor / lu_solve, without their
    # input checks and warning machinery; info > 0 marks an exact zero pivot
    lu, piv, info = scipy.linalg.lapack.dgetrf(a)
    diag = np.abs(lu.diagonal()).tolist()  # Python min/max: cheaper at size N
    if info or min(diag) <= 1e-14 * max(max(diag), np.finfo(float).tiny):
        raise SingularMatrixError("matrix is numerically singular")
    return scipy.linalg.lapack.dgetrs(lu, piv, b)[0]


def orthonormalize(v, basis, gram=None):
    """Orthonormalize ``v`` against the columns of ``basis`` in the gram product.

    Uses modified Gram-Schmidt with one re-orthogonalization pass. Returns the
    new unit-norm column, or ``None`` when the post-projection norm drops below
    1e-10 times the pre-projection norm (v already in the span).

    ``gram`` may be None (Euclidean), a dense array or any object supporting
    the ``@`` product with a vector (e.g. a sparse matrix).
    """
    v = check_vector(v, "orthonormalize input")
    basis = np.asarray(basis, dtype=float)
    if basis.ndim == 1:
        basis = basis.reshape(-1, 1) if basis.size else basis.reshape(v.shape[0], 0)

    def gdot(x, y):
        if gram is None:
            return float(x @ y)
        return float(x @ (gram @ y))

    pre_norm = np.sqrt(max(gdot(v, v), 0.0))
    if pre_norm == 0.0:
        return None
    w = v.copy()
    for _ in range(2):
        for j in range(basis.shape[1]):
            col = basis[:, j]
            w = w - gdot(col, w) * col
    norm = np.sqrt(max(gdot(w, w), 0.0))
    if norm < 1e-10 * pre_norm:
        return None
    return w / norm
