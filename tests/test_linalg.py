"""Dense kernel wrappers: factorizations, eigensolves, orthonormalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from morkit import linalg


def _jacobi_eigenvalues(a, sweeps=100, tol=1e-13):
    """Independent symmetric eigen-oracle: classical Jacobi rotations."""
    a = a.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 5))
        u, s, vt = linalg.svd(a)
        rec = u @ np.diag(s) @ vt
        assert np.allclose(rec, a, atol=1e-12)

    def test_singular_values_descending_nonnegative(self):
        rng = np.random.default_rng(4)
        _, s, _ = linalg.svd(rng.standard_normal((6, 9)))
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 1e-14)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(5)
        u, _, vt = linalg.svd(rng.standard_normal((7, 4)))
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)
        assert np.allclose(vt @ vt.T, np.eye(4), atol=1e-12)

    def test_singular_values_match_jacobi_oracle(self):
        # sigma^2 are the eigenvalues of A^T A; compare with Jacobi rotations
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 4))
        _, sigma, _ = linalg.svd(a)
        lam = _jacobi_eigenvalues(a.T @ a)
        assert np.allclose(sigma ** 2, np.clip(lam, 0.0, None), atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            linalg.svd(np.zeros((0, 3)))


class TestSymEig:
    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        lam, vec = linalg.sym_eig(a)
        assert np.allclose(lam, _jacobi_eigenvalues(a), atol=1e-9)
        assert np.allclose(a @ vec, vec * lam, atol=1e-10)

    def test_descending_order(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 5))
        lam, _ = linalg.sym_eig(a + a.T)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            linalg.sym_eig(a)

    @given(arrays(np.float64, (4, 4),
                  elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_trace_equals_eigenvalue_sum(self, a):
        sym = a + a.T
        lam, _ = linalg.sym_eig(sym)
        assert np.isclose(lam.sum(), np.trace(sym), atol=1e-9 * (1 + abs(np.trace(sym))))


class TestSolve:
    def test_known_system(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = linalg.solve(a, np.array([3.0, 4.0]))
        assert np.allclose(a @ x, [3.0, 4.0], atol=1e-14)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(a, np.array([1.0, 1.0]))

    @given(st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_residual_small_on_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = linalg.solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


class TestOrthonormalize:
    def test_unit_norm_and_orthogonality(self):
        rng = np.random.default_rng(9)
        basis = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        v = rng.standard_normal(10)
        col = linalg.orthonormalize(v, basis)
        assert np.isclose(np.linalg.norm(col), 1.0, atol=1e-12)
        assert np.abs(basis.T @ col).max() < 1e-12

    def test_weighted_inner_product(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((8, 8))
        gram = m @ m.T + 8 * np.eye(8)
        first = linalg.orthonormalize(rng.standard_normal(8), np.zeros((8, 0)), gram)
        second = linalg.orthonormalize(rng.standard_normal(8),
                                       first.reshape(-1, 1), gram)
        assert np.isclose(first @ (gram @ first), 1.0, atol=1e-12)
        assert abs(first @ (gram @ second)) < 1e-11

    def test_deflation_returns_none(self):
        basis = np.eye(4)[:, :2]
        dependent = basis @ np.array([2.0, -1.0])
        assert linalg.orthonormalize(dependent, basis) is None

    def test_zero_vector_returns_none(self):
        assert linalg.orthonormalize(np.zeros(3), np.zeros((3, 0))) is None

    def test_one_dimensional_basis_is_one_column(self):
        col = linalg.orthonormalize(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(col, [0.0, 1.0], atol=1e-15)
        col = linalg.orthonormalize(np.array([3.0, 4.0]), np.array([]))
        assert np.allclose(col, [0.6, 0.8], atol=1e-15)


@pytest.mark.parametrize("call, message", [
    (lambda: linalg.check_vector(np.zeros((2, 2)), "v"),
     "v must be 1-dimensional, got shape (2, 2)"),
    (lambda: linalg.check_vector([1.0, np.inf], "v"), "v contains non-finite entries"),
    (lambda: linalg.sym_eig(np.ones((2, 3))), "sym_eig requires a square matrix"),
    (lambda: linalg.solve(np.ones((2, 3)), np.ones(2)), "solve requires a square matrix"),
    (lambda: linalg.solve(np.eye(2), np.ones(3)),
     "rhs length does not match matrix dimension"),
], ids=["vector-2d", "vector-nonfinite", "sym-eig-square", "solve-square",
        "solve-rhs-length"])
def test_input_check_raises(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_svd_failure_raises_typed_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(linalg.SvdConvergenceError) as exc:
        linalg.svd(np.eye(2))
    assert str(exc.value) == "SVD did not converge: no convergence"
