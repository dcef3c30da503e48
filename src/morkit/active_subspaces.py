"""Active subspace discovery from gradient samples.

The gradient covariance is estimated by Monte Carlo on normalized [-1, 1]^p
coordinates; its dominant eigenvectors span the directions along which the
function varies most, and the parameter vector splits into active and
inactive components.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .fom import ParamDomain, write_csv


class GradientSampleError(ValueError):
    """Raised when a sampled value or gradient is unusable."""


@dataclass
class SampledGradients:
    """Monte Carlo batch: parameters, function values and gradients.

    Gradients are stored with respect to the normalized coordinates in
    [-1, 1]^p; ``parameters`` keeps the physical sample points.
    """

    parameters: np.ndarray  # n x p, physical coordinates
    values: np.ndarray  # n
    gradients: np.ndarray  # n x p, normalized-coordinate gradients
    domain: ParamDomain

    def __post_init__(self):
        self.parameters = np.atleast_2d(np.asarray(self.parameters, dtype=float))
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        self.gradients = np.atleast_2d(np.asarray(self.gradients, dtype=float))
        n, p = self.parameters.shape
        if self.values.shape != (n,) or self.gradients.shape != (n, p):
            raise ValueError("sample arrays must share one sample count")
        if not (np.all(np.isfinite(self.values))
                and np.all(np.isfinite(self.gradients))):
            raise GradientSampleError("non-finite function value or gradient sample")


def normalize_parameters(domain, mu):
    """Affine map from the physical box to [-1, 1]^p."""
    mu = np.asarray(mu, dtype=float)
    lo, hi = domain.lower, domain.upper
    return 2.0 * (mu - lo) / (hi - lo) - 1.0


def _fd_gradient(f, mu, domain):
    """Central finite differences in physical coordinates."""
    p = mu.shape[0]
    h = 1e-5 * (domain.upper - domain.lower)
    grad = np.empty(p)
    for j in range(p):
        e = np.zeros(p)
        e[j] = h[j]
        grad[j] = (f(mu + e) - f(mu - e)) / (2.0 * h[j])
    return grad


def sample_gradients(f, domain, n, seed, grad=None):
    """Draw uniform samples and evaluate values plus gradients.

    ``grad`` returns the physical-coordinate gradient; if omitted, central
    finite differences with step 1e-5 of the edge length are used. Gradients
    are chain-ruled to the normalized coordinates before storage. A
    non-finite value or gradient raises :class:`GradientSampleError` naming
    the first such sample, once all samples are evaluated.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    mus = domain.sample(n, seed)
    values = np.empty(n)
    grads = np.empty((n, domain.lower.shape[0]))
    for k in range(n):
        mu = mus[k]
        values[k] = float(f(mu))
        grads[k] = grad(mu) if grad is not None else _fd_gradient(f, mu, domain)
    finite = np.isfinite(values) & np.isfinite(grads).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise GradientSampleError(
            f"non-finite value or gradient at sample {k}, mu={mus[k]}"
        )
    grads *= 0.5 * (domain.upper - domain.lower)  # d mu / d y = half width
    return SampledGradients(parameters=mus, values=values, gradients=grads,
                            domain=domain)


@dataclass
class ActiveSubspace:
    """Eigendecomposition of the gradient covariance with an M-split."""

    covariance: np.ndarray
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns aligned with eigenvalues
    active_dim: int
    active_basis: np.ndarray  # W1, p x M
    inactive_basis: np.ndarray  # W2, p x (p - M)
    gap_ratio: float
    domain: ParamDomain


def estimate_subspace(samples, split=None):
    """Eigendecompose the Monte Carlo gradient covariance and split it.

    Without an explicit ``split`` the active dimension is placed at the
    largest ratio of consecutive eigenvalues (values floored at 1e-14 of the
    leading one to keep the ratios finite).
    """
    g = samples.gradients
    n, p = g.shape
    cov = (g.T @ g) / n
    cov = 0.5 * (cov + cov.T)
    lam, w = linalg.sym_eig(cov)
    lam = np.clip(lam, 0.0, None)

    floor = 1e-14 * max(lam[0], np.finfo(float).tiny)
    safe = np.maximum(lam, floor)
    if split is None:
        if p < 2:
            m = 1
        else:
            ratios = safe[:-1] / safe[1:]
            m = int(np.argmax(ratios)) + 1
    else:
        if not 1 <= split <= p:
            raise ValueError("split must lie between 1 and the parameter count")
        m = int(split)
    if m < p and lam[m] <= floor:
        gap = math.inf
    elif m < p:
        gap = float(safe[m - 1] / safe[m])
    else:
        gap = math.inf
    return ActiveSubspace(
        covariance=cov,
        eigenvalues=lam,
        eigenvectors=w,
        active_dim=m,
        active_basis=w[:, :m],
        inactive_basis=w[:, m:],
        gap_ratio=gap,
        domain=samples.domain,
    )


def project_active(subspace, mu):
    """Split a parameter point into active and inactive coordinates.

    The projection acts on the normalized coordinates; returns (mu_M, eta).
    """
    y = normalize_parameters(subspace.domain, np.atleast_1d(np.asarray(mu, dtype=float)))
    return subspace.active_basis.T @ y, subspace.inactive_basis.T @ y


def n_train_heuristic(k, p, alpha):
    """Sample count heuristic ceil(alpha * k * ln p) for a k-dim subspace."""
    if int(k) < 1:
        raise ValueError("subspace dimension k must be at least 1")
    if int(p) < 2:
        raise ValueError("parameter count p must be at least 2")
    if not 2.0 <= alpha <= 10.0:
        raise ValueError("oversampling factor alpha must lie in [2, 10]")
    return max(1, math.ceil(alpha * int(k) * math.log(int(p))))


def summary_data(subspace, samples):
    """Sufficient summary rows: active coordinates paired with f values.

    The active coordinates are :func:`project_active`'s, computed for all
    samples at once as a stack of the same (M, p) @ (p,) products; a single
    (n, p) @ (p, M) product would round differently.
    """
    y = normalize_parameters(subspace.domain, samples.parameters)
    active = np.matmul(subspace.active_basis.T, y[:, :, None])[:, :, 0]
    return np.column_stack([active, samples.values])


def subspace_distance(a, b):
    """Spectral-norm distance between the active-subspace projectors."""
    pa = a.active_basis @ a.active_basis.T
    pb = b.active_basis @ b.active_basis.T
    if pa.shape != pb.shape:
        raise ValueError("subspaces live in different ambient dimensions")
    return float(np.linalg.norm(pa - pb, 2))


def export_summary_csv(path, subspace, samples):
    """Write summary rows as CSV with an active-coordinate header."""
    header = ",".join(f"mu_M_{i + 1}" for i in range(subspace.active_dim)) + ",f"
    write_csv(path, header, summary_data(subspace, samples))


# ---------------------------------------------------------------------------
# analytic benchmark functions


QUADRATIC_SCALES = np.array([10.0, 1.0, 0.1])


def quadratic_form(mu):
    """f(y) = 0.5 y^T A y with A = diag(10, 1, 0.1); covariance A^2 / 3."""
    y = np.asarray(mu, dtype=float)
    return 0.5 * float(y @ (QUADRATIC_SCALES * y))


def quadratic_form_grad(mu):
    y = np.asarray(mu, dtype=float)
    return QUADRATIC_SCALES * y
