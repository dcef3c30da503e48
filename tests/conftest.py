"""Shared fixtures; expensive full-order builds are session scoped."""

import numpy as np
import pytest

from morkit import certification, fom, interpolation, rb


@pytest.fixture(scope="session")
def thermal_system():
    """Small two-material block with contrasting conductivities."""
    return fom.assemble_thermal_block(n=16, sigma1=1.0, sigma2=0.1)


@pytest.fixture(scope="session")
def thermal_greedy(thermal_system):
    """Greedy run on the small block, shared by the reduction tests."""
    system = thermal_system
    model = certification.build_coercivity_model(system, np.array([0.5]))
    estimator = certification.CertifiedErrorEstimator(model=model)
    training = list(system.domain.uniform_grid(30))
    # the conductivity contrast inflates the residual coefficients, so the
    # round-off floor of the offline dual norm sits above 1e-6 here
    basis = rb.greedy(system, training, tol=1e-5, mu1=np.array([0.5]),
                      n_max=10, estimator=estimator)
    return system, model, basis


@pytest.fixture(scope="session")
def gaussian_eim():
    """Gaussian-source interpolation basis on a coarse grid."""
    system, points, _ = fom.assemble_gaussian_poisson(n=16)
    params = system.domain.sample(100, 42)
    values = np.column_stack([fom.gaussian_forcing(points, mu) for mu in params])
    basis = interpolation.eim_build(values, tol=1e-13, n_max=20)
    return system, points, values, basis


@pytest.fixture(scope="session")
def nonlinear_problem():
    return fom.NonlinearFom(n=8)


@pytest.fixture(scope="session")
def paraboloid():
    """f(y) = 0.5 |y|^2 and its gradient; on the cube [-1, 1]^p, where
    y = mu, the gradient covariance is I / 3."""

    def f(mu):
        y = np.asarray(mu, dtype=float)
        return 0.5 * float(y @ y)

    def grad(mu):
        return np.asarray(mu, dtype=float).copy()

    return f, grad
