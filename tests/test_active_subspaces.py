"""Gradient-covariance subspace estimation and parameter projection."""

import math

import numpy as np
import pytest

from morkit import active_subspaces as asub
from morkit.fom import ParamDomain, write_csv


def _cube_domain(p):
    return ParamDomain([-1.0] * p, [1.0] * p)


class TestSampling:
    def test_finite_difference_matches_analytic_gradient(self, paraboloid):
        f, grad = paraboloid
        domain = _cube_domain(3)
        with_grad = asub.sample_gradients(f, domain, 50, 1, grad=grad)
        with_fd = asub.sample_gradients(f, domain, 50, 1)
        assert np.abs(with_grad.gradients - with_fd.gradients).max() < 1e-8

    def test_chain_rule_scaling(self):
        # f(mu) = mu on [0, 10]: d f / d normalized coordinate = 5
        domain = ParamDomain([0.0], [10.0])
        samples = asub.sample_gradients(lambda m: float(m[0]), domain, 10, 2,
                                        grad=lambda m: np.array([1.0]))
        assert np.allclose(samples.gradients, 5.0, atol=1e-12)

    def test_nonfinite_sample_rejected(self):
        domain = _cube_domain(2)
        with pytest.raises(asub.GradientSampleError):
            asub.sample_gradients(lambda m: float("nan"), domain, 5, 3,
                                  grad=lambda m: np.zeros(2))

    def test_first_nonfinite_sample_named(self):
        # samples 3 and 6 are bad; all are evaluated, sample 3 is reported
        domain = _cube_domain(2)
        calls = []

        def f(mu):
            calls.append(mu)
            return float("inf") if len(calls) in (4, 7) else 0.0

        with pytest.raises(asub.GradientSampleError, match="at sample 3, mu="):
            asub.sample_gradients(f, domain, 8, 3, grad=lambda m: np.zeros(2))
        with pytest.raises(asub.GradientSampleError, match="at sample 0, mu="):
            asub.sample_gradients(lambda m: 0.0, domain, 4, 3,
                                  grad=lambda m: np.array([0.0, np.nan]))

    def test_matches_per_sample_loop(self):
        # reference: check, then chain-rule each gradient inside the loop
        domain = ParamDomain([2.0, -3.0, 0.5], [4.0, 1.0, 0.75])
        mus = domain.sample(500, 9)
        half_width = 0.5 * (domain.upper - domain.lower)
        grads = np.array([np.asarray(asub.quadratic_form_grad(mu)) * half_width
                          for mu in mus])
        values = np.array([float(asub.quadratic_form(mu)) for mu in mus])
        samples = asub.sample_gradients(asub.quadratic_form, domain, 500, 9,
                                        grad=asub.quadratic_form_grad)
        assert np.array_equal(samples.gradients, grads)
        assert np.array_equal(samples.values, values)
        assert np.array_equal(samples.parameters, mus)

    def test_normalization_maps_box_to_unit_cube(self):
        domain = ParamDomain([2.0, -3.0], [4.0, 1.0])
        assert np.array_equal(asub.normalize_parameters(domain, domain.lower),
                              [-1.0, -1.0])
        assert np.array_equal(asub.normalize_parameters(domain, domain.upper),
                              [1.0, 1.0])
        y = asub.normalize_parameters(domain, np.array([3.5, 0.0]))
        assert np.allclose(y, [0.5, 0.5], atol=1e-14)


class TestEstimate:
    def test_single_sample_rank_one(self):
        domain = _cube_domain(3)
        g = np.array([[1.0, 2.0, -2.0]])
        samples = asub.SampledGradients(parameters=np.zeros((1, 3)),
                                        values=np.zeros(1), gradients=g,
                                        domain=domain)
        subspace = asub.estimate_subspace(samples)
        assert subspace.active_dim == 1
        assert math.isinf(subspace.gap_ratio)
        # covariance = g g^T, leading eigenvector parallel to g
        direction = subspace.active_basis[:, 0]
        cosine = abs(direction @ g[0]) / np.linalg.norm(g[0])
        assert abs(cosine - 1.0) < 1e-12

    def test_covariance_trace_equals_mean_gradient_norm(self):
        domain = _cube_domain(4)
        rng = np.random.default_rng(81)
        g = rng.standard_normal((30, 4))
        samples = asub.SampledGradients(parameters=rng.random((30, 4)),
                                        values=np.zeros(30), gradients=g,
                                        domain=domain)
        subspace = asub.estimate_subspace(samples)
        assert abs(np.trace(subspace.covariance)
                   - np.mean(np.sum(g ** 2, axis=1))) < 1e-12

    def test_explicit_split_respected(self):
        domain = _cube_domain(3)
        rng = np.random.default_rng(82)
        samples = asub.SampledGradients(parameters=rng.random((20, 3)),
                                        values=np.zeros(20),
                                        gradients=rng.standard_normal((20, 3)),
                                        domain=domain)
        subspace = asub.estimate_subspace(samples, split=2)
        assert subspace.active_dim == 2
        assert subspace.active_basis.shape == (3, 2)
        assert subspace.inactive_basis.shape == (3, 1)

    def test_projector_algebra(self):
        # W1 W1^T + W2 W2^T = I for any split of an orthogonal eigenbasis
        domain = _cube_domain(4)
        rng = np.random.default_rng(83)
        samples = asub.SampledGradients(parameters=rng.random((25, 4)),
                                        values=np.zeros(25),
                                        gradients=rng.standard_normal((25, 4)),
                                        domain=domain)
        s = asub.estimate_subspace(samples, split=2)
        total = s.active_basis @ s.active_basis.T + s.inactive_basis @ s.inactive_basis.T
        assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_quadratic_model_recovers_scaled_identity_thirds(self):
        domain = _cube_domain(3)
        samples = asub.sample_gradients(asub.quadratic_form, domain, 4000, 11,
                                        grad=asub.quadratic_form_grad)
        subspace = asub.estimate_subspace(samples)
        expected = asub.QUADRATIC_SCALES ** 2 / 3.0
        assert np.abs(subspace.eigenvalues - expected).max() < 0.15 * expected[0]
        # leading eigenvector aligned with the dominant coordinate axis
        lead = subspace.eigenvectors[:, 0]
        angle = math.degrees(math.acos(min(1.0, abs(lead[0]))))
        assert angle < 5.0


class TestProjection:
    def test_active_plus_inactive_reconstructs(self):
        domain = ParamDomain([0.0, 0.0], [2.0, 4.0])
        rng = np.random.default_rng(84)
        samples = asub.SampledGradients(parameters=rng.random((10, 2)),
                                        values=np.zeros(10),
                                        gradients=rng.standard_normal((10, 2)),
                                        domain=domain)
        s = asub.estimate_subspace(samples, split=1)
        mu = np.array([1.2, 3.1])
        mu_m, eta = asub.project_active(s, mu)
        y = s.active_basis @ mu_m + s.inactive_basis @ eta
        assert np.allclose(y, asub.normalize_parameters(domain, mu), atol=1e-12)


class TestHeuristic:
    def test_documented_value(self):
        assert asub.n_train_heuristic(k=3, p=10, alpha=5) == 35

    def test_formula(self):
        assert asub.n_train_heuristic(k=2, p=5, alpha=2.0) == math.ceil(4 * math.log(5))

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            asub.n_train_heuristic(k=1, p=3, alpha=1.0)
        with pytest.raises(ValueError):
            asub.n_train_heuristic(k=1, p=3, alpha=11.0)

    def test_dimension_preconditions(self):
        with pytest.raises(ValueError):
            asub.n_train_heuristic(k=0, p=3, alpha=5.0)
        with pytest.raises(ValueError):
            asub.n_train_heuristic(k=1, p=1, alpha=5.0)


class TestDistance:
    def test_identical_subspaces(self):
        domain = _cube_domain(3)
        rng = np.random.default_rng(85)
        samples = asub.SampledGradients(parameters=rng.random((20, 3)),
                                        values=np.zeros(20),
                                        gradients=rng.standard_normal((20, 3)),
                                        domain=domain)
        s = asub.estimate_subspace(samples, split=1)
        assert asub.subspace_distance(s, s) < 1e-14

    def test_known_rotation_angle(self):
        # distance between two lines at angle theta equals sin(theta)
        domain = _cube_domain(2)
        theta = math.radians(30.0)

        def line_subspace(direction):
            g = np.outer(np.ones(5), direction)
            samples = asub.SampledGradients(parameters=np.zeros((5, 2)),
                                            values=np.zeros(5), gradients=g,
                                            domain=domain)
            return asub.estimate_subspace(samples, split=1)

        a = line_subspace(np.array([1.0, 0.0]))
        b = line_subspace(np.array([math.cos(theta), math.sin(theta)]))
        assert abs(asub.subspace_distance(a, b) - math.sin(theta)) < 1e-12

    def test_monte_carlo_seed_stability(self):
        # two independent 2000-sample estimates agree closely
        domain = _cube_domain(3)
        subs = []
        for seed in (1, 2):
            samples = asub.sample_gradients(asub.quadratic_form, domain, 2000,
                                            seed, grad=asub.quadratic_form_grad)
            subs.append(asub.estimate_subspace(samples, split=1))
        assert asub.subspace_distance(subs[0], subs[1]) < 0.05


class TestSummary:
    def test_rows_pair_active_coordinates_with_values(self, paraboloid):
        f, grad = paraboloid
        domain = _cube_domain(2)
        samples = asub.sample_gradients(f, domain, 15, 21, grad=grad)
        s = asub.estimate_subspace(samples, split=1)
        rows = asub.summary_data(s, samples)
        assert rows.shape == (15, 2)
        assert np.allclose(rows[:, -1], samples.values, atol=1e-14)

    def test_ridge_function_collapses_to_curve(self):
        # f depends on mu_1 only: the summary scatter is a function of mu_M
        domain = _cube_domain(2)
        samples = asub.sample_gradients(
            lambda m: float(m[0] ** 2), domain, 200, 22,
            grad=lambda m: np.array([2.0 * m[0], 0.0]),
        )
        s = asub.estimate_subspace(samples, split=1)
        rows = asub.summary_data(s, samples)
        order = np.argsort(rows[:, 0])
        sorted_rows = rows[order]
        # nearby active coordinates give nearby outputs (graph of a function)
        gaps = np.abs(np.diff(sorted_rows[:, 1]))
        dx = np.abs(np.diff(sorted_rows[:, 0]))
        assert np.all(gaps <= 2.5 * dx + 1e-12)

    @pytest.mark.parametrize("p,split", [(3, 1), (3, 2), (5, 5), (12, 4)])
    def test_matches_per_row_projection(self, p, split):
        rng = np.random.default_rng(24 + p)
        domain = ParamDomain(-1.0 - rng.random(p), 1.0 + rng.random(p))
        scales = 10.0 ** rng.uniform(-1.0, 1.0, p)
        samples = asub.sample_gradients(lambda m: float(m @ (scales * m)), domain,
                                        700, 25, grad=lambda m: 2.0 * scales * m)
        s = asub.estimate_subspace(samples, split=split)
        rows = np.array([np.concatenate([asub.project_active(s, mu)[0], [val]])
                         for mu, val in zip(samples.parameters, samples.values)])
        assert np.array_equal(asub.summary_data(s, samples), rows)

    def test_csv_exports(self, tmp_path, paraboloid):
        f, grad = paraboloid
        domain = _cube_domain(2)
        samples = asub.sample_gradients(f, domain, 10, 23, grad=grad)
        s = asub.estimate_subspace(samples, split=1)
        asub.export_summary_csv(tmp_path / "summary.csv", s, samples)
        write_csv(tmp_path / "eig.csv", "index,lambda",
                  [(i + 1, lam) for i, lam in enumerate(s.eigenvalues)])
        summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "mu_M_1,f"
        assert len(summary) == 11
        eig = (tmp_path / "eig.csv").read_text().strip().split("\n")
        assert eig[0] == "index,lambda"
        assert len(eig) == 3


def _samples(n, p, values=None):
    return asub.SampledGradients(
        parameters=np.zeros((n, p)), values=np.zeros(n) if values is None else values,
        gradients=np.eye(n, p), domain=_cube_domain(p))


def _subspace(p):
    return asub.estimate_subspace(_samples(p, p), split=1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: _samples(3, 2, values=np.zeros(2)),
     ValueError, "sample arrays must share one sample count"),
    (lambda: _samples(2, 2, values=np.array([0.0, np.nan])),
     asub.GradientSampleError, "non-finite function value or gradient sample"),
    (lambda: asub.sample_gradients(lambda mu: 0.0, _cube_domain(2), 0, 1,
                                   grad=lambda mu: np.zeros(2)),
     ValueError, "need at least one sample"),
    (lambda: asub.estimate_subspace(_samples(3, 3), split=0),
     ValueError, "split must lie between 1 and the parameter count"),
    (lambda: asub.estimate_subspace(_samples(3, 3), split=4),
     ValueError, "split must lie between 1 and the parameter count"),
    (lambda: asub.subspace_distance(_subspace(2), _subspace(3)),
     ValueError, "subspaces live in different ambient dimensions"),
], ids=["sample-counts", "non-finite", "no-samples", "split-0", "split-above",
        "distance-dimensions"])
def test_input_check_raises(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_one_parameter_is_one_active_direction():
    samples = asub.sample_gradients(lambda mu: float(mu[0]) ** 2, _cube_domain(1),
                                    20, 4, grad=lambda mu: 2.0 * mu)
    subspace = asub.estimate_subspace(samples)
    assert subspace.active_dim == 1
    assert subspace.inactive_basis.shape == (1, 0)
    assert subspace.gap_ratio == math.inf
    assert np.array_equal(np.abs(subspace.active_basis), [[1.0]])
