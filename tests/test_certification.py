"""Residual-based error bounds: Riesz oracles, coercivity bound, rigor."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from morkit import certification, fom, rb


def _direct_dual_norm(system, mu, u_full_approx):
    """Per-parameter Riesz oracle: assemble the residual, solve one gram system."""
    residual = system.assemble_rhs(mu) - system.assemble_matrix(mu) @ u_full_approx
    representer = system.gram_solve(residual)
    return float(np.sqrt(max(representer @ residual, 0.0)))


def _quadratic_form_noise_floor(offline, system, mu, u_n):
    """Round-off scale of the small quadratic form, for near-zero residuals."""
    c = certification._residual_coefficients(offline, system, mu, u_n)
    magnitude = float(np.abs(c) @ (np.abs(offline.cross_gram) @ np.abs(c)))
    return float(np.sqrt(np.finfo(float).eps * max(magnitude, 1.0)))


class TestResidualDualNorm:
    def test_matches_assembled_residual_oracle(self, thermal_greedy):
        # one-column basis keeps the residual far above round-off
        system, _, full_basis = thermal_greedy
        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1], gram=system.gram)
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)
        rng = np.random.default_rng(31)
        for mu in 0.05 + 0.9 * rng.random(10):
            u_n, _ = rb.rom_solve(romsys, [mu])
            fast = certification.residual_dual_norm(offline, system, [mu], u_n)
            direct = _direct_dual_norm(system, [mu], rb.lift(basis, u_n))
            assert abs(fast - direct) < 1e-9 * direct

    def test_zero_for_exact_solution(self, thermal_system):
        # a basis containing the exact solution gives a residual at round-off
        system = thermal_system
        mu = [0.37]
        truth = fom.fom_solve(system, mu)
        from morkit import linalg

        zeta = linalg.orthonormalize(truth.coefficients,
                                     np.zeros((system.dof_count, 0)), system.gram)
        basis = rb.ReducedBasis(basis=zeta.reshape(-1, 1), gram=system.gram)
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)
        u_n, _ = rb.rom_solve(romsys, mu)
        dual = certification.residual_dual_norm(offline, system, mu, u_n)
        assert dual < 10.0 * _quadratic_form_noise_floor(offline, system, mu, u_n)

    def test_cross_gram_symmetric_psd(self, thermal_greedy):
        system, _, basis = thermal_greedy
        offline = certification.riesz_offline(system, basis)
        c = offline.cross_gram
        assert np.abs(c - c.T).max() < 1e-12
        assert np.linalg.eigvalsh(c).min() > -1e-10 * max(np.abs(c).max(), 1.0)


class TestCoercivity:
    def test_reference_eigenvalue_matches_dense_oracle(self, thermal_system):
        system = thermal_system
        model = certification.build_coercivity_model(system, np.array([0.5]))
        import scipy.linalg

        a = system.assemble_matrix([0.5]).toarray()
        g = system.gram.toarray()
        lam = scipy.linalg.eigh(a, g, eigvals_only=True)[0]
        assert abs(model.alpha_bar - lam) < 1e-10 * max(abs(lam), 1.0)

    def test_reference_eigenvalue_bitwise_deterministic(self):
        # n = 32 takes the sparse ARPACK path, whose start vector must be fixed
        system = fom.assemble_thermal_block(n=32)
        alphas = [
            certification.build_coercivity_model(system, np.array([0.5]),
                                                 check_terms=False).alpha_bar
            for _ in range(2)
        ]
        assert alphas[0] == alphas[1]

    def test_term_check_resolves_zero_eigenvalue(self):
        # n = 64 takes the sparse path; each term vanishes on half the domain
        system = fom.assemble_thermal_block(n=64)
        certification.build_coercivity_model(system, np.array([0.5]), check_terms=True)
        half = system.matrix_terms[0]
        lam = certification._smallest_eig(half)
        assert abs(lam) <= 1e-8 * np.abs(half.data).max()

    def test_lower_bound_below_truth(self, thermal_system):
        system = thermal_system
        model = certification.build_coercivity_model(system, np.array([0.5]))
        import scipy.linalg

        g = system.gram.toarray()
        for mu in (0.15, 0.5, 0.85):
            lb = certification.coercivity_lb(model, system, [mu])
            truth = scipy.linalg.eigh(system.assemble_matrix([mu]).toarray(), g,
                                      eigvals_only=True)[0]
            assert lb <= truth * (1.0 + 1e-10)
            assert lb > 0.0

    def test_exact_at_reference(self, thermal_system):
        system = thermal_system
        model = certification.build_coercivity_model(system, np.array([0.5]))
        lb = certification.coercivity_lb(model, system, [0.5])
        assert abs(lb - model.alpha_bar) < 1e-13

    def test_quarter_point_ratio(self, thermal_system):
        # at mu = 0.25 the weight ratios are (2, 0.5, 2/3, 1.5): minimum 0.5
        system = thermal_system
        model = certification.build_coercivity_model(system, np.array([0.5]))
        lb = certification.coercivity_lb(model, system, [0.25])
        assert abs(lb - 0.5 * model.alpha_bar) < 1e-13

    def test_nonpositive_theta_rejected(self, thermal_system):
        system = thermal_system
        model = certification.build_coercivity_model(system, np.array([0.5]))
        broken = fom.AffineSystem(
            matrix_terms=system.matrix_terms,
            rhs_terms=system.rhs_terms,
            theta_a=lambda mu: np.array([-1.0, 1.0, 1.0, 1.0]),
            theta_f=system.theta_f,
            gram=system.gram,
            domain=system.domain,
        )
        with pytest.raises(certification.CoercivityError):
            certification.coercivity_lb(model, broken, [0.5])

    def test_indefinite_term_rejected(self, thermal_system):
        system = thermal_system
        indefinite = sp.csr_matrix(-sp.eye(system.dof_count))
        broken = fom.AffineSystem(
            matrix_terms=[indefinite],
            rhs_terms=system.rhs_terms,
            theta_a=lambda mu: np.array([1.0]),
            theta_f=system.theta_f,
            gram=system.gram,
            domain=system.domain,
        )
        with pytest.raises(certification.CoercivityError):
            certification.build_coercivity_model(broken, np.array([0.5]))


def _one_weight_too_many(theta_map):
    return lambda mu: np.append(theta_map(mu), 1.0)


@pytest.mark.parametrize("site", ["assemble_rhs", "assemble_output", "rom_solve",
                                  "residual_dual_norm", "coercivity_lb"])
def test_wrong_theta_weight_count_rejected(thermal_greedy, site):
    system, model, basis = thermal_greedy
    mu = np.array([0.4])
    bad = dataclasses.replace(
        system,
        theta_a=_one_weight_too_many(system.theta_a),
        theta_f=_one_weight_too_many(system.theta_f),
        theta_l=_one_weight_too_many(system.theta_l),
    )
    calls = {
        "assemble_rhs": lambda: bad.assemble_rhs(mu),
        "assemble_output": lambda: bad.assemble_output(mu),
        "rom_solve": lambda: rb.rom_solve(rb.project(bad, basis), mu),
        "residual_dual_norm": lambda: certification.residual_dual_norm(
            certification.riesz_offline(system, basis), bad, mu, np.ones(basis.size)
        ),
        "coercivity_lb": lambda: certification.coercivity_lb(model, bad, mu),
    }
    with pytest.raises(ValueError, match="weights for"):
        calls[site]()


class TestBoundRigor:
    def test_energy_bound_above_energy_error(self, thermal_greedy):
        system, model, full_basis = thermal_greedy
        # truncate to one column so the error is far from round-off
        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1], gram=system.gram)
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)
        rng = np.random.default_rng(32)
        for mu in 0.05 + 0.9 * rng.random(20):
            truth = fom.fom_solve(system, [mu])
            u_n, s_n = rb.rom_solve(romsys, [mu])
            d_en, d_s = certification.error_bounds(offline, model, system,
                                                   romsys, [mu])
            e = truth.coefficients - rb.lift(basis, u_n)
            a_mu = system.assemble_matrix([mu])
            energy_err = float(np.sqrt(max(e @ (a_mu @ e), 0.0)))
            assert d_en / energy_err >= 1.0 - 1e-10
            gap = truth.output - s_n
            assert gap >= -1e-12 * abs(truth.output)
            assert d_s >= gap - 1e-12 * abs(truth.output)

    def test_output_gap_equals_energy_error_squared(self, thermal_greedy):
        # compliance: s_h - s_N = |e|_mu^2 exactly
        system, _, full_basis = thermal_greedy
        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1], gram=system.gram)
        romsys = rb.project(system, basis)
        for mu in (0.2, 0.6):
            truth = fom.fom_solve(system, [mu])
            u_n, s_n = rb.rom_solve(romsys, [mu])
            e = truth.coefficients - rb.lift(basis, u_n)
            energy_sq = float(e @ (system.assemble_matrix([mu]) @ e))
            assert abs((truth.output - s_n) - energy_sq) < 1e-10 * max(energy_sq, 1.0)

    def test_lb_bound_weaker_than_truth_bound(self, thermal_greedy):
        # replacing alpha_LB by the true coercivity only shrinks the bound
        system, model, full_basis = thermal_greedy
        import scipy.linalg

        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1], gram=system.gram)
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)
        g = system.gram.toarray()
        for mu in (0.25, 0.75):
            u_n, _ = rb.rom_solve(romsys, [mu])
            dual = certification.residual_dual_norm(offline, system, [mu], u_n)
            lb = certification.coercivity_lb(model, system, [mu])
            truth_alpha = scipy.linalg.eigh(
                system.assemble_matrix([mu]).toarray(), g, eigvals_only=True
            )[0]
            assert dual / np.sqrt(lb) >= dual / np.sqrt(truth_alpha) - 1e-14


class TestExport:
    def test_bound_sweep_csv(self, tmp_path):
        rows = [(0.1, 1e-3, 1e-4, 10.0, 1e-6)]
        path = tmp_path / "sweep.csv"
        fom.write_csv(path, "mu,delta_en,true_error,effectivity,delta_s", rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "mu,delta_en,true_error,effectivity,delta_s"
        assert len(lines) == 2
