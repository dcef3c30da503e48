"""Residual-based error bounds: Riesz oracles, coercivity bound, rigor."""

import ast
import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

import morkit
from morkit import certification, fom, linalg, rb


def _direct_dual_norm(system, mu, u_full_approx):
    """Per-parameter Riesz oracle: assemble the residual, solve one gram system."""
    residual = system.assemble_rhs(mu) - system.assemble_matrix(mu) @ u_full_approx
    representer = system.gram_solve(residual, system.gram_factor())
    return float(np.sqrt(max(representer @ residual, 0.0)))


def _quadratic_form_noise_floor(offline, system, mu, u_n):
    """Round-off scale of the small quadratic form, for near-zero residuals."""
    theta_f = fom.affine_weights(system.theta_f, mu, system.q_f)
    theta_a = fom.affine_weights(system.theta_a, mu, system.q_a)
    c = np.concatenate([theta_f, -np.outer(u_n, theta_a).ravel()])
    magnitude = float(np.abs(c) @ (np.abs(offline.cross_gram) @ np.abs(c)))
    return float(np.sqrt(np.finfo(float).eps * max(magnitude, 1.0)))


class TestResidualDualNorm:
    def test_matches_assembled_residual_oracle(self, thermal_greedy):
        # one-column basis keeps the residual far above round-off
        system, _, full_basis = thermal_greedy
        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1])
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
        zeta = linalg.orthonormalize(truth.coefficients,
                                     np.zeros((system.dof_count, 0)), system.gram)
        basis = rb.ReducedBasis(basis=zeta.reshape(-1, 1))
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


@pytest.mark.parametrize("site", ["assemble_rhs", "rom_solve", "residual_dual_norm",
                                  "coercivity_lb"])
def test_wrong_theta_weight_count_rejected(thermal_greedy, site):
    system, model, basis = thermal_greedy
    mu = np.array([0.4])
    bad = dataclasses.replace(
        system,
        theta_a=_one_weight_too_many(system.theta_a),
        theta_f=_one_weight_too_many(system.theta_f),
    )
    calls = {
        "assemble_rhs": lambda: bad.assemble_rhs(mu),
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
        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1])
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
        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1])
        romsys = rb.project(system, basis)
        for mu in (0.2, 0.6):
            truth = fom.fom_solve(system, [mu])
            u_n, s_n = rb.rom_solve(romsys, [mu])
            e = truth.coefficients - rb.lift(basis, u_n)
            energy_sq = float(e @ (system.assemble_matrix([mu]) @ e))
            assert abs((truth.output - s_n) - energy_sq) < 1e-10 * max(energy_sq, 1.0)

    def test_output_bound_holds_after_load_replaced(self, thermal_system):
        # a system derived with a new load takes it as its output too; the
        # output bound Delta_s is rigorous only for compliant outputs
        system = _flux_variant(thermal_system)
        model = certification.build_coercivity_model(system, np.array([0.5]),
                                                      check_terms=False)
        basis = _greedy(system, certification.CertifiedErrorEstimator(model=model),
                        tol=0.0, n_max=3)
        assert basis.size == 3
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)
        for mu in system.domain.uniform_grid(20):
            truth = fom.fom_solve(system, mu)
            assert truth.output == float(system.assemble_rhs(mu) @ truth.coefficients)
            u_n, s_n = rb.rom_solve(romsys, mu)
            f_n = fom.affine_sum(system.theta_f, romsys.reduced_rhs_terms, mu)
            assert s_n == float(f_n @ u_n)
            _, d_s = certification.error_bounds(offline, model, system, romsys, mu)
            assert d_s >= abs(truth.output - s_n)

    def test_lb_bound_weaker_than_truth_bound(self, thermal_greedy):
        # replacing alpha_LB by the true coercivity only shrinks the bound
        system, model, full_basis = thermal_greedy
        import scipy.linalg

        basis = rb.ReducedBasis(basis=full_basis.basis[:, :1])
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


def _flux_variant(system):
    """The same operator with a y-varying edge load: a distinct system object."""
    y = system.nodes[:, 1]
    load = system.rhs_terms[0] * (1.0 + 0.3 * np.cos(np.pi * y))
    return dataclasses.replace(system, rhs_terms=[load])


class _ReferenceChecked:
    """Runs the stacked sweep and checks it against the per-point functions.

    The reference builds its own Riesz data from scratch at every iteration.
    """

    def __init__(self, model):
        self.model = model
        self.estimator = certification.CertifiedErrorEstimator(model=model)
        self.iterations = 0

    def delta_function(self, system, basis):
        delta = self.estimator.delta_function(system, basis)
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)

        def checked(mus):
            bounds = delta(mus)
            reference = [
                certification.residual_dual_norm(offline, system, mu,
                                                 rb.rom_solve(romsys, mu)[0])
                / np.sqrt(certification.coercivity_lb(self.model, system, mu))
                for mu in mus
            ]
            assert bounds.shape == (len(mus),)
            assert np.array_equal(bounds, reference)
            self.iterations += 1
            return bounds

        return checked


def _greedy(system, estimator, mu1=0.5, tol=1e-5, n_max=10, train=30):
    return rb.greedy(system, list(system.domain.uniform_grid(train)), tol=tol,
                     mu1=np.array([mu1]), n_max=n_max, estimator=estimator)


class TestStackedSweep:
    @pytest.mark.parametrize("case", ["conftest", "grid32"])
    def test_bounds_equal_per_point_reference(self, thermal_system, case):
        system = thermal_system if case == "conftest" else fom.assemble_thermal_block(n=32)
        model = certification.build_coercivity_model(system, np.array([0.5]),
                                                      check_terms=False)
        checked = _ReferenceChecked(model)
        basis = _greedy(system, checked)
        assert checked.iterations == len(basis.history) >= 2

    def test_reused_estimator_matches_fresh_ones(self, thermal_system):
        # another system, or a basis that does not extend the last one, must
        # drop the cached Riesz data; the one-column runs leave a cache whose
        # length alone does not tell it apart from the next basis
        doubled = dataclasses.replace(thermal_system,
                                      rhs_terms=[2.0 * thermal_system.rhs_terms[0]])
        flux = _flux_variant(thermal_system)
        model = certification.build_coercivity_model(thermal_system, np.array([0.5]),
                                                      check_terms=False)
        reused = certification.CertifiedErrorEstimator(model=model)
        runs = [(thermal_system, 0.5, 1), (thermal_system, 0.3, 1), (doubled, 0.3, 10),
                (flux, 0.5, 10), (thermal_system, 0.5, 10)]
        for system, mu1, n_max in runs:
            again = _greedy(system, reused, mu1=mu1, n_max=n_max)
            fresh = _greedy(system, certification.CertifiedErrorEstimator(model=model),
                            mu1=mu1, n_max=n_max)
            assert again.history == fresh.history
            assert np.array_equal(again.basis, fresh.basis)
            assert np.array_equal(again.selected_parameters, fresh.selected_parameters)

    def test_singular_reduced_matrix_raises(self, thermal_system):
        # all operator weights vanish at one training point
        def theta_a(mu):
            return fom.theta_thermal(mu) * (float(mu[0]) != 0.5)

        system = dataclasses.replace(thermal_system, theta_a=theta_a)
        model = certification.build_coercivity_model(thermal_system, np.array([0.5]),
                                                      check_terms=False)
        estimator = certification.CertifiedErrorEstimator(model=model)
        with pytest.raises(linalg.SingularMatrixError):
            rb.greedy(system, [np.array([0.3]), np.array([0.5])], tol=1e-12,
                      mu1=np.array([0.7]), n_max=5, estimator=estimator)

    @pytest.mark.parametrize("tol", [1e-5, 0.0], ids=["converged", "saturated"])
    def test_estimator_keeps_final_offline(self, thermal_system, tol):
        # the greedy's last bound call is on its final basis, so the residual
        # data the estimator keeps is the one riesz_offline would rebuild
        model = certification.build_coercivity_model(thermal_system, np.array([0.5]),
                                                      check_terms=False)
        estimator = certification.CertifiedErrorEstimator(model=model)
        basis = _greedy(thermal_system, estimator, tol=tol)
        assert basis.saturated == (tol == 0.0)
        assert estimator.offline.basis_size == basis.size
        reference = certification.riesz_offline(thermal_system, basis)
        for name, value in vars(reference).items():
            assert np.array_equal(vars(estimator.offline)[name], value), name

    def test_offline_build_keeps_no_full_order_data(self, thermal_system):
        system = dataclasses.replace(thermal_system)
        before = dict(vars(system))
        model = certification.build_coercivity_model(system, np.array([0.5]),
                                                      check_terms=False)
        basis = _greedy(system, certification.CertifiedErrorEstimator(model=model))
        offline = certification.riesz_offline(system, basis)
        # the system gained no attribute, a cached factorization least of all
        assert vars(system).keys() == before.keys()
        assert all(vars(system)[k] is v for k, v in before.items())
        for name, value in vars(offline).items():
            assert not callable(value), name
            assert system.dof_count not in np.shape(value), name


# Three certified builds, one BLAS thread: greedy histories and selected
# parameters as float.hex, the basis, cross gram and error bounds of
# twenty sweep points as SHA-256 prefixes of their bytes
_GOLDEN_SCRIPT = textwrap.dedent("""
    import hashlib
    import numpy as np
    from morkit import certification, fom, rb

    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]

    def certified(system, train, tol, n_max, check_terms):
        model = certification.build_coercivity_model(system, np.array([0.5]),
                                                      check_terms=check_terms)
        basis = rb.greedy(system, list(system.domain.uniform_grid(train)), tol=tol,
                          mu1=np.array([0.5]), n_max=n_max,
                          estimator=certification.CertifiedErrorEstimator(model=model))
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)
        bounds = [certification.error_bounds(offline, model, system, romsys, mu)
                  for mu in system.domain.uniform_grid(20)]
        return {"history": [(n, float(d).hex()) for n, d in basis.history],
                "selected": [float(m[0]).hex() for m in basis.selected_parameters],
                "basis": digest(basis.basis), "cross_gram": digest(offline.cross_gram),
                "bounds": digest(bounds)}

    def flux(n, amplitudes):
        base = fom.assemble_thermal_block(n=n)
        modes = np.cos(np.pi * np.outer(base.nodes[:, 1], np.arange(1, len(amplitudes) + 1)))
        load = base.rhs_terms[0] * (1.0 + modes @ np.asarray(amplitudes))
        return fom.AffineSystem(matrix_terms=base.matrix_terms, rhs_terms=[load],
                                theta_a=base.theta_a, theta_f=base.theta_f, gram=base.gram,
                                domain=base.domain, theta_name=base.theta_name,
                                nodes=base.nodes)

    print({
        "conftest": certified(fom.assemble_thermal_block(n=16, sigma1=1.0, sigma2=0.1),
                              30, 1e-5, 10, True),
        "grid32": certified(fom.assemble_thermal_block(n=32), 50, 1e-6, 15, False),
        "flux32": certified(flux(32, [0.3, -0.2, 0.1, -0.4]), 100, 1e-6, 15, False),
    })
""")

# recorded before the incremental Riesz data and the stacked sweep went in
_GOLDEN_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
_GOLDEN = {
    "conftest": {
        "history": [(1, "0x1.2c55e369c589dp+4"), (2, "0x1.ae39b5e278230p-19")],
        "selected": ["0x1.0000000000000p-1", "0x1.43b7543b7543cp-4"],
        "basis": "a8ad91a3be20159c", "cross_gram": "e2278ed50eddd23c",
        "bounds": "26622c633d5354c1",
    },
    "grid32": {
        "history": [(1, "0x1.58bacd1a1da25p+1"), (2, "0x1.2e8dcaa3a83f4p-21")],
        "selected": ["0x1.0000000000000p-1", "0x1.1515151515152p-4"],
        "basis": "204e26d565874228", "cross_gram": "af12f7b255247917",
        "bounds": "c86ed0febe588017",
    },
    "flux32": {
        "history": [
            (1, "0x1.81feadc304cefp+1"), (2, "0x1.6a6441d0aba63p+0"),
            (3, "0x1.bd4245b6531ecp-5"), (4, "0x1.8f1ccb014d546p-8"),
            (5, "0x1.fda50f980c639p-10"), (6, "0x1.8ddfd76cb0c4ap-12"),
            (7, "0x1.38db8389fac0bp-14"), (8, "0x1.9cbc85e507678p-17"),
            (9, "0x1.3e0043ce26d26p-19"), (10, "0x1.7596103df1ecfp-21"),
        ],
        "selected": [
            "0x1.0000000000000p-1", "0x1.e1d66e82c9c22p-1", "0x1.e29917d363dd9p-5",
            "0x1.f0cac5b3f5dc8p-4", "0x1.e5a3bd15cc4b0p-3", "0x1.afa6c7bb0eb37p-1",
            "0x1.3a4c0a237c32bp-4", "0x1.6217519da7cb4p-1", "0x1.60511be1958b6p-2",
            "0x1.d42686d7f3d56p-1",
        ],
        "basis": "0ef76234d8bf633f", "cross_gram": "52af5a1a452cb9b8",
        "bounds": "38099f26b8f6136b",
    },
}


class TestGoldenCertifiedBuild:
    @pytest.mark.skipif(
        {"numpy": np.__version__, "scipy": scipy.__version__} != _GOLDEN_VERSIONS,
        reason="golden bits were recorded with numpy 2.4.6 and scipy 1.17.1",
    )
    def test_certified_numbers_match_recorded_bits(self):
        # a threaded BLAS splits its sums by core count, so the build runs
        # in a child process with one thread; the recording used the
        # SkylakeX kernels of the bundled OpenBLAS
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(morkit.__file__)))
        out = subprocess.run([sys.executable, "-c", _GOLDEN_SCRIPT], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert ast.literal_eval(out) == _GOLDEN


class TestExport:
    def test_bound_sweep_csv(self, tmp_path):
        rows = [(0.1, 1e-3, 1e-4, 10.0, 1e-6)]
        path = tmp_path / "sweep.csv"
        fom.write_csv(path, "mu,delta_en,true_error,effectivity,delta_s", rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "mu,delta_en,true_error,effectivity,delta_s"
        assert len(lines) == 2


def _with_terms(system, matrix_terms, theta_a):
    return dataclasses.replace(system, matrix_terms=matrix_terms, theta_a=theta_a)


@pytest.mark.parametrize("call, error, message", [
    (lambda s, b: certification.residual_dual_norm(
        certification.riesz_offline(s, b), s, [0.4], np.ones(b.size + 1)),
     ValueError, "reduced coefficient length does not match offline data"),
    (lambda s, b: certification.build_coercivity_model(
        _with_terms(s, s.matrix_terms, lambda mu: np.array([1.0, 0.0, 1.0, 1.0])),
        [0.5]),
     certification.CoercivityError, "reference theta weights must all be positive"),
    (lambda s, b: certification.build_coercivity_model(
        _with_terms(s, [sp.csr_matrix(-sp.eye(s.dof_count))],
                    lambda mu: np.array([1.0])),
        [0.5], check_terms=False),
     certification.CoercivityError, "reference matrix is not coercive"),
], ids=["dual-norm-length", "theta-bar", "not-coercive"])
def test_input_check_raises(thermal_greedy, call, error, message):
    system, _, basis = thermal_greedy
    with pytest.raises(error) as exc:
        call(system, basis)
    assert str(exc.value) == message
