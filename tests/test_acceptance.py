"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Each test exercises one acceptance property at its stated tolerance
on the stated problem size.
"""

import copy
import math
import time

import numpy as np
import pytest

from morkit import active_subspaces as asub
from morkit import certification, fom, interpolation, linalg, morphing, rb


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def thermal32():
    return fom.assemble_thermal_block(n=32)


@pytest.fixture(scope="module")
def gaussian_demo():
    system, points, _ = fom.assemble_gaussian_poisson(n=24)
    params = system.domain.sample(100, 42)
    values = np.column_stack([fom.gaussian_forcing(points, mu) for mu in params])
    return system, values


class TestAcceptance:
    def test_01_thermal_block_affine_fidelity(self, thermal32):
        start = time.perf_counter()
        system = thermal32
        worst = 0.0
        for mu in (0.2, 0.3, 0.7):
            affine = system.assemble_matrix([mu])
            direct = fom.thermal_block_direct(32, mu)
            worst = max(worst, float(np.abs((affine - direct).toarray()).max()))
        theta_ref = np.abs(fom.theta_thermal(0.5) - 1.0).max()
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and theta_ref == 0.0 and elapsed < 5.0
        assert _report(
            "thermal-block affine fidelity",
            ok,
            f"max |affine - direct| = {worst:.2e} (tol 1e-10), "
            f"theta(0.5) offset = {theta_ref:.1e}, {elapsed:.2f}s (limit 5s)",
        )

    def test_02_certified_bound_rigor(self, thermal32):
        system = thermal32
        model = certification.build_coercivity_model(system, np.array([0.5]))
        # deliberately under-resolved basis so errors are far above round-off
        snapshot = fom.fom_solve(system, [0.5]).coefficients
        zeta = linalg.orthonormalize(snapshot, np.zeros((system.dof_count, 0)),
                                     system.gram)
        basis = rb.ReducedBasis(basis=zeta.reshape(-1, 1))
        offline = certification.riesz_offline(system, basis)
        romsys = rb.project(system, basis)

        min_eff = math.inf
        worst_gap = 0.0
        worst_margin = math.inf
        for mu in system.domain.uniform_grid(20):
            truth = fom.fom_solve(system, mu)
            u_n, s_n = rb.rom_solve(romsys, mu)
            d_en, d_s = certification.error_bounds(offline, model, system,
                                                   romsys, mu)
            e = truth.coefficients - rb.lift(basis, u_n)
            energy = float(np.sqrt(max(e @ (system.assemble_matrix(mu) @ e), 0.0)))
            min_eff = min(min_eff, d_en / energy)
            gap = truth.output - s_n
            worst_gap = min(worst_gap, gap / max(abs(truth.output), 1e-300))
            worst_margin = min(worst_margin, d_s - gap)
        ok = (min_eff >= 1.0 - 1e-10 and worst_gap >= -1e-12
              and worst_margin >= -1e-12)
        assert _report(
            "certified bound rigor (20-point sweep)",
            ok,
            f"min effectivity = {min_eff:.4f} (>= 1), "
            f"min (s_h - s_N)/|s_h| = {worst_gap:.1e} (>= -1e-12), "
            f"min Delta_s - gap = {worst_margin:.1e}",
        )

    def test_03_greedy_convergence(self, thermal32):
        start = time.perf_counter()
        system = thermal32
        model = certification.build_coercivity_model(system, np.array([0.5]))
        estimator = certification.CertifiedErrorEstimator(model=model)
        training = list(system.domain.uniform_grid(50))
        basis = rb.greedy(system, training, tol=1e-6, mu1=np.array([0.5]),
                          n_max=15, estimator=estimator)
        deltas = [d for _, d in basis.history]
        monotone = all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
        romsys = rb.project(system, basis)
        reproduction = 0.0
        for mu in basis.selected_parameters:
            truth = fom.fom_solve(system, mu)
            u_n, _ = rb.rom_solve(romsys, mu)
            err = system.gram_norm(truth.coefficients - rb.lift(basis, u_n))
            reproduction = max(reproduction, err)
        elapsed = time.perf_counter() - start
        ok = (monotone and deltas[-1] <= 1e-6 and basis.size <= 15
              and reproduction <= 1e-9 and elapsed < 30.0)
        assert _report(
            "greedy convergence",
            ok,
            f"N = {basis.size} (<= 15), final max bound = {deltas[-1]:.2e} "
            f"(tol 1e-6), monotone = {monotone}, snapshot reproduction = "
            f"{reproduction:.1e} (<= 1e-9), {elapsed:.1f}s (limit 30s)",
        )

    def test_04_pod_frobenius_identity(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for trial in range(3):
            s = rng.standard_normal((200, 30))
            for rank in (5, 12, 25):
                basis = rb.pod(s, rank=rank)
                err = np.linalg.norm(s - basis.basis @ (basis.basis.T @ s))
                tail = math.sqrt(float(np.sum(basis.singular_values[rank:] ** 2)))
                worst = max(worst, abs(err - tail) / tail)
        ok = worst <= 1e-9
        assert _report(
            "POD Frobenius identity",
            ok,
            f"max relative deviation from sqrt(sum of neglected sigma^2) = "
            f"{worst:.2e} (tol 1e-9). Note: the truncation error equals the "
            "root of the sum of squared neglected singular values; a plain "
            "sum of singular values overstates it.",
        )

    def test_05_eim_contract(self, gaussian_demo):
        _, values = gaussian_demo
        basis = interpolation.eim_build(values, tol=1e-14, n_max=25)
        t = basis.interp_matrix
        unit_lower = (np.allclose(np.diag(t), 1.0, atol=1e-12)
                      and np.abs(np.triu(t, 1)).max() < 1e-12)

        magic_err = 0.0
        for j in range(values.shape[1]):
            col = values[:, j]
            rec = interpolation.eim_interpolate(basis, col[basis.magic_indices])
            magic_err = max(magic_err, float(
                np.abs(rec[basis.magic_indices] - col[basis.magic_indices]).max()
            ))

        hist = basis.error_history
        non_increasing = all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

        lebesgue_ok = True
        for q in range(1, 21):
            sub = interpolation.eim_build(values, tol=1e-15, n_max=q)
            if interpolation.lebesgue_constant(sub) > 2.0 ** q - 1.0 + 1e-9:
                lebesgue_ok = False

        # Decay is judged against the best rate these samples allow. Any
        # Q-dimensional space leaves some sample with a sup error of at least
        # the Eckart-Young floor sqrt(sum_{k>Q} sigma_k^2 / (n m)); the POD
        # space of the same samples has sup error e_pod(Q), and interpolation
        # may exceed best approximation by the factor 1 + Lambda_Q.
        m, n = values.shape
        u, sigma, _ = np.linalg.svd(values, full_matrices=False)
        checkpoints = (5, 10, 15, 20, 25)
        ratios, floors = [], []
        for q in checkpoints:
            u_q = u[:, :q]
            e_pod = float(np.abs(values - u_q @ (u_q.T @ values)).max())
            sub = interpolation.eim_build(values, tol=1e-15, n_max=q)
            lebesgue = interpolation.lebesgue_constant(sub)
            ratios.append(hist[q - 1] / ((1.0 + lebesgue) * e_pod))
            floors.append(math.sqrt((sigma[q:] ** 2).sum() / (n * m)))
        decay_ok = (max(ratios) <= 1.0
                    and all(hist[q - 1] >= f
                            for q, f in zip(checkpoints, floors)))
        ok = unit_lower and magic_err <= 1e-12 and non_increasing and lebesgue_ok
        assert _report(
            "EIM contract (unit-lower T, magic-point exactness, monotone "
            "history, Lebesgue bound)",
            ok,
            f"magic-point error = {magic_err:.1e} (<= 1e-12), history "
            f"non-increasing = {non_increasing}, Lebesgue bound q<=20 = "
            f"{lebesgue_ok}",
        )
        assert _report(
            "EIM decay at the best rate the samples allow (Eckart-Young "
            "floor <= eps(Q) <= (1 + Lambda_Q) e_POD(Q), Q = 5..25)",
            decay_ok,
            "eps(Q) / ((1 + Lambda_Q) e_POD(Q)) = "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + f" (<= 1); eps(25) = {hist[24]:.2e} >= floor "
            f"{floors[-1]:.2e}, so eps(1)/eps(25) = {hist[0] / hist[24]:.2e} "
            f"cannot exceed eps(1)/floor = {hist[0] / floors[-1]:.1e}",
        )

    def test_06_deim_mdeim(self):
        start = time.perf_counter()
        rng = np.random.default_rng(606)

        # span reconstruction
        s = rng.standard_normal((50, 8))
        basis = interpolation.deim_build(s, tol=1e-14)
        v = s @ rng.standard_normal(8)
        rec = interpolation.deim_eval(basis, v[basis.magic_indices])
        span_err = float(np.abs(rec - v).max() / np.abs(v).max())

        # 5x3 reference oracle
        toy = np.random.default_rng(44).standard_normal((5, 3))
        toy_basis = interpolation.deim_build(toy, tol=1e-14)
        u, sigma, _ = np.linalg.svd(toy, full_matrices=False)
        modes = u[:, :int(np.sum(sigma > 1e-12 * sigma[0]))]
        oracle = [int(np.argmax(np.abs(modes[:, 0])))]
        for k in range(1, modes.shape[1]):
            c = np.linalg.solve(modes[oracle, :k], modes[oracle, k])
            r = modes[:, k] - modes[:, :k] @ c
            oracle.append(int(np.argmax(np.abs(r))))
        indices_match = toy_basis.magic_indices == oracle

        # nonlinear-diffusion operator interpolation demo
        problem = fom.NonlinearFom(n=12)
        params = problem.domain.sample(30, 42)
        a_snaps, c_snaps = [], []
        for mu in params:
            u_h = fom.nonlinear_solve(problem, mu)
            a, c = problem.operator_snapshot(u_h, mu)
            a_snaps.append(a)
            c_snaps.append(c)
        test_mu = problem.domain.sample(5, 49)
        truth = {tuple(mu): fom.nonlinear_solve(problem, mu) for mu in test_mu}
        demo_errors = []
        for n_terms in (2, 4, 6, 8, 10):
            ab = interpolation.mdeim_build(a_snaps, tol=0.0, n_max=n_terms)
            cb = interpolation.mdeim_build(c_snaps, tol=0.0, n_max=n_terms)
            errs = []
            for mu in test_mu:
                u_a = interpolation.mdeim_nonlinear_solve(problem, ab, cb, mu)
                u_h = truth[tuple(mu)]
                errs.append(np.linalg.norm(u_a - u_h) / np.linalg.norm(u_h))
            demo_errors.append(float(np.mean(errs)))
        decays = all(b < a for a, b in zip(demo_errors, demo_errors[1:]))
        elapsed = time.perf_counter() - start
        ok = (span_err <= 1e-12 and indices_match and decays and elapsed < 60.0)
        assert _report(
            "DEIM / matrix-DEIM",
            ok,
            f"span reconstruction = {span_err:.1e} (<= 1e-12), 5x3 index "
            f"oracle match = {indices_match}, demo errors "
            f"{['%.1e' % e for e in demo_errors]} monotone = {decays}, "
            f"{elapsed:.1f}s (limit 60s)",
        )

    def test_07_morphing(self):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        cloud = rng.random((1000, 2))

        lattice = morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                      degrees=(3, 3),
                                      displacements=np.zeros((4, 4, 2)))
        ffd_err = float(np.abs(morphing.ffd_deform(lattice, cloud) - cloud).max())

        ctrl = rng.random((20, 2))
        rbf_id = morphing.rbf_build(ctrl, ctrl)
        rbf_err = float(np.abs(morphing.rbf_deform(rbf_id, cloud) - cloud).max())

        target = ctrl + 0.05 * rng.standard_normal((20, 2))
        rbf = morphing.rbf_build(ctrl, target, kernel="thin-plate")
        interp_err = float(np.abs(morphing.rbf_deform(rbf, ctrl) - target).max())
        constraint = max(float(np.abs(rbf.weights.sum(axis=0)).max()),
                         float(np.abs(ctrl.T @ rbf.weights).max()))

        idw_id = morphing.IdwMorph(ctrl, ctrl)
        idw_err = float(np.abs(morphing.idw_deform(idw_id, cloud) - cloud).max())
        weights = morphing.idw_weights(idw_id, cloud)
        partition = float(np.abs(weights.sum(axis=1) - 1.0).max())
        elapsed = time.perf_counter() - start
        ok = (ffd_err <= 1e-12 and rbf_err <= 1e-12 and idw_err <= 1e-12
              and interp_err <= 1e-9 and constraint <= 1e-9
              and partition <= 1e-12 and elapsed < 1.0)
        assert _report(
            "geometry morphing",
            ok,
            f"identity errors ffd/rbf/idw = {ffd_err:.1e}/{rbf_err:.1e}/"
            f"{idw_err:.1e} (<= 1e-12), rbf interpolation+constraints = "
            f"{max(interp_err, constraint):.1e} (<= 1e-9), idw partition of "
            f"unity = {partition:.1e} (<= 1e-12), {elapsed:.2f}s (limit 1s)",
        )

    def test_08_active_subspaces(self, paraboloid):
        start = time.perf_counter()
        domain = fom.ParamDomain([-1.0] * 3, [1.0] * 3)

        f, grad = paraboloid
        para = asub.sample_gradients(f, domain, 2000, 42, grad=grad)
        para_sub = asub.estimate_subspace(para)
        para_dev = float(np.abs(para_sub.eigenvalues - 1.0 / 3.0).max() * 3.0)
        ratios = para_sub.eigenvalues[:-1] / para_sub.eigenvalues[1:]
        para_gap = float(ratios.max())

        quad = asub.sample_gradients(asub.quadratic_form, domain, 2000, 42,
                                     grad=asub.quadratic_form_grad)
        quad_sub = asub.estimate_subspace(quad)
        expected = asub.QUADRATIC_SCALES ** 2 / 3.0
        quad_dev = float(np.abs(quad_sub.eigenvalues / expected - 1.0).max())
        lead = quad_sub.eigenvectors[:, 0]
        angle = math.degrees(math.acos(min(1.0, abs(lead[0]))))

        heuristic = asub.n_train_heuristic(k=3, p=10, alpha=5)
        elapsed = time.perf_counter() - start
        ok = (para_dev <= 0.15 and para_gap < 2.0 and quad_dev <= 0.15
              and angle < 5.0 and heuristic == 35 and elapsed < 5.0)
        assert _report(
            "active subspaces",
            ok,
            f"paraboloid eigenvalue deviation = {para_dev:.1%} (<= 15%), max "
            f"gap ratio = {para_gap:.2f} (< 2), quadratic eigenvalue "
            f"deviation = {quad_dev:.1%} (<= 15%), leading-vector angle = "
            f"{angle:.2f} deg (< 5), heuristic = {heuristic} (= 35), "
            f"{elapsed:.2f}s (limit 5s)",
        )

    def test_09_offline_online_separation(self, thermal32):
        class _Tripwire:
            """Raises on any use; proves the online path never touches it."""

            def _boom(self, *a, **k):
                raise AssertionError("online path touched full-order data")

            __getattr__ = __getitem__ = __array__ = __matmul__ = _boom
            __rmatmul__ = __len__ = __iter__ = _boom

        def online_pipeline(system):
            model = certification.build_coercivity_model(system, np.array([0.5]),
                                                         check_terms=False)
            estimator = certification.CertifiedErrorEstimator(model=model)
            training = list(system.domain.uniform_grid(30))
            basis = rb.greedy(system, training, tol=1e-12, mu1=np.array([0.5]),
                              n_max=3, estimator=estimator)
            romsys = rb.project(system, basis)
            offline = certification.riesz_offline(system, basis)
            # sever every full-order object before the online stage: it sees
            # a copy of the system whose terms, gram and nodes raise on use
            romsys.basis = _Tripwire()
            severed = copy.copy(system)
            for name in ("matrix_terms", "rhs_terms", "gram", "nodes"):
                setattr(severed, name, _Tripwire())
            return romsys, offline, model, severed

        def online_pass(system, severed, romsys, offline, repeats=400):
            mus = system.domain.sample(repeats, 9)
            t0 = time.perf_counter()
            for mu in mus:
                u_n, _ = rb.rom_solve(romsys, mu)
                certification.residual_dual_norm(offline, severed, mu, u_n)
            return time.perf_counter() - t0

        small = thermal32
        large = fom.assemble_thermal_block(n=64)
        rom_s, off_s, model_s, sev_s = online_pipeline(small)
        rom_l, off_l, model_l, sev_l = online_pipeline(large)
        structural_ok = True
        try:
            # one certified query per size, untimed, on the severed systems
            for system, romsys, offline, model, severed in (
                    (small, rom_s, off_s, model_s, sev_s),
                    (large, rom_l, off_l, model_l, sev_l)):
                mu = system.domain.sample(1, 9)[0]
                certification.error_bounds(offline, model, severed, romsys, mu)
            # best of 5 per size, with the repeats of the two sizes interleaved
            # and the leading size alternated, so a slow spell of the machine
            # does not land on one size only
            runs = [(small, sev_s, rom_s, off_s), (large, sev_l, rom_l, off_l)]
            best = [math.inf, math.inf]
            for rep in range(5):
                for k in ((0, 1) if rep % 2 == 0 else (1, 0)):
                    best[k] = min(best[k], online_pass(*runs[k]))
            t_small, t_large = best
        except AssertionError:
            structural_ok = False
            t_small = t_large = math.nan
        rel_diff = abs(t_large - t_small) / max(t_small, 1e-300)
        ok = structural_ok and rel_diff < 0.20
        assert _report(
            "offline-online separation",
            ok,
            f"full-order data untouched online = {structural_ok}, online time "
            f"n=32 vs n=64: {t_small * 1e3:.1f} ms vs {t_large * 1e3:.1f} ms "
            f"per 400 evaluations, relative difference = {rel_diff:.1%} "
            f"(< 20%)",
        )
