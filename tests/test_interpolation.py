"""Interpolation builders: greedy contracts, reference oracles, exactness."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from morkit import fom, interpolation


def _deim_reference_indices(snapshots):
    """Line-by-line re-execution of the greedy index selection on POD modes."""
    u, sigma, _ = np.linalg.svd(snapshots, full_matrices=False)
    keep = int(np.sum(sigma > 1e-12 * sigma[0]))
    modes = u[:, :keep]
    indices = [int(np.argmax(np.abs(modes[:, 0])))]
    for k in range(1, keep):
        h = modes[:, :k]
        c = np.linalg.solve(h[indices, :], modes[indices, k])
        r = modes[:, k] - h @ c
        indices.append(int(np.argmax(np.abs(r))))
    return indices


def _dense_quasi_newton(problem, a_basis, c_basis, mu, tol=1e-9, max_iter=100):
    """The operator-interpolated iteration on assembled, densified operators.

    Returns the solution and the number of steps it took.
    """
    def reconstruct(basis, operator):
        rows, cols = np.array(basis.magic_entries()).T
        coeff = np.linalg.solve(basis.basis[basis.magic_indices],
                                operator.toarray()[rows, cols])
        full = np.zeros(basis.matrix_shape[0] * basis.matrix_shape[1])
        full[basis.pattern] = basis.basis @ coeff
        return full.reshape(basis.matrix_shape, order="F")

    mass = problem.mass.toarray()
    u = np.zeros(problem.dof_count)
    for it in range(max_iter + 1):
        op = (mass + reconstruct(a_basis, problem.diffusion_matrix(mu))
              + reconstruct(c_basis, problem.convection_matrix(u)))
        r = op @ u - problem.forcing
        if np.linalg.norm(r) <= tol:
            return u, it
        u = u - np.linalg.solve(op, r)
    raise AssertionError("reference iteration stalled")


def _operator_bases(problem, q, mus):
    """Q-term MDEIM bases of A(mu) and C(u) from Newton solves at ``mus``."""
    a_snaps, c_snaps = [], []
    for mu in mus:
        a, c = problem.operator_snapshot(fom.nonlinear_solve(problem, mu), mu)
        a_snaps.append(a)
        c_snaps.append(c)
    return (interpolation.mdeim_build(a_snaps, tol=0.0, n_max=q),
            interpolation.mdeim_build(c_snaps, tol=0.0, n_max=q))


def _eim_two_pass_reference(f, tol, n_max):
    """The EIM greedy on a copy of f, with a second abs pass for the error."""
    m = f.shape[0]
    basis = np.zeros((m, 0))
    indices, cols, history = [], [], []
    residual = f.copy()
    while basis.shape[1] < n_max:
        col_err = np.abs(residual).max(axis=0)
        j_k = int(np.argmax(col_err))
        r_col = residual[:, j_k]
        i_k = int(np.argmax(np.abs(r_col)))
        denom = r_col[i_k]
        if abs(denom) < 1e-14:
            break
        basis = np.column_stack([basis, r_col / denom])
        indices.append(i_k)
        cols.append(j_k)
        coeff = scipy.linalg.solve_triangular(basis[indices, :], f[indices, :],
                                              lower=True, unit_diagonal=True)
        residual = f - basis @ coeff
        eps = float(np.abs(residual).max())
        history.append(eps)
        if eps <= tol:
            break
    return basis, indices, cols, history


def _brute_force_lebesgue(basis):
    """Pointwise Lagrange-function oracle for the stability constant."""
    q = basis.size
    lagrange = np.zeros((basis.basis.shape[0], q))
    for k in range(q):
        e = np.zeros(q)
        e[k] = 1.0
        lagrange[:, k] = basis.basis @ interpolation.eim_coefficients(basis, e)
    return float(np.abs(lagrange).sum(axis=1).max())


class TestEimBuild:
    def test_single_column(self):
        v = np.array([1.0, -3.0, 2.0])
        samples = interpolation.FunctionSamples(values=v.reshape(-1, 1))
        basis = interpolation.eim_build(samples, n_max=5)
        assert basis.size == 1
        assert basis.magic_indices == [1]
        assert np.allclose(basis.basis[:, 0], v / -3.0, atol=1e-15)

    def test_exact_low_rank_detected(self):
        rng = np.random.default_rng(41)
        span = rng.standard_normal((30, 3))
        coeffs = rng.standard_normal((3, 12))
        samples = interpolation.FunctionSamples(values=span @ coeffs)
        basis = interpolation.eim_build(samples, tol=1e-12, n_max=10)
        assert basis.size == 3
        assert basis.error_history[-1] <= 1e-12

    def test_unit_lower_triangular_every_iteration(self, gaussian_eim):
        _, _, samples, _ = gaussian_eim
        for q in range(1, 9):
            basis = interpolation.eim_build(samples, tol=1e-15, n_max=q)
            t = basis.interp_matrix
            assert np.allclose(np.diag(t), 1.0, atol=1e-12)
            assert np.abs(np.triu(t, 1)).max() < 1e-12

    def test_basis_entries_bounded_by_one(self, gaussian_eim):
        # each mode is normalized by its own max-abs entry
        _, _, _, basis = gaussian_eim
        assert np.abs(basis.basis).max() <= 1.0 + 1e-12
        for q, i in enumerate(basis.magic_indices):
            assert basis.basis[i, q] == 1.0

    def test_magic_indices_distinct(self, gaussian_eim):
        _, _, _, basis = gaussian_eim
        assert len(set(basis.magic_indices)) == len(basis.magic_indices)

    def test_error_history_non_increasing(self, gaussian_eim):
        _, _, _, basis = gaussian_eim
        hist = basis.error_history
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-12

    def test_training_columns_interpolated_exactly_at_magic_points(self, gaussian_eim):
        _, _, samples, basis = gaussian_eim
        for j in range(samples.values.shape[1]):
            col = samples.values[:, j]
            rec = interpolation.eim_interpolate(basis, col[basis.magic_indices])
            assert np.abs(rec[basis.magic_indices] - col[basis.magic_indices]).max() < 1e-12

    def test_selected_column_error_drops_after_append(self, gaussian_eim):
        _, _, samples, _ = gaussian_eim
        basis = interpolation.eim_build(samples, tol=1e-15, n_max=5)
        for k in range(1, 6):
            sub = interpolation.EimBasis(
                basis=basis.basis[:, :k],
                magic_indices=basis.magic_indices[:k],
                error_history=basis.error_history[:k],
                selected_parameter_indices=basis.selected_parameter_indices[:k],
            )
            assert np.array_equal(sub.interp_matrix, basis.interp_matrix[:k, :k])
            j = basis.selected_parameter_indices[k - 1]
            col = samples.values[:, j]
            rec = interpolation.eim_interpolate(sub, col[sub.magic_indices])
            assert np.abs(rec - col).max() < 1e-12

    @pytest.mark.parametrize("case", ["n_max", "tol", "saturation", "gaussian"])
    def test_matches_two_pass_reference(self, case, gaussian_eim):
        rng = np.random.default_rng(43)
        if case == "n_max":
            f, tol, n_max = rng.standard_normal((50, 20)), 1e-12, 6
        elif case == "tol":
            x = np.linspace(0.0, 1.0, 60)[:, None]
            f, tol, n_max = np.exp(-x * np.linspace(0.5, 3.0, 25)), 1e-6, 25
        elif case == "saturation":
            # rank 3: after three steps the residual is round-off, above tol
            f = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 12))
            tol, n_max = 1e-300, 10
        else:
            f, tol, n_max = gaussian_eim[2].values, 1e-13, 20
        basis = interpolation.eim_build(interpolation.FunctionSamples(values=f),
                                        tol=tol, n_max=n_max)
        ref_basis, ref_indices, ref_cols, ref_history = _eim_two_pass_reference(
            f, tol, n_max)
        assert np.array_equal(basis.basis, ref_basis)
        assert basis.magic_indices == ref_indices
        assert basis.selected_parameter_indices == ref_cols
        assert basis.error_history == ref_history
        assert np.array_equal(basis.interp_matrix, ref_basis[ref_indices, :])
        # each case ends by the stop it is there for
        if basis.error_history[-1] <= tol:
            stop = "tol"
        else:
            stop = "n_max" if basis.size == n_max else "saturation"
        assert stop == {"gaussian": "n_max"}.get(case, case)

    def test_zero_samples_rejected(self):
        samples = interpolation.FunctionSamples(values=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            interpolation.eim_build(samples)


class TestEimCoefficients:
    def test_round_trip_through_t(self, gaussian_eim):
        _, _, _, basis = gaussian_eim
        rng = np.random.default_rng(42)
        c = rng.standard_normal(basis.size)
        values = basis.interp_matrix @ c
        assert np.abs(interpolation.eim_coefficients(basis, values) - c).max() < 1e-13

    def test_t_column_gives_unit_vector(self, gaussian_eim):
        _, _, _, basis = gaussian_eim
        k = 2
        c = interpolation.eim_coefficients(basis, basis.interp_matrix[:, k])
        e = np.zeros(basis.size)
        e[k] = 1.0
        assert np.abs(c - e).max() < 1e-13

    def test_held_out_parameter_within_reported_error(self, gaussian_eim):
        system, forcing, _, basis = gaussian_eim
        points = system.meta["all_nodes"]
        mu = np.array([0.123, -0.456])
        exact = forcing(points, mu)
        rec = interpolation.eim_interpolate(basis, exact[basis.magic_indices])
        # held-out error is comparable to the training ceiling, not below it
        assert np.abs(rec - exact).max() < 50.0 * basis.error_history[-1]


class TestLebesgue:
    def test_single_mode_constant_is_one(self):
        v = np.array([0.5, -2.0, 1.0])
        samples = interpolation.FunctionSamples(values=v.reshape(-1, 1))
        basis = interpolation.eim_build(samples, n_max=1)
        assert abs(interpolation.lebesgue_constant(basis) - 1.0) < 1e-14

    def test_matches_brute_force_oracle_on_toy(self):
        rng = np.random.default_rng(43)
        samples = interpolation.FunctionSamples(values=rng.standard_normal((10, 6)))
        basis = interpolation.eim_build(samples, tol=1e-15, n_max=5)
        fast = interpolation.lebesgue_constant(basis)
        assert abs(fast - _brute_force_lebesgue(basis)) < 1e-11

    def test_bound_holds_on_gaussian_demo(self, gaussian_eim):
        _, _, samples, _ = gaussian_eim
        for q in (1, 4, 8, 12):
            basis = interpolation.eim_build(samples, tol=1e-15, n_max=q)
            constant = interpolation.lebesgue_constant(basis)
            assert constant <= 2.0 ** q - 1.0 + 1e-9


class TestDeim:
    def test_single_vector(self):
        v = np.array([1.0, -4.0, 2.0])
        basis = interpolation.deim_build(v.reshape(-1, 1), tol=1e-14)
        assert basis.size == 1
        assert basis.magic_indices == [1]
        assert np.allclose(np.abs(basis.basis[:, 0]), np.abs(v) / np.linalg.norm(v))

    def test_indices_match_reference_oracle(self):
        rng = np.random.default_rng(44)
        s = rng.standard_normal((5, 3))
        basis = interpolation.deim_build(s, tol=1e-14)
        assert basis.magic_indices == _deim_reference_indices(s)

    def test_indices_match_oracle_on_larger_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            s = rng.standard_normal((40, 8))
            basis = interpolation.deim_build(s, tol=1e-14)
            assert basis.magic_indices == _deim_reference_indices(s)

    def test_span_reconstruction_exact(self):
        rng = np.random.default_rng(45)
        s = rng.standard_normal((25, 6))
        basis = interpolation.deim_build(s, tol=1e-14)
        v = s @ rng.standard_normal(6)
        rec = interpolation.deim_eval(basis, v[basis.magic_indices])
        assert np.abs(rec - v).max() < 1e-12 * max(1.0, np.abs(v).max())

    def test_zero_samples_give_zero(self):
        rng = np.random.default_rng(46)
        basis = interpolation.deim_build(rng.standard_normal((10, 4)), tol=1e-14)
        assert np.abs(interpolation.deim_eval(basis, np.zeros(basis.size))).max() == 0.0

    def test_indices_distinct(self):
        rng = np.random.default_rng(47)
        basis = interpolation.deim_build(rng.standard_normal((30, 10)), tol=1e-14)
        assert len(set(basis.magic_indices)) == basis.size

    def test_modes_orthonormal(self):
        rng = np.random.default_rng(48)
        basis = interpolation.deim_build(rng.standard_normal((20, 5)), tol=1e-14)
        g = basis.basis.T @ basis.basis
        assert np.allclose(g, np.eye(basis.size), atol=1e-12)

    def test_held_out_error_near_pod_tail(self):
        # smooth parametric family: DEIM error tracks the POD tail at rank Q
        x = np.linspace(0.0, 1.0, 60)
        train = np.column_stack([np.exp(-((x - c) ** 2) / 0.1)
                                 for c in np.linspace(0.2, 0.8, 20)])
        basis = interpolation.deim_build(train, tol=0.0, n_max=6)
        held = np.exp(-((x - 0.47) ** 2) / 0.1)
        rec = interpolation.deim_eval(basis, held[basis.magic_indices])
        u, sigma, _ = np.linalg.svd(train, full_matrices=False)
        pod_tail = sigma[6] / sigma[0]
        rel = np.linalg.norm(rec - held) / np.linalg.norm(held)
        assert rel <= 10.0 * pod_tail


class TestMdeim:
    def test_identical_snapshots_collapse(self):
        rng = np.random.default_rng(49)
        a = rng.standard_normal((6, 6))
        basis = interpolation.mdeim_build([a, a, a], tol=1e-14)
        assert basis.size == 1
        rec = interpolation.mdeim_reconstruct(basis, a)
        assert np.abs(rec - a).max() < 1e-12

    def test_two_term_affine_family_exact(self):
        rng = np.random.default_rng(50)
        b1, b2 = rng.standard_normal((2, 7, 7))
        snaps = [w1 * b1 + w2 * b2 for w1, w2 in ((1.0, 0.5), (2.0, -1.0), (0.3, 0.9))]
        basis = interpolation.mdeim_build(snaps, tol=1e-12)
        assert basis.size == 2
        target = -0.7 * b1 + 1.3 * b2
        rec = interpolation.mdeim_reconstruct(basis, target)
        assert np.abs(rec - target).max() < 1e-12 * np.abs(target).max()

    def test_magic_entries_map_back_consistently(self):
        rng = np.random.default_rng(51)
        snaps = [rng.standard_normal((5, 4)) for _ in range(3)]
        basis = interpolation.mdeim_build(snaps, tol=1e-14)
        for flat, (i, j) in zip(basis.magic_indices, basis.magic_entries()):
            assert flat == i + 5 * j

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interpolation.mdeim_build([np.eye(3), np.eye(4)])

    def test_training_operator_reconstruction(self, nonlinear_problem):
        problem = nonlinear_problem
        mus = problem.domain.sample(8, 52)
        snaps = [problem.diffusion_matrix(mu) for mu in mus]
        basis = interpolation.mdeim_build(snaps, tol=1e-10)
        worst = 0.0
        for a in snaps:
            dense = a.toarray()
            rec = interpolation.mdeim_reconstruct(basis, a)
            worst = max(worst, np.abs(rec - dense).max() / np.abs(dense).max())
        assert worst <= 1e-9


class TestMdeimPattern:
    @pytest.fixture(scope="class")
    def fine_problem(self):
        return fom.NonlinearFom(n=48)

    def test_stores_nonzero_pattern_rows(self, fine_problem):
        problem = fine_problem
        snaps = [problem.diffusion_matrix(mu) for mu in problem.domain.sample(4, 57)]
        basis = interpolation.mdeim_build(snaps, tol=1e-14)
        assert basis.basis.shape[0] == len(basis.pattern) == snaps[0].nnz
        # a generator densifies one snapshot at a time
        dense = interpolation.mdeim_build((a.toarray() for a in snaps), tol=1e-14)
        assert dense.magic_entries() == basis.magic_entries()
        assert np.array_equal(dense.pattern, basis.pattern)

    def test_explicit_zeros_left_out(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
        a.data[1] = 0.0  # stored entry (1, 0) is now an explicit zero
        basis = interpolation.mdeim_build([a, 2.0 * a], tol=1e-14)
        assert basis.pattern.tolist() == [0, 3]  # column-major (0, 0), (1, 1)

    @pytest.mark.parametrize("n", [24, 48])
    def test_reduced_mesh_bounded_by_magic_entries(self, n, fine_problem, monkeypatch):
        # the solve evaluates coefficients on at most 4 elements per magic
        # entry whatever the grid, and never assembles a full operator
        problem = fine_problem if n == 48 else fom.NonlinearFom(n=n)
        q = 6
        ab, cb = _operator_bases(problem, q, problem.domain.sample(8, 58))
        sizes = []
        for name in ("diffusion_coefficients", "convection_coefficients"):
            original = getattr(problem, name)

            def spy(arg, elements=slice(None), original=original):
                sizes.append(len(problem.centers[elements]))
                return original(arg, elements)

            monkeypatch.setattr(problem, name, spy)
        for name in ("diffusion_matrix", "convection_matrix", "jacobian"):
            monkeypatch.setattr(problem, name, None)
        interpolation.mdeim_nonlinear_solve(problem, ab, cb, np.array([0.1, -0.2]))
        assert sizes and max(sizes) <= 4 * (ab.size + cb.size)


class TestOperatorNewton:
    @pytest.fixture(scope="class")
    def operator_bases(self, nonlinear_problem):
        problem = nonlinear_problem
        mus = problem.domain.sample(15, 56)
        a_snaps, c_snaps = [], []
        for mu in mus:
            u = fom.nonlinear_solve(problem, mu)
            a, c = problem.operator_snapshot(u, mu)
            a_snaps.append(a)
            c_snaps.append(c)
        ab = interpolation.mdeim_build(a_snaps, tol=0.0, n_max=8)
        cb = interpolation.mdeim_build(c_snaps, tol=0.0, n_max=8)
        return ab, cb

    def test_converges_and_tracks_truth(self, nonlinear_problem, operator_bases):
        problem = nonlinear_problem
        ab, cb = operator_bases
        mu = np.array([0.05, -0.15])
        truth = fom.nonlinear_solve(problem, mu)
        approx = interpolation.mdeim_nonlinear_solve(problem, ab, cb, mu)
        rel = np.linalg.norm(approx - truth) / np.linalg.norm(truth)
        assert rel < 0.05

    @pytest.mark.parametrize("mu", [[0.05, -0.15], [-0.4, 0.3]])
    def test_matches_dense_reference(self, nonlinear_problem, operator_bases, mu):
        problem = nonlinear_problem
        ab, cb = operator_bases
        ref, steps = _dense_quasi_newton(problem, ab, cb, np.array(mu))
        u = interpolation.mdeim_nonlinear_solve(problem, ab, cb, np.array(mu),
                                                max_iter=steps)
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
        with pytest.raises(fom.NewtonError):
            interpolation.mdeim_nonlinear_solve(problem, ab, cb, np.array(mu),
                                                max_iter=steps - 1)

    def test_stall_raises_newton_error(self, nonlinear_problem, operator_bases):
        ab, cb = operator_bases
        with pytest.raises(fom.NewtonError) as err:
            interpolation.mdeim_nonlinear_solve(nonlinear_problem, ab, cb,
                                                np.array([0.05, -0.15]), max_iter=1)
        assert err.value.residual_norm > 0.0


class TestExport:
    def test_files_written(self, gaussian_eim, tmp_path):
        system, _, _, basis = gaussian_eim
        interpolation.export_eim_basis(basis, tmp_path,
                                       points=system.meta["all_nodes"])
        assert (tmp_path / "basis.csv").exists()
        assert (tmp_path / "magic_points.csv").exists()
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["q"] == basis.size
        assert manifest["magic_indices"] == basis.magic_indices
