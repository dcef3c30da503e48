"""Full-order problems: assembly oracles, affine fidelity, nonlinear solver."""

import concurrent.futures
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from morkit import fom, linalg


def _bilinear_shape(xi, eta):
    """Reference shape functions on [0,1]^2, node order (0,0),(1,0),(1,1),(0,1)."""
    return np.array([
        (1 - xi) * (1 - eta),
        xi * (1 - eta),
        xi * eta,
        (1 - xi) * eta,
    ])


def _bilinear_grad(xi, eta):
    return np.array([
        [-(1 - eta), -(1 - xi)],
        [(1 - eta), -xi],
        [eta, xi],
        [-eta, (1 - xi)],
    ])


def _coo_reference(conn, keep, local):
    """COO sum of the element matrices, then an index copy of the kept nodes.

    The assembly the pattern replaced; every operator must equal it bit for bit.
    """
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    data = np.asarray(local).reshape(len(conn), 16).ravel()
    full = sp.coo_matrix((data, (rows, cols)), shape=(len(keep), len(keep))).tocsr()
    kept = np.flatnonzero(keep)
    return sp.csr_matrix(full[np.ix_(kept, kept)])


def _newton_loop_reference(problem, mu, tol=1e-9, max_iter=50):
    """The loop ``nonlinear_solve`` ran before it called ``fom.newton``.

    Returns the solution and the number of steps it took.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    u = np.zeros(problem.dof_count)
    for step in range(max_iter):
        r = problem.residual(u, mu)
        if float(np.linalg.norm(r)) <= tol:
            return u, step
        u = u - spla.spsolve(problem.jacobian(u, mu), r, permc_spec="MMD_AT_PLUS_A")
    if float(np.linalg.norm(problem.residual(u, mu))) <= tol:
        return u, max_iter
    raise AssertionError("reference Newton did not converge")


def _assert_bitwise(actual, expected):
    assert actual.format == "csr" and actual.shape == expected.shape
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert actual.data.dtype == expected.data.dtype
    assert actual.data.tobytes() == expected.data.tobytes()


def _quadrature_element_matrices(hx, hy):
    """Independent element-matrix oracle by 3x3 Gauss quadrature."""
    pts, wts = np.polynomial.legendre.leggauss(3)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    kx = np.zeros((4, 4))
    ky = np.zeros((4, 4))
    mass = np.zeros((4, 4))
    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
            grad = _bilinear_grad(xi, eta)
            dx = grad[:, 0] / hx
            dy = grad[:, 1] / hy
            shape = _bilinear_shape(xi, eta)
            w = wx * wy * hx * hy
            kx += w * np.outer(dx, dx)
            ky += w * np.outer(dy, dy)
            mass += w * np.outer(shape, shape)
    return kx, ky, mass


class TestElementMatrices:
    def test_reference_matrices_match_quadrature_oracle(self):
        kx, ky, mass = _quadrature_element_matrices(1.0, 1.0)
        assert np.allclose(fom._KX_REF, kx, atol=1e-13)
        assert np.allclose(fom._KY_REF, ky, atol=1e-13)
        assert np.allclose(fom._M_REF, mass, atol=1e-13)

    def test_stiffness_annihilates_constants(self):
        ones = np.ones(4)
        assert np.abs((fom._KX_REF + fom._KY_REF) @ ones).max() < 1e-14

    def test_mass_row_sums_integrate_shapes(self):
        # sum_j M_ij = integral of shape i = 1/4 on the unit element
        assert np.allclose(fom._M_REF.sum(axis=1), 0.25, atol=1e-14)


class TestParamDomain:
    def test_contains(self):
        dom = fom.ParamDomain([0.0, -1.0], [1.0, 1.0])
        assert dom.contains([0.5, 0.0])
        assert not dom.contains([1.5, 0.0])

    def test_sample_inside_and_deterministic(self):
        dom = fom.ParamDomain([-2.0], [3.0])
        a = dom.sample(20, 5)
        b = dom.sample(20, 5)
        assert np.array_equal(a, b)
        assert np.all((a >= -2.0) & (a <= 3.0))

    def test_uniform_grid_open_box(self):
        dom = fom.ParamDomain([0.0], [1.0])
        g = dom.uniform_grid(9)
        assert g.shape == (9, 1)
        assert g.min() > 0.0 and g.max() < 1.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            fom.ParamDomain([1.0], [0.0])


class TestThermalTheta:
    def test_reference_parameter_weights_all_one(self):
        assert np.allclose(fom.theta_thermal(0.5), 1.0, atol=1e-15)

    def test_values(self):
        theta = fom.theta_thermal(0.2)
        assert np.allclose(theta, [1.0 / 0.4, 0.4, 1.0 / 1.6, 1.6], atol=1e-15)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            fom.theta_thermal(0.0)
        with pytest.raises(ValueError):
            fom.theta_thermal(1.0)

    @pytest.mark.parametrize("mu", [[], [0.3, 0.4], [[0.3]]])
    def test_rejects_other_than_one_value(self, mu):
        with pytest.raises(ValueError, match="one interface parameter"):
            fom.theta_thermal(mu)


class TestThermalBlock:
    def test_affine_matches_direct_assembly(self):
        system = fom.assemble_thermal_block(n=8, sigma1=1.0, sigma2=0.3)
        for mu in (0.2, 0.3, 0.7):
            affine = system.assemble_matrix([mu]).toarray()
            direct = fom.thermal_block_direct(8, mu, sigma1=1.0, sigma2=0.3).toarray()
            assert np.abs(affine - direct).max() < 1e-12

    def test_affine_matches_direct_at_random_parameters(self):
        system = fom.assemble_thermal_block(n=6)
        rng = np.random.default_rng(11)
        for mu in 0.05 + 0.9 * rng.random(20):
            affine = system.assemble_matrix([mu]).toarray()
            direct = fom.thermal_block_direct(6, mu).toarray()
            assert np.abs(affine - direct).max() < 1e-11

    def test_kept_nodes_and_edge_load_match_loops(self, monkeypatch):
        n = 10
        h = 1.0 / n
        nodes = fom._grid_nodes(n)
        keep = np.array([k for k in range(len(nodes)) if nodes[k, 0] < 1.0 - 1e-12])
        load = np.zeros(len(nodes))
        for j in range(n):
            load[j] += h / 2.0
            load[j + 1] += h / 2.0
        seen = []
        pattern = fom._Q1Pattern
        monkeypatch.setattr(fom, "_Q1Pattern",
                            lambda conn, mask: seen.append(mask) or pattern(conn, mask))
        system = fom.assemble_thermal_block(n=n)
        # one pattern on the kept nodes builds the four terms, the mass and the gram
        assert len(seen) == 1
        assert seen[0].dtype == bool and seen[0].shape == (len(nodes),)
        assert np.array_equal(np.flatnonzero(seen[0]), keep)
        for a in system.matrix_terms + [system.gram]:
            assert a.shape == (len(keep), len(keep))
        f = system.rhs_terms[0]
        assert f.dtype == load.dtype and np.array_equal(f, load[keep])
        assert np.array_equal(system.nodes, nodes[keep])

    def test_direct_assembly_matches_element_loop(self):
        n, hy = 8, 1.0 / 8
        conn = fom._element_connectivity(n)
        xbar = fom._grid_nodes(n)[:, 0]
        keep = np.array([xbar[k] < 1.0 - 1e-12 for k in range(len(xbar))])
        for mu in (0.3, 0.5, 0.71):
            x = np.where(xbar <= 0.5, 2.0 * mu * xbar,
                         (2.0 - 2.0 * mu) * xbar + 2.0 * mu - 1.0)
            local = np.zeros((len(conn), 4, 4))
            for k, elem in enumerate(conn):
                hx = x[elem[1]] - x[elem[0]]
                sigma = 1.0 if 0.5 * (x[elem[1]] + x[elem[0]]) < mu else 0.3
                local[k] = sigma * ((hy / hx) * fom._KX_REF + (hx / hy) * fom._KY_REF)
            expected = _coo_reference(conn, keep, local)
            direct = fom.thermal_block_direct(n, mu, sigma1=1.0, sigma2=0.3)
            _assert_bitwise(direct, expected)

    def test_requires_even_resolution(self):
        with pytest.raises(ValueError):
            fom.assemble_thermal_block(n=7)

    def test_matrix_terms_symmetric_psd(self):
        system = fom.assemble_thermal_block(n=6)
        for a in system.matrix_terms:
            dense = a.toarray()
            assert np.abs(dense - dense.T).max() < 1e-14
            lam = np.linalg.eigvalsh(dense)
            assert lam.min() > -1e-12

    def test_gram_spd(self):
        system = fom.assemble_thermal_block(n=6)
        lam = np.linalg.eigvalsh(system.gram.toarray())
        assert lam.min() > 0.0

    def test_solution_positive_and_monotone_output(self):
        # unit inflow, zero wall: temperature stays positive (max principle)
        system = fom.assemble_thermal_block(n=8, sigma2=0.1)
        outputs = []
        for mu in (0.2, 0.5, 0.8):
            sol = fom.fom_solve(system, [mu])
            assert sol.coefficients.min() > -1e-12
            outputs.append(sol.output)
        # thicker poor conductor (larger 1 - mu share) means larger resistance
        assert outputs[0] > outputs[1] > outputs[2]

    def test_output_matches_series_resistance(self):
        # the block is one-dimensional in x: s = mu/sigma1 + (1 - mu)/sigma2
        system = fom.assemble_thermal_block(n=8, sigma1=2.0, sigma2=0.5)
        for mu in (0.25, 0.6):
            sol = fom.fom_solve(system, [mu])
            expected = mu / 2.0 + (1.0 - mu) / 0.5
            assert abs(sol.output - expected) < 1e-10

    def test_rejects_parameter_outside_domain(self):
        system = fom.assemble_thermal_block(n=6)
        with pytest.raises(ValueError):
            fom.fom_solve(system, [1.5])


class TestSingularSystems:
    """The left-material x term alone leaves the right half decoupled."""

    @pytest.fixture
    def block(self):
        system = fom.assemble_thermal_block(n=8)
        return system, system.matrix_terms[0]

    def test_fom_solve_raises_typed_error(self, block):
        system, left = block
        singular = fom.AffineSystem(
            matrix_terms=[left], rhs_terms=system.rhs_terms,
            theta_a=lambda mu: np.array([1.0]), theta_f=system.theta_f,
            gram=system.gram, domain=system.domain,
        )
        with pytest.warns(spla.MatrixRankWarning), \
                pytest.raises(linalg.SingularMatrixError):
            fom.fom_solve(singular, [0.5])

    def test_gram_factor_raises_typed_error(self, block):
        system, left = block
        singular = fom.AffineSystem(
            matrix_terms=system.matrix_terms, rhs_terms=system.rhs_terms,
            theta_a=system.theta_a, theta_f=system.theta_f,
            gram=left, domain=system.domain,
        )
        with pytest.raises(linalg.SingularMatrixError):
            singular.gram_factor()


class TestFomSolveMany:
    """The ordered parallel map of truth solves, at one and at several CPUs."""

    @pytest.fixture(scope="class")
    def block(self):
        system = fom.assemble_thermal_block(n=16)
        return system, list(system.domain.uniform_grid(30))

    @pytest.mark.parametrize("cpus", [None, 1, 2, 3])  # None: the real count
    def test_bitwise_the_serial_solves_in_order(self, block, set_cpus, cpus):
        system, mus = block
        serial = [fom.fom_solve(system, mu) for mu in mus]
        if cpus is not None:
            set_cpus(cpus)
        many = list(fom.fom_solve_many(system, mus))
        assert len(many) == len(serial)
        for got, want in zip(many, serial):
            assert np.array_equal(got.mu, want.mu)
            assert np.array_equal(got.coefficients, want.coefficients)
            assert got.output == want.output

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("bad", [4, 5])
    def test_out_of_domain_point_raises_when_reached(self, block, set_cpus,
                                                     cpus, bad):
        system, mus = block
        mus = mus[:bad] + [np.array([1.5])] + mus[bad:]
        with pytest.raises(ValueError) as serial:
            fom.fom_solve(system, mus[bad])
        set_cpus(cpus)
        yielded = []
        with pytest.raises(ValueError) as many:
            for truth in fom.fom_solve_many(system, mus):
                yielded.append(truth)
        assert str(many.value) == str(serial.value)
        assert len(yielded) == bad

    def test_one_cpu_starts_no_thread_pool(self, block, set_cpus, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        system, mus = block
        set_cpus(1)
        assert len(list(fom.fom_solve_many(system, mus))) == len(mus)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_helpers_solve_through_the_module_function(self, block, set_cpus,
                                                       monkeypatch, cpus):
        # the benchmark's tracer counts solves by replacing fom.fom_solve
        system, mus = block
        calls = []
        solve = fom.fom_solve
        monkeypatch.setattr(fom, "fom_solve",
                            lambda system, mu: calls.append(mu) or solve(system, mu))
        set_cpus(cpus)
        assert len(list(fom.fom_solve_many(system, mus))) == len(mus)
        assert len(calls) == len(mus)

    @pytest.mark.parametrize("stop", ["close", "error"])
    def test_stopping_early_cancels_and_waits_for_nothing(self, block, set_cpus,
                                                          monkeypatch, stop):
        shutdowns = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        system, mus = block
        set_cpus(2)
        if stop == "close":
            solves = fom.fom_solve_many(system, mus)
            next(solves)
            solves.close()
        else:
            with pytest.raises(ValueError):
                list(fom.fom_solve_many(system, mus[:2] + [np.array([1.5])] + mus[2:]))
        assert shutdowns == [(False, True)]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_early_close_solves_no_more_than_the_points_handed_out(
            self, block, set_cpus, monkeypatch, cpus):
        system, mus = block
        started = []
        solve = fom.fom_solve
        monkeypatch.setattr(fom, "fom_solve",
                            lambda system, mu: started.append(mu) or solve(system, mu))
        set_cpus(cpus)
        before = set(threading.enumerate())
        solves = fom.fom_solve_many(system, mus)
        next(solves)
        solves.close()
        for thread in set(threading.enumerate()) - before:
            thread.join()
        assert 1 <= len(started) <= 2 * cpus


def _parent_gaussian_load(n):
    """The load rule (mass_full @ g)[interior] the load map replaced."""
    nodes = fom._grid_nodes(n, -1.0, 1.0)
    conn = fom._element_connectivity(n)
    local_mass = np.broadcast_to((2.0 / n) ** 2 * fom._M_REF, (len(conn), 4, 4))
    mass_full = fom._Q1Pattern(conn, np.ones(len(nodes), dtype=bool)).assemble(local_mass)
    interior = np.flatnonzero(np.all(np.abs(nodes) < 1.0 - 1e-12, axis=1))
    return lambda g: np.asarray(mass_full @ np.asarray(g, dtype=float))[interior]


class TestGaussianPoisson:
    def test_interior_nodes_match_loop(self):
        n = 9
        system, points, load_map = fom.assemble_gaussian_poisson(n=n)
        assert points.shape == ((n + 1) ** 2, 2)
        expected = np.array([k for k in range(len(points))
                             if np.all(np.abs(points[k]) < 1.0 - 1e-12)])
        assert np.array_equal(system.nodes, points[expected])
        assert load_map.shape == (len(expected), len(points))
        assert system.rhs_terms == []

    def test_forcing_peak_and_decay(self):
        x = np.array([[0.2, -0.1], [1.0, 1.0]])
        g = fom.gaussian_forcing(x, [0.2, -0.1])
        assert np.isclose(g[0], 1.0, atol=1e-15)
        assert g[1] < g[0]

    def test_solution_positive(self):
        system, points, load_map = fom.assemble_gaussian_poisson(n=10)
        sol = fom.solve_gaussian_poisson(system, points, load_map, [0.3, 0.3])
        assert sol.coefficients.min() > -1e-13

    def test_load_matches_direct_quadrature(self):
        # consistent load = full mass matrix times nodal forcing, restricted
        n = 6
        _, points, load_map = fom.assemble_gaussian_poisson(n=n)
        nodes = fom._grid_nodes(n, -1.0, 1.0)
        conn = fom._element_connectivity(n)
        mass = _coo_reference(conn, np.ones(len(nodes), dtype=bool), np.broadcast_to(
            (2.0 / n) ** 2 * fom._M_REF, (len(conn), 4, 4))).toarray()
        interior = np.all(np.abs(nodes) < 1.0 - 1e-12, axis=1)
        g = fom.gaussian_forcing(nodes, [0.1, -0.4])
        assert np.array_equal(points, nodes)
        assert np.allclose(load_map @ g, (mass @ g)[interior], atol=1e-14)

    @pytest.mark.parametrize("n", [4, 9, 32])
    def test_load_map_matches_parent_rule_bitwise(self, n):
        _, points, load_map = fom.assemble_gaussian_poisson(n=n)
        reference = _parent_gaussian_load(n)
        rng = np.random.default_rng(n)
        columns = [fom.gaussian_forcing(points, mu) for mu in 2.0 * rng.random((5, 2)) - 1.0]
        columns += list(rng.standard_normal((5, len(points))))
        for g in columns:
            assert np.array_equal(load_map @ g, reference(g))
        loads = load_map @ np.column_stack(columns)
        for k, g in enumerate(columns):
            assert np.array_equal(loads[:, k], reference(g))

    def test_fom_solve_rejects_system_without_load_terms(self):
        system, _, _ = fom.assemble_gaussian_poisson(n=8)
        # checked before the parameter, so nothing is assembled first
        with pytest.raises(ValueError, match="no load terms"):
            fom.fom_solve(system, [5.0, 5.0])
        with pytest.raises(ValueError, match="no load terms"):
            fom.fom_solve(system, [0.1, 0.2])


class TestPatternMatchesCooReference:
    """Every full-order operator equals the COO reference bit for bit."""

    @pytest.mark.parametrize("n", [4, 10, 32])
    def test_thermal_block_terms_and_gram(self, n):
        conn = fom._element_connectivity(n)
        nodes = fom._grid_nodes(n)
        left = nodes[conn].mean(axis=1)[:, 0] < 0.5
        keep = nodes[:, 0] < 1.0 - 1e-12
        h = 1.0 / n
        mass = _coo_reference(conn, keep,
                              np.broadcast_to(h * h * fom._M_REF, (len(conn), 4, 4)))
        for sigma2 in (0.1, 1.0):
            system = fom.assemble_thermal_block(n=n, sigma2=sigma2)
            terms = []
            for mask, sigma, ref in ((left, 1.0, fom._KX_REF), (left, 1.0, fom._KY_REF),
                                     (~left, sigma2, fom._KX_REF),
                                     (~left, sigma2, fom._KY_REF)):
                local = np.zeros((len(conn), 4, 4))
                local[mask] = sigma * ref
                terms.append(_coo_reference(conn, keep, local))
            for actual, expected in zip(system.matrix_terms, terms):
                _assert_bitwise(actual, expected)
            _assert_bitwise(system.gram, sp.csr_matrix(sum(terms) + mass))

    @pytest.mark.parametrize("n", [4, 10, 32])
    def test_direct_assembly(self, n):
        conn = fom._element_connectivity(n)
        xbar = fom._grid_nodes(n)[:, 0]
        hy = 1.0 / n
        for sigma2 in (0.1, 1.0):
            for mu in 0.05 + 0.9 * np.random.default_rng(n).random(4):
                x = np.where(xbar <= 0.5, 2.0 * mu * xbar,
                             (2.0 - 2.0 * mu) * xbar + 2.0 * mu - 1.0)
                hx = (x[conn[:, 1]] - x[conn[:, 0]])[:, None, None]
                centers = 0.5 * (x[conn[:, 1]] + x[conn[:, 0]])
                sigma = np.where(centers < mu, 1.0, sigma2)[:, None, None]
                local = sigma * ((hy / hx) * fom._KX_REF + (hx / hy) * fom._KY_REF)
                _assert_bitwise(fom.thermal_block_direct(n, mu, sigma2=sigma2),
                                _coo_reference(conn, xbar < 1.0 - 1e-12, local))

    @pytest.mark.parametrize("n", [4, 9, 32])
    def test_gaussian_poisson_stiffness_gram_and_mass(self, n):
        system, points, load_map = fom.assemble_gaussian_poisson(n=n)
        conn = fom._element_connectivity(n)
        interior = np.all(np.abs(points) < 1.0 - 1e-12, axis=1)
        local_mass = np.broadcast_to((2.0 / n) ** 2 * fom._M_REF, (len(conn), 4, 4))
        stiff = _coo_reference(conn, interior, np.broadcast_to(
            fom._KX_REF + fom._KY_REF, (len(conn), 4, 4)))
        _assert_bitwise(system.matrix_terms[0], stiff)
        _assert_bitwise(system.gram, sp.csr_matrix(
            stiff + _coo_reference(conn, interior, local_mass)))
        mass_full = _coo_reference(conn, np.ones_like(interior), local_mass)
        _assert_bitwise(load_map, sp.csr_matrix(mass_full[np.flatnonzero(interior)]))

    @pytest.mark.parametrize("n", [4, 9, 32])
    def test_nonlinear_mass_stiffness_and_forcing(self, n):
        problem = fom.NonlinearFom(n=n)
        conn = problem.conn
        interior = np.zeros((n + 1) ** 2, dtype=bool)
        interior[problem.interior] = True
        h = 1.0 / n
        local_mass = np.broadcast_to(h * h * fom._M_REF, (len(conn), 4, 4))
        _assert_bitwise(problem.mass, _coo_reference(conn, interior, local_mass))
        full_mass = _coo_reference(conn, np.ones_like(interior), local_mass)
        forcing = (full_mass @ np.ones(len(interior)))[problem.interior]
        assert forcing.tobytes() == problem.forcing.tobytes()

        # stiffness_scatter is a sparse matrix product, which lists each row's
        # elements in descending order: the stiffness sums the contributions
        # last element first, as the COO sum of the reversed element list does
        k_ref = fom._KX_REF + fom._KY_REF
        rng = np.random.default_rng(n)
        for mu in problem.domain.sample(3, n):
            u = 0.1 * rng.standard_normal(problem.dof_count)
            a, c = problem.operator_snapshot(u, mu)
            for actual, coef in ((a, problem.diffusion_coefficients(mu)),
                                 (c, problem.convection_coefficients(u))):
                _assert_bitwise(actual, _coo_reference(
                    conn[::-1], interior, (coef[:, None, None] * k_ref)[::-1]))


class TestNonlinearFom:
    def test_diffusivity_bounds(self, nonlinear_problem):
        # floor 0.01 everywhere, bump below 0.02 plus floor
        grid = np.stack(np.meshgrid(np.linspace(0, 1, 21), np.linspace(0, 1, 21)),
                        axis=-1).reshape(-1, 2)
        for mu in ([-0.5, -0.5], [0.0, 0.0], [0.5, 0.5]):
            nu = fom.nu_gaussian(grid, mu)
            assert nu.min() >= 0.01 - 1e-15
            assert nu.max() <= 0.01 + 1.0 / 100.0 + 1e-15

    def test_jacobian_matches_finite_differences(self, nonlinear_problem):
        problem = nonlinear_problem
        rng = np.random.default_rng(12)
        u = 0.1 * rng.standard_normal(problem.dof_count)
        mu = np.array([0.2, -0.3])
        jac = problem.jacobian(u, mu).toarray()
        fd = np.zeros_like(jac)
        h = 1e-6
        for j in range(problem.dof_count):
            e = np.zeros(problem.dof_count)
            e[j] = h
            fd[:, j] = (problem.residual(u + e, mu) - problem.residual(u - e, mu)) / (2 * h)
        assert np.abs(jac - fd).max() < 1e-6

    def test_newton_converges(self, nonlinear_problem):
        u = fom.nonlinear_solve(nonlinear_problem, [0.1, 0.2])
        r = nonlinear_problem.residual(u, [0.1, 0.2])
        assert np.linalg.norm(r) <= 1e-9

    def test_newton_failure_raises_with_residual(self, nonlinear_problem):
        # no step: the residual at u = 0 is -f
        with pytest.raises(fom.NewtonError) as err:
            fom.nonlinear_solve(nonlinear_problem, [0.1, 0.2], max_iter=0)
        assert err.value.residual_norm == np.linalg.norm(nonlinear_problem.forcing)

    @pytest.mark.parametrize("n", [8, 12])
    def test_newton_matches_parent_loop_bitwise(self, n):
        problem = fom.NonlinearFom(n=n)
        for mu in problem.domain.sample(4, 70 + n):
            ref, _ = _newton_loop_reference(problem, mu)
            assert np.array_equal(fom.nonlinear_solve(problem, mu), ref)

    def test_one_jacobian_per_step(self, nonlinear_problem, monkeypatch):
        problem = nonlinear_problem
        calls = []

        def counted(u, mu, original=problem.jacobian):
            calls.append(u)
            return original(u, mu)

        for mu in problem.domain.sample(3, 71):
            _, steps = _newton_loop_reference(problem, mu)
            assert steps >= 2
            calls.clear()
            monkeypatch.setattr(problem, "jacobian", counted)
            fom.nonlinear_solve(problem, mu)
            monkeypatch.undo()
            assert len(calls) == steps


class TestNewtonLoop:
    def test_jacobian_at_the_iterate_of_the_last_residual(self):
        b = np.array([1.0, 2.0, 3.0])
        seen = []

        def residual(u):
            seen.append(("residual", u))
            return u + u ** 3 - b

        def jacobian(u):
            seen.append(("jacobian", u))
            return sp.diags(1.0 + 3.0 * u ** 2, format="csc")

        u = fom.newton(residual, jacobian, np.zeros(3), 1e-12, 50)
        assert np.linalg.norm(u + u ** 3 - b) <= 1e-12
        steps = len(seen) // 2
        assert steps >= 2
        assert [kind for kind, _ in seen] == ["residual", "jacobian"] * steps + ["residual"]
        for (_, at_residual), (_, at_jacobian) in zip(seen[::2], seen[1::2]):
            assert at_jacobian is at_residual

    @pytest.mark.parametrize("max_iter", [-1, 0, 1, 2])
    def test_too_few_steps_raise_with_the_last_residual(self, max_iter):
        b = np.array([1.0, 2.0, 3.0])
        norms = []

        def residual(u):
            r = u + u ** 3 - b
            norms.append(float(np.linalg.norm(r)))
            return r

        with pytest.raises(fom.NewtonError, match=f"in {max_iter} iterations") as err:
            fom.newton(residual, lambda u: sp.diags(1.0 + 3.0 * u ** 2, format="csc"),
                       np.zeros(3), 1e-12, max_iter)
        assert len(norms) == max(max_iter, 0) + 1  # a negative count takes no step
        assert err.value.residual_norm == norms[-1]


class TestCsvExport:
    def test_round_trip_precision(self, tmp_path):
        nodes = np.array([[0.1, 0.2], [0.3, 0.4]])
        values = np.array([1.0 / 3.0, 2.0 / 7.0])
        path = tmp_path / "solution.csv"
        fom.write_csv(path, "x,y,value", np.column_stack([nodes, values]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,value"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed[:, 2], values)

    def test_bytes_match_per_value_formatting(self, tmp_path):
        def per_value(header, rows):
            lines = [header]
            for row in rows:
                lines.append(",".join(
                    str(int(v)) if isinstance(v, (int, np.integer)) else f"{float(v):.17g}"
                    for v in row))
            return "\n".join(lines) + "\n"

        specials = [-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 3.0, -7.0, 0.1]
        block = np.random.default_rng(74).standard_normal((300, 2))
        block[:len(specials), 0] = specials
        cases = [
            block,  # the active-subspace summary shape
            [(i + 1, lam) for i, lam in enumerate(np.array([33.3, 0.33, 3.3e-3]))],
            [(np.int64(k + 1), v) for k, v in enumerate(specials)],  # rom solve --out
            [(1, np.int32(2), 2.5, True), (np.float64(4.0), -0.0, 10 ** 20, np.uint8(7))],
            np.arange(6).reshape(3, 2),
            [],
        ]
        for rows in cases:
            path = tmp_path / "rows.csv"
            fom.write_csv(path, "a,b", rows)
            assert path.read_bytes() == per_value("a,b", rows).encode("utf-8")

    def test_integers_written_as_integers(self, tmp_path):
        path = tmp_path / "rows.csv"
        fom.write_csv(path, "k,v", [(1, 0.5), (np.int64(2), 0.25)])
        assert path.read_text() == "k,v\n1,0.5\n2,0.25\n"


def _affine(matrices, rhs, gram):
    return fom.AffineSystem(
        matrix_terms=[sp.csr_matrix(a) for a in matrices], rhs_terms=rhs,
        theta_a=lambda mu: np.ones(len(matrices)), theta_f=lambda mu: np.ones(1),
        gram=sp.csr_matrix(gram), domain=fom.ParamDomain([0.0], [1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: fom.ParamDomain([[0.0, 0.0]], [[1.0, 1.0]]),
     "lower/upper bounds must be 1-d arrays of equal length"),
    (lambda: fom.ParamDomain([0.0, 0.0], [1.0]),
     "lower/upper bounds must be 1-d arrays of equal length"),
    (lambda: _affine([np.eye(3), np.eye(2)], [np.ones(3)], np.eye(3)),
     "all matrix terms must share the same square shape"),
    (lambda: _affine([np.ones((3, 2))], [np.ones(3)], np.eye(3)),
     "all matrix terms must share the same square shape"),
    (lambda: _affine([np.eye(3)], [np.ones(2)], np.eye(3)),
     "rhs terms must match the matrix dimension"),
    (lambda: _affine([np.eye(3)], [np.ones(3)], np.eye(2)),
     "gram matrix dimension mismatch"),
    (lambda: fom.assemble_thermal_block(n=2), "grid resolution must be at least 3"),
    (lambda: fom.assemble_thermal_block(n=4, sigma2=0.0),
     "conductivities must be positive"),
    (lambda: fom.thermal_block_direct(5, 0.5), "grid resolution must be even"),
    (lambda: fom.assemble_gaussian_poisson(n=2), "grid resolution must be at least 3"),
    (lambda: fom.NonlinearFom(n=2), "grid resolution must be at least 3"),
], ids=["domain-2d", "domain-lengths", "terms-shapes", "term-not-square", "rhs",
        "gram", "thermal-grid", "thermal-sigma", "direct-odd", "gaussian-grid",
        "nonlinear-grid"])
def test_input_check_raises(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
