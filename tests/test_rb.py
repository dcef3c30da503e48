"""Reduced-basis construction, projection, online solve and serialization."""

import dataclasses

import numpy as np
import pytest

from morkit import fom, linalg, rb


def _two_column_pod_oracle(s):
    """Closed-form dominant mode of a 2-column snapshot matrix."""
    # eigenvectors of the 2x2 correlation matrix by the quadratic formula
    c = s.T @ s
    tr, det = c[0, 0] + c[1, 1], c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    lam = 0.5 * (tr + np.sqrt(tr * tr - 4.0 * det))
    if abs(c[0, 1]) > 1e-15:
        w = np.array([c[0, 1], lam - c[0, 0]])
    else:
        w = np.array([1.0, 0.0]) if c[0, 0] >= c[1, 1] else np.array([0.0, 1.0])
    mode = s @ w
    return mode / np.linalg.norm(mode), np.sqrt(lam)


class TestPod:
    def test_dominant_mode_matches_closed_form(self):
        rng = np.random.default_rng(21)
        s = rng.standard_normal((12, 2))
        basis = rb.pod(s, rank=1)
        mode, sigma = _two_column_pod_oracle(s)
        assert min(np.linalg.norm(basis.basis[:, 0] - mode),
                   np.linalg.norm(basis.basis[:, 0] + mode)) < 1e-10
        assert abs(basis.singular_values[0] - sigma) < 1e-10

    def test_orthonormal_in_gram_product(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((15, 15))
        gram = m @ m.T + 15 * np.eye(15)
        s = rng.standard_normal((15, 6))
        basis = rb.pod(s, gram=gram, rank=4)
        g = basis.basis.T @ gram @ basis.basis
        assert np.allclose(g, np.eye(4), atol=1e-10)

    def test_frobenius_error_equals_neglected_tail(self):
        rng = np.random.default_rng(23)
        s = rng.standard_normal((40, 10))
        for rank in (2, 5, 8):
            basis = rb.pod(s, rank=rank)
            proj = basis.basis @ (basis.basis.T @ s)
            err = np.linalg.norm(s - proj)
            tail = np.sqrt(np.sum(basis.singular_values[rank:] ** 2))
            assert abs(err - tail) < 1e-10 * max(tail, 1.0)

    def test_energy_criterion(self):
        # construct snapshots with known singular values 4, 2, 1
        rng = np.random.default_rng(24)
        u = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        s = u @ np.diag([4.0, 2.0, 1.0]) @ v.T
        # sum ratios: 4/7, 6/7, 1 -> energy 0.8 needs two modes
        assert rb.pod(s, energy=0.8).size == 2
        assert rb.pod(s, energy=0.5).size == 1
        assert rb.pod(s, energy=1.0).size == 3

    def test_rank_and_energy_mutually_exclusive(self):
        with pytest.raises(ValueError):
            rb.pod(np.eye(3))
        with pytest.raises(ValueError):
            rb.pod(np.eye(3), rank=1, energy=0.9)

    def test_zero_snapshots_rejected(self):
        with pytest.raises(ValueError):
            rb.pod(np.zeros((4, 2)), rank=1)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(25)
        s = rng.standard_normal((10, 3))
        basis = rb.pod(s, rank=2)
        for k in range(2):
            col = basis.basis[:, k]
            assert col[np.argmax(np.abs(col))] > 0


class TestProjection:
    def test_reduced_terms_match_triple_loop_oracle(self, thermal_system):
        system = thermal_system
        rng = np.random.default_rng(26)
        v = np.linalg.qr(rng.standard_normal((system.dof_count, 3)))[0]
        basis = rb.ReducedBasis(basis=v)
        romsys = rb.project(system, basis)
        for aq, red in zip(system.matrix_terms, romsys.reduced_matrix_terms):
            dense = aq.toarray()
            oracle = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    oracle[i, j] = sum(
                        v[r, i] * dense[r, c] * v[c, j]
                        for r in range(system.dof_count)
                        for c in range(system.dof_count)
                        if dense[r, c] != 0.0
                    )
            assert np.allclose(red, oracle, atol=1e-10)

    def test_galerkin_reproduces_snapshots(self, thermal_greedy):
        system, _, basis = thermal_greedy
        romsys = rb.project(system, basis)
        for mu in basis.selected_parameters:
            truth = fom.fom_solve(system, mu)
            u_n, s_n = rb.rom_solve(romsys, mu)
            err = system.gram_norm(truth.coefficients - rb.lift(basis, u_n))
            assert err <= 1e-9
            assert abs(s_n - truth.output) <= 1e-9

    def test_output_compliant(self, thermal_system):
        # compliant case: s_N = f(mu)^T V u_N
        system = thermal_system
        rng = np.random.default_rng(27)
        v = np.linalg.qr(rng.standard_normal((system.dof_count, 2)))[0]
        romsys = rb.project(system, rb.ReducedBasis(basis=v))
        u_n, s_n = rb.rom_solve(romsys, [0.4])
        f = system.assemble_rhs([0.4])
        assert abs(s_n - f @ (v @ u_n)) < 1e-12


class TestGreedy:
    def test_history_monotone_and_converged(self, thermal_greedy):
        _, _, basis = thermal_greedy
        deltas = [d for _, d in basis.history]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-12
        assert deltas[-1] <= 1e-5

    def test_selected_parameters_distinct(self, thermal_greedy):
        _, _, basis = thermal_greedy
        seen = {tuple(p) for p in basis.selected_parameters}
        assert len(seen) == len(basis.selected_parameters)

    def test_basis_orthonormal(self, thermal_greedy):
        system, _, basis = thermal_greedy
        g = basis.basis.T @ (system.gram @ basis.basis)
        assert np.allclose(g, np.eye(basis.size), atol=1e-10)

    def test_saturation_on_tiny_training_set(self, thermal_system):
        # two training points, exact manifold dimension 2: greedy saturates
        system = thermal_system

        class ExactEstimator:
            def delta_function(self, system, basis):
                romsys = rb.project(system, basis)

                def delta(mus):
                    errors = []
                    for mu in mus:
                        truth = fom.fom_solve(system, mu)
                        u_n, _ = rb.rom_solve(romsys, mu)
                        errors.append(system.gram_norm(truth.coefficients
                                                       - rb.lift(basis, u_n)))
                    return np.array(errors)

                return delta

        basis = rb.greedy(system, [np.array([0.3]), np.array([0.7])],
                          tol=1e-30, mu1=np.array([0.5]), n_max=10,
                          estimator=ExactEstimator())
        assert basis.saturated or basis.size <= 3


class TestSerialization:
    def test_round_trip(self, thermal_greedy, tmp_path):
        system, _, basis = thermal_greedy
        romsys = rb.project(system, basis)
        rb.save_rom(romsys, tmp_path / "rom")
        loaded = rb.load_rom(tmp_path / "rom")
        assert loaded.size == romsys.size
        for mu in ([0.2], [0.55], [0.9]):
            u_a, s_a = rb.rom_solve(romsys, mu)
            u_b, s_b = rb.rom_solve(loaded, mu)
            assert np.abs(u_a - u_b).max() < 1e-14
            assert abs(s_a - s_b) < 1e-14

    def test_unregistered_theta_rejected(self, thermal_greedy, tmp_path):
        system, _, basis = thermal_greedy
        romsys = rb.project(system, basis)
        romsys.theta_name = None
        with pytest.raises(ValueError):
            rb.save_rom(romsys, tmp_path / "rom")

    def test_wrong_format_version_rejected(self, thermal_greedy, tmp_path):
        import json

        system, _, basis = thermal_greedy
        romsys = rb.project(system, basis)
        rb.save_rom(romsys, tmp_path / "rom")
        manifest_path = tmp_path / "rom" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 2
        # version 1 carried separate output terms, which may not be compliant
        for version in (999, 1):
            manifest["format_version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(ValueError, match="format version"):
                rb.load_rom(tmp_path / "rom")

    def test_unknown_theta_name_rejected(self, thermal_greedy, tmp_path):
        import json

        system, _, basis = thermal_greedy
        rb.save_rom(rb.project(system, basis), tmp_path / "rom")
        manifest_path = tmp_path / "rom" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["theta_name"] = "no-such-map"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as exc:
            rb.load_rom(tmp_path / "rom")
        assert str(exc.value) == "unknown theta registry entry 'no-such-map'"


class _WrongCountEstimator:
    def delta_function(self, system, basis):
        return lambda training: np.zeros(len(training) - 1)


@pytest.mark.parametrize("call, message", [
    (lambda s: rb.pod(np.eye(3)[:, :2], rank=0),
     "rank must be between 1 and the snapshot count"),
    (lambda s: rb.pod(np.eye(3)[:, :2], rank=3),
     "rank must be between 1 and the snapshot count"),
    (lambda s: rb.pod(np.eye(3), energy=0.0), "energy fraction must lie in (0, 1]"),
    (lambda s: rb.pod(np.eye(3), energy=1.5), "energy fraction must lie in (0, 1]"),
    (lambda s: rb.pod(np.eye(3), gram=np.zeros((3, 3)), rank=1),
     "requested basis has no nonzero modes"),
    (lambda s: rb.greedy(s, [], tol=1e-6, mu1=[0.5], n_max=2, estimator=None),
     "training set must be nonempty"),
    (lambda s: rb.greedy(dataclasses.replace(s, rhs_terms=[np.zeros(s.dof_count)]),
                         [[0.5]], tol=1e-6, mu1=[0.5], n_max=2, estimator=None),
     "initial snapshot is numerically zero"),
    (lambda s: rb.greedy(s, [[0.3], [0.5], [0.7]], tol=1e-6, mu1=[0.5], n_max=2,
                         estimator=_WrongCountEstimator()),
     "estimator gave (2,) bounds for 3 points"),
    (lambda s: rb.project(s, rb.ReducedBasis(basis=np.ones((s.dof_count + 1, 1)))),
     "basis dimension does not match the system"),
    (lambda s: rb.lift(rb.ReducedBasis(basis=np.eye(4)[:, :2]), np.ones(3)),
     "coefficient length does not match basis size"),
], ids=["pod-rank-0", "pod-rank-above", "pod-energy-0", "pod-energy-above",
        "pod-no-modes", "greedy-empty", "greedy-zero-snapshot", "greedy-bounds",
        "project", "lift"])
def test_input_check_raises(call, message):
    with pytest.raises(ValueError) as exc:
        call(fom.assemble_thermal_block(n=4))
    assert str(exc.value) == message
