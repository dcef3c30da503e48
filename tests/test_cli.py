"""Command-line interface: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

from morkit import cli, fom, interpolation, morphing


def _run(argv):
    return cli.main(argv)


class TestMorphCommand:
    @pytest.fixture()
    def cloud(self, tmp_path):
        pts = np.random.default_rng(91).random((40, 2))
        path = tmp_path / "cloud.txt"
        morphing.write_point_cloud(path, pts)
        return path, pts

    def test_idw_matches_library_call(self, cloud, tmp_path, capsys):
        path, pts = cloud
        ctrl = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        target = [[0.1, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        descriptor = tmp_path / "morph.json"
        descriptor.write_text(json.dumps(
            {"type": "idw", "control_points": ctrl, "deformed_points": target}
        ))
        out = tmp_path / "deformed.txt"
        code = _run(["morph", "idw", str(path), str(descriptor), "--out", str(out)])
        assert code == 0
        expected = morphing.idw_deform(
            morphing.IdwMorph(np.array(ctrl), np.array(target)), pts
        )
        assert np.array_equal(morphing.read_point_cloud(out), expected)
        summary = json.loads(capsys.readouterr().out)
        assert summary["points"] == 40
        assert summary["max_displacement"] > 0.0

    def test_ffd_zero_displacement_identity(self, cloud, tmp_path):
        path, pts = cloud
        descriptor = tmp_path / "morph.json"
        descriptor.write_text(json.dumps({
            "type": "ffd", "origin": [0.0, 0.0], "axes": [[1, 0], [0, 1]],
            "degrees": [2, 2], "displacements": np.zeros((3, 3, 2)).tolist(),
        }))
        out = tmp_path / "deformed.txt"
        assert _run(["morph", "ffd", str(path), str(descriptor),
                     "--out", str(out)]) == 0
        assert np.abs(morphing.read_point_cloud(out) - pts).max() < 1e-12

    def test_malformed_descriptor_exit_2_with_line(self, cloud, tmp_path, capsys):
        path, _ = cloud
        descriptor = tmp_path / "broken.json"
        descriptor.write_text('{\n  "type": "idw",\n  broken\n}\n')
        code = _run(["morph", "idw", str(path), str(descriptor)])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.json:3:" in err

    def test_non_object_descriptor_exit_2(self, cloud, tmp_path, capsys):
        path, _ = cloud
        descriptor = tmp_path / "list.json"
        descriptor.write_text("[1, 2]\n")
        assert _run(["morph", "idw", str(path), str(descriptor)]) == 2
        assert "list.json:1: top-level value must be an object" in capsys.readouterr().err

    def test_descriptor_kind_mismatch_exit_2(self, cloud, tmp_path, capsys):
        path, _ = cloud
        descriptor = tmp_path / "morph.json"
        descriptor.write_text(json.dumps({
            "type": "idw",
            "control_points": [[0.0, 0.0], [1.0, 1.0]],
            "deformed_points": [[0.0, 0.0], [1.0, 1.0]],
        }))
        assert _run(["morph", "rbf", str(path), str(descriptor)]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_rbf_deterministic_bytes(self, cloud, tmp_path):
        path, _ = cloud
        descriptor = tmp_path / "morph.json"
        descriptor.write_text(json.dumps({
            "type": "rbf", "kernel": "thin-plate",
            "control_points": [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]],
            "deformed_points": [[0, 0], [1, 0], [0, 1], [1, 1], [0.6, 0.5]],
        }))
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert _run(["morph", "rbf", str(path), str(descriptor),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDemoCommands:
    def test_eim_demo_outputs(self, tmp_path, capsys):
        out = tmp_path / "eim"
        code = _run(["eim-demo", "--grid", "8", "--train-size", "30",
                     "--n-max", "8", "--out", str(out)])
        assert code == 0
        history = (out / "eim_history.csv").read_text().strip().split("\n")
        assert history[0] == "q,epsilon"
        eps = [float(line.split(",")[1]) for line in history[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
        assert (out / "interp_solve_error.csv").exists()
        assert (out / "manifest.json").exists()

    def test_eim_demo_deterministic(self, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert _run(["eim-demo", "--grid", "8", "--train-size", "20",
                         "--n-max", "6", "--seed", "7", "--out", str(out)]) == 0
            blobs.append((out / "eim_history.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_eim_demo_factors_stiffness_once(self, tmp_path, monkeypatch):
        # the 10 exact and 10 interpolated loads share one stiffness LU
        factorizations = []

        def counted(func):
            def wrapper(*args, **kwargs):
                factorizations.append(func.__name__)
                return func(*args, **kwargs)
            return wrapper

        for name in ("gssv", "gstrf"):  # spsolve's and splu's factorization
            monkeypatch.setattr(_superlu, name, counted(getattr(_superlu, name)))
        out = tmp_path / "eim"
        assert _run(["eim-demo", "--grid", "8", "--out", str(out)]) == 0
        assert len(factorizations) == 1
        monkeypatch.undo()

        # reference: one spsolve per solve, the exact one through the library
        system, forcing = fom.assemble_gaussian_poisson(n=8)
        points = system.meta["all_nodes"]
        params = system.domain.sample(100, 42)
        samples = interpolation.FunctionSamples(
            values=np.column_stack([forcing(points, mu) for mu in params]))
        basis = interpolation.eim_build(samples, tol=1e-12, n_max=25)
        q = min(11, basis.size)
        sub = interpolation.EimBasis(
            basis=basis.basis[:, :q], magic_indices=basis.magic_indices[:q],
            error_history=basis.error_history[:q],
            selected_parameter_indices=basis.selected_parameter_indices[:q],
        )
        rows = []
        for mu in system.domain.sample(10, 43):
            exact = fom.solve_gaussian_poisson(system, mu)
            g = interpolation.eim_interpolate(sub, forcing(points[sub.magic_indices], mu))
            u = spla.spsolve(system.assemble_matrix(mu).tocsc(),
                             fom.gaussian_poisson_load(system, g))
            rows.append((float(mu[0]), float(mu[1]),
                         system.gram_norm(u - exact.coefficients)))
        reference = tmp_path / "reference.csv"
        fom.write_csv(reference, "mu_1,mu_2,error", rows)
        assert ((out / "interp_solve_error.csv").read_bytes()
                == reference.read_bytes())

    def test_asub_demo_outputs(self, tmp_path):
        out = tmp_path / "asub"
        assert _run(["asub-demo", "--train-size", "500", "--out", str(out)]) == 0
        eig = (out / "eigenvalues.csv").read_text().strip().split("\n")
        assert eig[0] == "index,lambda"
        lams = [float(line.split(",")[1]) for line in eig[1:]]
        assert lams == sorted(lams, reverse=True)
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 501

    def test_deim_demo_decay(self, tmp_path):
        out = tmp_path / "deim"
        assert _run(["deim-demo", "--grid", "8", "--train-size", "15",
                     "--out", str(out)]) == 0
        rows = (out / "mdeim_decay.csv").read_text().strip().split("\n")[1:]
        errs = [float(line.split(",")[1]) for line in rows]
        assert len(errs) == 5
        assert errs[-1] < errs[0]

    def test_deim_demo_solves_each_problem_once(self, tmp_path, monkeypatch):
        # 15 training and 5 held-out problems, the held-out ones solved once
        # for all five term counts rather than once per count
        calls = []
        solve = fom.nonlinear_solve
        monkeypatch.setattr(fom, "nonlinear_solve",
                            lambda problem, mu: calls.append(mu) or solve(problem, mu))
        assert _run(["deim-demo", "--grid", "6", "--train-size", "15",
                     "--out", str(tmp_path / "deim")]) == 0
        assert len(calls) == 20

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": 8, "train-size": 20, "n-max": 4,
                                   "out": str(tmp_path / "from_config")}))
        out = tmp_path / "explicit"
        assert _run(["eim-demo", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        assert not (tmp_path / "from_config").exists()
        history = (out / "eim_history.csv").read_text().strip().split("\n")
        assert len(history) == 5  # header + n-max rows from the config

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{ not json }")
        assert _run(["eim-demo", "--config", str(cfg)]) == 2
        assert "config.json:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("asub-demo", {"grid": 8}),  # an option asub-demo does not read
        ("thermal-block", {"seed": 1}),
        ("eim-demo", {"grid": "eight"}),  # a value that is not an int
    ])
    def test_bad_config_key_or_value_exit_2(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert _run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config.json:1:" in capsys.readouterr().err
        assert not out.exists()


class TestDeclaredFlags:
    # the flags every subcommand once took and these do not read
    @pytest.mark.parametrize("command, flag", (
        [("deim-demo", flag) for flag in ("--tol", "--n-max")]
        + [("asub-demo", flag) for flag in ("--grid", "--tol", "--n-max")]
        + [(command, flag) for command in ("morph idw cloud.txt morph.json",
                                           "rom solve model --mu 0.3")
           for flag in ("--grid", "--train-size", "--tol", "--n-max", "--seed")]
    ))
    def test_flag_the_subcommand_does_not_read_exits_2(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            _run(command.split() + [flag, "4"])
        assert exc.value.code == 2


class TestRomCommands:
    def test_save_load_solve_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = _run(["thermal-block", "--grid", "8", "--train-size", "20",
                     "--tol", "1e-6", "--n-max", "6", "--out", str(out)])
        assert code == 0
        capsys.readouterr()

        assert _run(["rom", "load", str(out / "rom")]) == 0
        assert "reduced model of size" in capsys.readouterr().out

        coeff_out = tmp_path / "coeff.csv"
        assert _run(["rom", "solve", str(out / "rom"), "--mu", "0.3",
                     "--out", str(coeff_out)]) == 0
        printed = capsys.readouterr().out
        assert "s_N" in printed
        assert coeff_out.exists()

        sweep = (out / "bound_sweep.csv").read_text().strip().split("\n")
        assert sweep[0] == "mu,delta_en,true_error,effectivity,delta_s"
        assert len(sweep) == 21
        history = (out / "greedy_history.csv").read_text().strip().split("\n")
        assert history[0] == "N,max_delta,max_true_error"

    def test_load_missing_directory_exit_2(self, tmp_path, capsys):
        assert _run(["rom", "load", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_save_is_not_a_command(self, tmp_path):
        # thermal-block saves the model; "rom save" once silently reran it
        with pytest.raises(SystemExit) as exc:
            _run(["rom", "save", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_solve_requires_mu(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run(["rom", "solve", str(tmp_path)])
        assert exc.value.code == 2
