"""Command-line interface: outputs, determinism, exit codes."""

import json
import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

from morkit import cli, fom, interpolation, morphing, rb


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

    @pytest.mark.parametrize("kind, descriptor, message", [
        ("idw", {}, "missing key 'control_points'"),
        ("ffd", {"origin": [0, 0], "axes": [[1, 0], [0, 1]], "degrees": "abc",
                 "displacements": np.zeros((3, 3, 2)).tolist()},
         "degrees: invalid literal for int()"),
        ("idw", {"control_points": [[0, 0], [1]],
                 "deformed_points": [[0, 0], [1, 1]]}, "control_points: "),
        ("rbf", {"control_points": [[0, 0], [1]],
                 "deformed_points": [[0, 0], [1, 1]]}, "control_points: "),
        ("rbf", {"control_points": [[0, 0], [1, 0], [0, 1]],
                 "deformed_points": [[0, 0], [1, 0], [0, 1]], "radius": "abc"},
         "radius: could not convert"),
        ("rbf", {"control_points": [[0, 0], [1, 0], [0, 1]],
                 "deformed_points": [[0, 0], [1, 0], [0, 1]], "radius": "nan"},
         "kernel radius must be positive"),
        ("idw", {"control_points": [[0, 0], [1, 1]],
                 "deformed_points": [[0, 0], [1, 1]], "exponent": "abc"},
         "exponent: invalid literal for int()"),
    ], ids=["missing-key", "degrees", "ragged-idw", "ragged-rbf", "radius",
            "radius-nan", "exponent"])
    def test_descriptor_value_exit_2(self, cloud, tmp_path, capsys, kind,
                                     descriptor, message):
        path, _ = cloud
        descriptor_path = tmp_path / "morph.json"
        descriptor_path.write_text(json.dumps(descriptor))
        out = tmp_path / "deformed.txt"
        assert _run(["morph", kind, str(path), str(descriptor_path),
                     "--out", str(out)]) == 2
        assert f"morph.json:1: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, descriptor, message", [
        ("idw", {"control_points": [[0, 0], [1, 1]],
                 "deformed_points": [[0, 0], [1, 1]]},
         "the morph is 2-d but the points are 3-d"),
        ("rbf", {"control_points": [[0, 0], [1, 0], [0, 1]],
                 "deformed_points": [[0, 0], [1, 0], [0, 1]]},
         "the morph is 2-d but the points are 3-d"),
        ("ffd", {"origin": [0, 0], "axes": [[1, 0], [0, 1]], "degrees": [1, 1],
                 "displacements": np.zeros((2, 2, 2)).tolist()},
         "the morph is 2-d but the points are 3-d"),
        ("ffd", {"origin": 5, "axes": [[1]], "degrees": [1],
                 "displacements": [[0], [0]]}, "origin must be a 1-d array"),
        ("idw", {"control_points": [[[0, 0, 0]], [[1, 1, 1]]],
                 "deformed_points": [[[0, 0, 0]], [[1, 1, 1]]]},
         "control and deformed points must be 2-d arrays, got 3-d and 3-d"),
        ("rbf", {"control_points": [[[0, 0, 0]], [[1, 0, 0]], [[0, 1, 0]],
                                    [[0, 0, 1]]],
                 "deformed_points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "control and deformed points must be 2-d arrays, got 3-d and 2-d"),
    ], ids=["idw-2d", "rbf-2d", "ffd-2d", "ffd-origin", "idw-nested",
            "rbf-nested"])
    def test_descriptor_that_does_not_fit_exit_2(self, tmp_path, capsys, kind,
                                                 descriptor, message):
        points = tmp_path / "cloud3d.txt"
        morphing.write_point_cloud(points, np.random.default_rng(5).random((20, 3)))
        descriptor_path = tmp_path / "morph.json"
        descriptor_path.write_text(json.dumps(descriptor))
        out = tmp_path / "deformed.txt"
        assert _run(["morph", kind, str(points), str(descriptor_path),
                     "--out", str(out)]) == 2
        assert f"morph.json:1: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_points_file_exit_2(self, tmp_path, capsys):
        descriptor = tmp_path / "morph.json"
        descriptor.write_text(json.dumps({
            "control_points": [[0.0, 0.0], [1.0, 1.0]],
            "deformed_points": [[0.0, 0.0], [1.0, 1.0]],
        }))
        out = tmp_path / "deformed.txt"
        assert _run(["morph", "idw", str(tmp_path / "missing.txt"),
                     str(descriptor), "--out", str(out)]) == 2
        assert "missing.txt:0: " in capsys.readouterr().err
        assert not out.exists()

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
        system, points, load_map = fom.assemble_gaussian_poisson(n=8)
        params = system.domain.sample(100, 42)
        values = np.column_stack([fom.gaussian_forcing(points, mu) for mu in params])
        basis = interpolation.eim_build(values, tol=1e-12, n_max=25)
        q = min(11, basis.size)
        sub = interpolation.EimBasis(
            basis=basis.basis[:, :q], magic_indices=basis.magic_indices[:q],
            error_history=basis.error_history[:q],
            selected_parameter_indices=basis.selected_parameter_indices[:q],
        )
        rows = []
        for mu in system.domain.sample(10, 43):
            exact = fom.solve_gaussian_poisson(system, points, load_map, mu)
            g = interpolation.eim_interpolate(
                sub, fom.gaussian_forcing(points[sub.magic_indices], mu))
            u = spla.spsolve(system.assemble_matrix(mu).tocsc(), load_map @ g)
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
        # counts below 1
        ("deim-demo", {"train-size": 0}),
        ("eim-demo", {"n-max": -3}),
        ("thermal-block", {"n-max": 0}),
        ("deim-demo", {"grid": 0}),
        # grids the problem builders reject
        ("thermal-block", {"grid": 3}),
        ("thermal-block", {"grid": 2}),
        ("eim-demo", {"grid": 2}),
        ("deim-demo", {"grid": 2, "train-size": 2}),
        # tolerances the builders reject or never meet
        ("eim-demo", {"tol": 0}),
        ("eim-demo", {"tol": -1}),
        ("eim-demo", {"tol": "nan"}),
        ("thermal-block", {"tol": -1}),
        ("thermal-block", {"tol": "nan"}),
        ("thermal-block", {"tol": "inf"}),
        # values read as the text the flag would take
        ("thermal-block", {"grid": 8.9}),
        ("eim-demo", {"seed": 1.7}),
        # JSON values no flag can spell, checked although --out overrides one
        ("thermal-block", {"out": None}),
        ("eim-demo", {"n-max": True}),
    ])
    def test_bad_config_key_or_value_exit_2(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert _run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config.json:1:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        (None, "grid: must be a number or a string, got null"),
        (False, "grid: must be a number or a string, got false"),
        ([8], "grid: must be a number or a string, got [8]"),
        ({"n": 8}, 'grid: must be a number or a string, got {"n": 8}'),
        (8.0, "grid: invalid literal for int() with base 10: '8.0'"),
    ], ids=["null", "bool", "array", "object", "float"])
    def test_config_value_message(self, tmp_path, capsys, value, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": value}))
        assert _run(["deim-demo", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"

    def test_missing_config_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(["asub-demo", "--config", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == 2
        assert "missing.json:0: " in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_match_the_flags(self, tmp_path):
        # a config number is read as the text of the same flag
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid": 6, "train-size": 8, "tol": 1e-3,
                                   "seed": 3}))
        assert _run(["eim-demo", "--config", str(cfg),
                     "--out", str(tmp_path / "config")]) == 0
        assert _run(["eim-demo", "--grid", "6", "--train-size", "8", "--tol",
                     "1e-3", "--seed", "3", "--out", str(tmp_path / "flags")]) == 0
        for name in ("eim_history.csv", "interp_solve_error.csv"):
            assert ((tmp_path / "config" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes())

    def test_eim_demo_takes_a_positive_tolerance(self, tmp_path):
        assert cli.positive_tolerance("0.1") == 0.1
        sizes = {}
        for tol in ("0.1", "1e-12"):
            out = tmp_path / tol
            assert _run(["eim-demo", "--grid", "6", "--train-size", "40",
                         "--tol", tol, "--out", str(out)]) == 0
            errors = [float(line.split(",")[1]) for line in
                      (out / "eim_history.csv").read_text().strip().split("\n")[1:]]
            sizes[tol] = len(errors)
        # the 0.1 run stops at the first error below 0.1; 1e-12 runs to n-max
        assert errors[sizes["0.1"] - 1] < 0.1 <= errors[sizes["0.1"] - 2]
        assert sizes["0.1"] < sizes["1e-12"] == 25

    def test_thermal_block_takes_zero_tolerance(self, tmp_path):
        # the greedy accepts 0: it then stops on the basis size cap
        assert _run(["thermal-block", "--grid", "4", "--train-size", "3",
                     "--n-max", "2", "--tol", "0",
                     "--out", str(tmp_path / "out")]) == 0

    def test_count_flag_below_one_exits_2(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            _run(["deim-demo", "--train-size", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "thermal-block --grid 3",  # odd: the interface must lie on a grid line
        "thermal-block --grid 2",
        "eim-demo --grid 2",
        "deim-demo --grid 2 --train-size 2",
        "eim-demo --grid 4 --train-size 5 --tol 0",
        "eim-demo --grid 4 --train-size 5 --tol -1",
        "eim-demo --grid 4 --train-size 5 --tol nan",
        "thermal-block --grid 4 --tol -1",
        "thermal-block --grid 4 --tol nan",
        "thermal-block --grid 4 --tol inf",
    ])
    def test_value_the_builder_rejects_exits_2(self, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            _run(argv.split() + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestUnwritableOutput:
    """An output path the program cannot write: exit 2, ``path:0:``, no traceback."""

    @pytest.mark.parametrize("command", ["thermal-block --grid 4",
                                         "eim-demo --grid 4 --train-size 5",
                                         "deim-demo --grid 4 --train-size 3",
                                         "asub-demo --train-size 10"])
    def test_output_directory_is_a_file(self, tmp_path, capsys, command):
        out = tmp_path / "F"
        out.write_text("kept\n")
        assert _run(command.split() + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}:0: File exists\n"
        assert captured.out == ""
        assert out.read_text() == "kept\n"

    def test_morph_into_missing_directory(self, tmp_path, capsys):
        points = tmp_path / "cloud.txt"
        morphing.write_point_cloud(points, np.random.default_rng(3).random((10, 2)))
        descriptor = tmp_path / "morph.json"
        descriptor.write_text(json.dumps({
            "control_points": [[0.0, 0.0], [1.0, 1.0]],
            "deformed_points": [[0.0, 0.1], [1.0, 1.0]],
        }))
        out = tmp_path / "missing_dir" / "x.txt"
        assert _run(["morph", "idw", str(points), str(descriptor),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}:0: No such file or directory\n"
        assert captured.out == ""
        assert not out.parent.exists()

    def test_rom_solve_into_missing_directory(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert _run(["thermal-block", "--grid", "4", "--train-size", "3",
                     "--out", str(run)]) == 0
        capsys.readouterr()
        out = tmp_path / "missing_dir" / "x.csv"
        assert _run(["rom", "solve", str(run / "rom"), "--mu", "0.3",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}:0: No such file or directory\n"
        assert "s_N" not in captured.out  # printed only after the file is written
        assert not out.parent.exists()


class TestThermalBlockCommand:
    ARGV = ["thermal-block", "--grid", "8", "--train-size", "10"]

    def test_files_byte_identical_at_any_cpu_count(self, tmp_path, set_cpus):
        trees = {}
        for cpus in (None, 1, 3):  # None: the CPUs the process may use
            if cpus is not None:
                set_cpus(cpus)
            out = tmp_path / f"cpus{cpus}"
            assert _run(self.ARGV + ["--out", str(out)]) == 0
            trees[cpus] = {path.relative_to(out): path.read_bytes()
                           for path in sorted(out.rglob("*")) if path.is_file()}
        assert len(trees[1]) == 4  # the two CSV files and the saved model's two
        assert trees[None] == trees[1]
        assert trees[3] == trees[1]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_truth_solve_per_point(self, tmp_path, monkeypatch, set_cpus,
                                       cpus):
        # the greedy's 2 basis solves, then the training and bound sweeps,
        # which run on one thread per CPU
        calls = []
        solve = fom.fom_solve

        def counted(system, mu):
            calls.append(threading.current_thread())
            return solve(system, mu)

        for module in (fom, rb):  # rb holds its own binding
            monkeypatch.setattr(module, "fom_solve", counted)
        set_cpus(cpus)
        out = tmp_path / "out"
        assert _run(self.ARGV + ["--out", str(out)]) == 0
        history = (out / "greedy_history.csv").read_text().strip().split("\n")
        assert history[-1].startswith("2,")
        assert len(calls) == 2 + 10 + 20
        helped = sum(thread is not threading.main_thread() for thread in calls)
        assert (helped > 0) == (cpus > 1)


class TestDeclaredFlags:
    # the flags every subcommand once took and these do not read
    @pytest.mark.parametrize("command, flag", (
        [("deim-demo", flag) for flag in ("--tol", "--n-max")]
        + [("asub-demo", flag) for flag in ("--grid", "--tol", "--n-max")]
        + [(command, flag) for command in ("morph idw cloud.txt morph.json",
                                           "rom solve model --mu 0.3")
           for flag in ("--grid", "--train-size", "--tol", "--n-max", "--seed")]
        # rom load reads only the model; it once took these and ignored them
        + [("rom load model", flag) for flag in ("--mu", "--out", "--config")]
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

    @pytest.fixture(scope="class")
    def model_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("rom") / "run"
        assert _run(["thermal-block", "--grid", "8", "--train-size", "10",
                     "--out", str(out)]) == 0
        return out / "rom"

    # two values for the one parameter, a value outside (0, 1), no number
    @pytest.mark.parametrize("mu", ["0.3 0.4", "1.5", "abc"])
    def test_solve_bad_mu_exits_2(self, model_dir, tmp_path, capsys, mu):
        coeff_out = tmp_path / "coeff.csv"
        argv = ["rom", "solve", str(model_dir), "--mu", *mu.split(),
                "--out", str(coeff_out)]
        try:
            code = _run(argv)
        except SystemExit as exc:  # argparse rejects a value that is no number
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "s_N" not in captured.out
        assert not coeff_out.exists()
