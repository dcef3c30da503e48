"""Command-line front end for the reduction toolkit.

Subcommands cover the certified thermal-block reduction, the empirical
interpolation demos, the active-subspace demo, geometry morphing of point
cloud files, and reduced-model serialization. All runs are deterministic
under a fixed ``--seed``.
"""

import argparse
import json
import os
import sys

import numpy as np
import scipy.sparse.linalg as spla

from . import active_subspaces as asub
from . import certification, fom, interpolation, morphing, rb


def _load_json_descriptor(path):
    """Parse a JSON object file; any failure raises a ``path:line:`` error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _DescriptorError(path, exc.lineno, exc.msg)
    except OSError as exc:
        raise _DescriptorError(path, 0, str(exc))
    if not isinstance(data, dict):
        raise _DescriptorError(path, 1, "top-level value must be an object")
    return data


class _DescriptorError(Exception):
    """Malformed JSON descriptor or config, with a line-numbered message."""

    def __init__(self, path, lineno, msg):
        super().__init__(f"{path}:{lineno}: {msg}")


# the options each subcommand reads, with their defaults; a flag beats the
# same key in the --config file, which beats the default
_OPTIONS = {
    "thermal-block": {"grid": 32, "train-size": 50, "tol": 1e-6, "n-max": 15,
                      "out": "thermal_block_out"},
    "eim-demo": {"grid": 24, "train-size": 100, "tol": 1e-12, "n-max": 25,
                 "seed": 42, "out": "eim_out"},
    "deim-demo": {"grid": 12, "train-size": 30, "seed": 42, "out": "deim_out"},
    "asub-demo": {"train-size": 2000, "seed": 42, "out": "asub_out"},
    "morph": {"out": "deformed_points.txt"},
    "rom": {"out": None},
}

def positive_int(text):
    """The type of the count options: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def grid_size(text):
    """The type of ``--grid``: the problem builders need at least 3 cells."""
    value = int(text)
    if value < 3:
        raise ValueError(f"must be at least 3, got {value}")
    return value


def even_grid_size(text):
    """thermal-block's ``--grid``: even, so the interface lies on a grid line."""
    value = grid_size(text)
    if value % 2:
        raise ValueError(f"must be even, got {value}")
    return value


def tolerance(text):
    """The type of ``--tol``: a finite number of at least 0."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"must be a finite number of at least 0, got {value}")
    return value


def positive_tolerance(text):
    """eim-demo's ``--tol``: the interpolation greedy needs one above 0."""
    value = tolerance(text)
    if value == 0.0:
        raise ValueError(f"must be above 0, got {value}")
    return value


# the type and help of each option, by name or by (command, name) where a
# command narrows it
_OPTION_TYPES = {
    "grid": (grid_size, "full-order grid resolution per direction"),
    ("thermal-block", "grid"): (even_grid_size,
                                "full-order grid resolution per direction, even"),
    "train-size": (positive_int, "training sample count"),
    "tol": (tolerance, "stopping tolerance"),
    ("eim-demo", "tol"): (positive_tolerance, "stopping tolerance, above 0"),
    "n-max": (positive_int, "maximum basis size"),
    "seed": (int, "random seed"),
    "out": (str, "output directory or file"),
}


def _option_type(command, key):
    return _OPTION_TYPES.get((command, key)) or _OPTION_TYPES[key]


def _resolve_options(args):
    """Fill each option the command line left unset from the config, else its default.

    Every config value is read as the text its flag would take, so 8.9 is no
    grid size, and is checked even where a flag overrides it.
    """
    options = _OPTIONS[args.command]
    cfg = {} if args.config is None else _load_json_descriptor(args.config)
    for key, raw in cfg.items():
        if key not in options:
            raise _DescriptorError(args.config, 1,
                                   f"{args.command} takes no option {key!r}")
        try:
            if raw is None or isinstance(raw, (bool, list, dict)):
                raise TypeError(f"must be a number or a string, got {json.dumps(raw)}")
            cfg[key] = _option_type(args.command, key)[0](str(raw))
        except (TypeError, ValueError) as exc:
            raise _DescriptorError(args.config, 1, f"{key}: {exc}")
    for key, default in options.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, cfg.get(key, default))


# ---------------------------------------------------------------------------
# subcommands


def _run_thermal_block(args):
    os.makedirs(args.out, exist_ok=True)
    system = fom.assemble_thermal_block(n=args.grid)
    training = list(system.domain.uniform_grid(args.train_size))
    model = certification.build_coercivity_model(
        system, np.array([0.5]), check_terms=False
    )
    estimator = certification.CertifiedErrorEstimator(model=model)
    basis = rb.greedy(system, training, tol=args.tol, mu1=np.array([0.5]),
                      n_max=args.n_max, estimator=estimator)
    romsys = rb.project(system, basis)
    # keep the final basis's residual data; the estimator's Riesz data is
    # full-order sized, so it goes before the truth sweep
    offline = estimator.offline
    del estimator

    # per-iteration history with the true worst-case error for reference
    history_rows = []
    for size, max_delta in basis.history:
        history_rows.append((size, max_delta, np.nan))
    errors = []
    for mu, truth in zip(training, fom.fom_solve_many(system, training)):
        u_n, _ = rb.rom_solve(romsys, mu)
        e = truth.coefficients - rb.lift(basis, u_n)
        errors.append(system.gram_norm(e))
    history_rows[-1] = (basis.size, basis.history[-1][1], max(errors))
    fom.write_csv(os.path.join(args.out, "greedy_history.csv"),
                  "N,max_delta,max_true_error", history_rows)

    sweep = []
    sweep_mus = system.domain.uniform_grid(20)
    for mu, truth in zip(sweep_mus, fom.fom_solve_many(system, sweep_mus)):
        u_n, s_n = rb.rom_solve(romsys, mu)
        d_en, d_s = certification.error_bounds(offline, model, system, romsys, mu)
        e = truth.coefficients - rb.lift(basis, u_n)
        err = system.gram_norm(e)
        eff = d_en / err if err > 0 else np.inf
        sweep.append((float(mu[0]), d_en, err, eff, d_s))
    fom.write_csv(os.path.join(args.out, "bound_sweep.csv"),
                  "mu,delta_en,true_error,effectivity,delta_s", sweep)

    rb.save_rom(romsys, os.path.join(args.out, "rom"))
    print(f"basis size {basis.size}, final max bound {basis.history[-1][1]:.3e}")
    print(f"outputs written to {args.out}")
    return 0


def _run_eim_demo(args):
    os.makedirs(args.out, exist_ok=True)
    system, points, load_map = fom.assemble_gaussian_poisson(n=args.grid)
    params = system.domain.sample(args.train_size, args.seed)
    values = np.column_stack([fom.gaussian_forcing(points, mu) for mu in params])
    basis = interpolation.eim_build(values, tol=args.tol, n_max=args.n_max)

    fom.write_csv(os.path.join(args.out, "eim_history.csv"), "q,epsilon",
                  [(q + 1, e) for q, e in enumerate(basis.error_history)])
    interpolation.export_eim_basis(basis, args.out, points)

    # full-size solves with the EIM-interpolated load against those with the
    # exact load; the stiffness is one term of weight 1, so one LU serves all
    test_params = system.domain.sample(10, args.seed + 1)
    solve = spla.factorized(system.assemble_matrix(test_params[0]).tocsc())
    q_use = min(11, basis.size)
    sub = interpolation.EimBasis(
        basis=basis.basis[:, :q_use],
        magic_indices=basis.magic_indices[:q_use],
        error_history=basis.error_history[:q_use],
        selected_parameter_indices=basis.selected_parameter_indices[:q_use],
    )
    rows = []
    for mu in test_params:
        exact = solve(load_map @ fom.gaussian_forcing(points, mu))
        g_at_magic = fom.gaussian_forcing(points[sub.magic_indices], mu)
        g_interp = interpolation.eim_interpolate(sub, g_at_magic)
        u = solve(load_map @ g_interp)
        err = system.gram_norm(u - exact)
        rows.append((float(mu[0]), float(mu[1]), err))
    fom.write_csv(os.path.join(args.out, "interp_solve_error.csv"), "mu_1,mu_2,error",
                  rows)
    print(f"interpolation basis size {basis.size}, outputs written to {args.out}")
    return 0


def _run_deim_demo(args):
    os.makedirs(args.out, exist_ok=True)
    problem = fom.NonlinearFom(n=args.grid)
    params = problem.domain.sample(args.train_size, args.seed)
    a_snaps = []
    c_snaps = []
    for mu in params:
        a, c = problem.operator_snapshot(fom.nonlinear_solve(problem, mu), mu)
        a_snaps.append(a)
        c_snaps.append(c)
    # held-out operators, solved once for every term count
    test_ops = [problem.operator_snapshot(fom.nonlinear_solve(problem, mu), mu)
                for mu in problem.domain.sample(5, args.seed + 1)]

    rows = []
    for n_terms in (2, 4, 6, 8, 10):
        a_basis = interpolation.mdeim_build(a_snaps, tol=0.0, n_max=n_terms)
        c_basis = interpolation.mdeim_build(c_snaps, tol=0.0, n_max=n_terms)
        errs = []
        for a, c in test_ops:
            a_rec = interpolation.mdeim_reconstruct(a_basis, a)
            c_rec = interpolation.mdeim_reconstruct(c_basis, c)
            num = spla.norm(a - a_rec) + spla.norm(c - c_rec)
            den = spla.norm(a) + spla.norm(c)
            errs.append(num / den)
        rows.append((n_terms, max(errs)))
    fom.write_csv(os.path.join(args.out, "mdeim_decay.csv"), "n_terms,max_error", rows)
    print(f"operator interpolation decay written to {args.out}")
    return 0


def _run_asub_demo(args):
    os.makedirs(args.out, exist_ok=True)
    domain = fom.ParamDomain([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    samples = asub.sample_gradients(
        asub.quadratic_form, domain, args.train_size, args.seed,
        grad=asub.quadratic_form_grad,
    )
    subspace = asub.estimate_subspace(samples)
    fom.write_csv(os.path.join(args.out, "eigenvalues.csv"), "index,lambda",
                  [(i + 1, lam) for i, lam in enumerate(subspace.eigenvalues)])
    asub.export_summary_csv(os.path.join(args.out, "summary.csv"), subspace, samples)
    print(
        f"active dimension {subspace.active_dim}, "
        f"gap ratio {subspace.gap_ratio:.3g}, outputs written to {args.out}"
    )
    return 0


def _run_morph(args):
    try:
        points = morphing.read_point_cloud(args.points)
    except (OSError, ValueError) as exc:
        raise _DescriptorError(args.points, 0, str(exc))
    descriptor = _load_json_descriptor(args.descriptor)
    if descriptor.get("type") not in (None, args.kind):
        raise _DescriptorError(
            args.descriptor, 1,
            f"descriptor type {descriptor.get('type')!r} does not match "
            f"subcommand {args.kind!r}",
        )
    descriptor["type"] = args.kind
    try:
        morph = morphing.morph_from_descriptor(descriptor)
        deformed = morphing.deform(morph, points)
    except morphing.MorphBuildError as exc:
        raise _DescriptorError(args.descriptor, 1, str(exc))
    morphing.write_point_cloud(args.out, deformed)
    disp = np.linalg.norm(deformed - points, axis=1)
    summary = {
        "points": int(points.shape[0]),
        "max_displacement": float(disp.max()) if disp.size else 0.0,
        "output": args.out,
    }
    print(json.dumps(summary, indent=2))
    return 0


def _run_rom(args):
    directory = args.model_dir
    try:
        romsys = rb.load_rom(directory)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        lineno = getattr(exc, "lineno", 0)
        raise _DescriptorError(directory, lineno, str(exc))
    if args.action == "load":
        print(
            f"reduced model of size {romsys.size} "
            f"(q_a={len(romsys.reduced_matrix_terms)}, "
            f"q_f={len(romsys.reduced_rhs_terms)}, theta={romsys.theta_name})"
        )
        return 0
    # solve
    mu = np.array(args.mu)
    try:
        u_n, s_n = rb.rom_solve(romsys, mu)
    except ValueError as exc:
        print(f"error: --mu: {exc}", file=sys.stderr)
        return 2
    if args.out:
        fom.write_csv(args.out, "index,coefficient",
                      [(k + 1, v) for k, v in enumerate(u_n)])
    print(f"s_N({mu.tolist()}) = {s_n:.17g}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_options(p, command):
    """The subcommand's options from ``_OPTIONS``, plus ``--config``."""
    for key, default in _OPTIONS[command].items():
        kind, text = _option_type(command, key)
        if default is not None:
            text = f"{text} (default {default})"
        p.add_argument(f"--{key}", type=kind, default=None, help=text)
    p.add_argument("--config", default=None,
                   help="JSON config file of these options; explicit flags take "
                        "precedence")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morkit",
        description="Projection-based model reduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermal-block",
                       help="certified greedy reduction of the two-material block")
    _add_options(p, "thermal-block")
    # nothing reads it: the build draws no random numbers
    p.add_argument("--seed", type=int, default=None,
                   help="ignored; accepted only because perfbench passes it")
    p.set_defaults(func=_run_thermal_block)

    p = sub.add_parser("eim-demo",
                       help="empirical interpolation of a parametrized source")
    _add_options(p, "eim-demo")
    p.set_defaults(func=_run_eim_demo)

    p = sub.add_parser("deim-demo",
                       help="operator interpolation on the nonlinear problem")
    _add_options(p, "deim-demo")
    p.set_defaults(func=_run_deim_demo)

    p = sub.add_parser("asub-demo", help="active subspace of a quadratic model")
    _add_options(p, "asub-demo")
    p.set_defaults(func=_run_asub_demo)

    p = sub.add_parser("morph", help="deform a point cloud file")
    p.add_argument("kind", choices=("ffd", "rbf", "idw"))
    p.add_argument("points", help="whitespace-delimited point cloud file")
    p.add_argument("descriptor", help="JSON morph descriptor")
    _add_options(p, "morph")
    p.set_defaults(func=_run_morph)

    rom = sub.add_parser("rom", help="load or solve a reduced model that "
                                     "thermal-block saved").add_subparsers(
        dest="action", required=True)
    p = rom.add_parser("load", help="print the saved model's sizes")
    p.add_argument("model_dir", help="model directory")
    p.set_defaults(func=_run_rom)
    p = rom.add_parser("solve", help="solve the reduced model at one parameter")
    p.add_argument("model_dir", help="model directory")
    p.add_argument("--mu", nargs="+", type=float, required=True,
                   help="parameter point")
    _add_options(p, "rom")
    p.set_defaults(func=_run_rom)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "config" in args:  # rom load declares no options
            _resolve_options(args)
        return args.func(args)
    except _DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path; each read reports its own
        where = f"{exc.filename}:0: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
