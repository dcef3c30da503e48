"""The four benchmark workloads and the loops that time them.

Every workload calls morkit only through its public module attributes, so
the tracer's wrappers see each call. Inputs come from the seed alone. Each
CLI subcommand, offline build, Newton solve and online query is one
operation; it fails when it raises, exits nonzero or fails its check. The
reference values the checks need are computed before timing starts, so no
check adds calls to a traced layer.
"""

import contextlib
import dataclasses
import functools
import io
import json
import os
import statistics
import sys
import time
import traceback

import numpy as np

from morkit import (active_subspaces, certification, cli, fom, interpolation,
                    morphing, rb)


class CheckFailed(Exception):
    """An output of morkit is wrong."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Attempted and failed operations, plus in-process CLI wall time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cli_s = 0.0

    def run(self, label, fn, *args):
        """One operation: returns fn's result, or None when it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation {label} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def cli(self, argv):
        """Run one subcommand through ``cli.main``; returns its stdout."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        self.cli_s += time.perf_counter() - start
        check(code == 0, f"morkit {' '.join(argv)} exited {code}: {err.getvalue()}")
        return out.getvalue()


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class _Workload:
    """Inputs from the seed, an assembled problem and the built model.

    A workload provides ``generate`` (inputs, untimed), ``assemble`` (timed as
    set-up), ``prepare`` (reference values, untimed), ``cli_commands``,
    ``offline``, ``query`` and ``check_query``.
    """

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.model = None

    def quality(self):
        """Accuracy figures of the last run, reported with the layers."""
        return {}


# ---------------------------------------------------------------------------
# certified reduced basis: thermal-cli and greedy-online


class _Certified(_Workload):
    """Certified greedy offline phase and certified online queries."""

    rigor_checks = 10  # queries checked against fom_solve

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.unit_queries = rng.random(self.size["pool"])

    def prepare(self):
        lo, hi = self.system.domain.lower[0], self.system.domain.upper[0]
        self.query_mus = lo + (hi - lo) * self.unit_queries[:, None]
        self.truth = [fom.fom_solve(self.system, mu)
                      for mu in self.query_mus[: self.rigor_checks]]
        self.bound_max = 0.0

    def offline(self, ops):
        # a fresh copy holds no cached gram factorization, as after assembly
        system = dataclasses.replace(self.system)
        model = certification.build_coercivity_model(
            system, np.array([0.5]), check_terms=False)
        estimator = certification.CertifiedErrorEstimator(model=model)
        basis = rb.greedy(system, list(system.domain.uniform_grid(self.size["train"])),
                          tol=1e-6, mu1=np.array([0.5]), n_max=15,
                          estimator=estimator)
        romsys = rb.project(system, basis)
        residual = certification.riesz_offline(system, basis)
        return system, model, romsys, residual

    def query(self, i):
        system, model, romsys, residual = self.model
        mu = self.query_mus[i % len(self.query_mus)]
        u_n, s_n = rb.rom_solve(romsys, mu)
        d_en, d_s = certification.error_bounds(residual, model, system, romsys, mu)
        return u_n, s_n, d_en, d_s

    def check_query(self, i, result):
        u_n, s_n, d_en, d_s = result
        check(np.isfinite(d_en) and np.isfinite(d_s), "non-finite error bound")
        self.bound_max = max(self.bound_max, float(d_en))
        if i >= len(self.truth):
            return
        system, _, romsys, _ = self.model
        truth = self.truth[i]
        e = truth.coefficients - romsys.basis.basis @ u_n
        energy = float(np.sqrt(max(e @ (system.assemble_matrix(truth.mu) @ e), 0.0)))
        gap = abs(truth.output - s_n)
        check(d_en >= energy * (1.0 - 1e-10),
              f"Delta_en {d_en:.3e} below the energy error {energy:.3e} at {truth.mu}")
        # fom_solve accepts a relative residual of 1e-10, so the truth output
        # is no more exact than that; near convergence Delta_s is far below it
        check(d_s >= gap - 1e-10 * abs(truth.output),
              f"Delta_s {d_s:.3e} below the output error {gap:.3e} at {truth.mu}")

    def _rom_solve_cli(self, ops, rom_dir):
        truth = self.truth[0]
        out = ops.cli(["rom", "solve", rom_dir, "--mu", repr(float(truth.mu[0]))])
        s_n = float(out.split("=")[-1])
        check(abs(s_n - truth.output) <= 1e-6 * abs(truth.output),
              f"rom solve output {s_n!r} against truth {truth.output!r}")

    def quality(self):
        return {"rb_size": self.model[2].size, "cert_bound_max": self.bound_max}


class ThermalCli(_Certified):
    """Certified thermal block through the CLI; the greedy stops at N = 2."""

    name = "thermal-cli"
    per_round = (2, 1, 0.4)
    trace_queries = 2000

    def assemble(self):
        self.system = fom.assemble_thermal_block(n=self.size["grid"])

    def cli_commands(self):
        out = os.path.join(self.workdir, "thermal")
        return [("thermal-block", functools.partial(self._thermal_block, out=out)),
                ("rom solve", functools.partial(self._rom_solve_cli,
                                                rom_dir=os.path.join(out, "rom")))]

    def _thermal_block(self, ops, out):
        ops.cli(["thermal-block", "--grid", str(self.size["grid"]),
                 "--train-size", str(self.size["train"]), "--seed", str(self.seed),
                 "--out", out])
        history = _read_csv(os.path.join(out, "greedy_history.csv"))
        check(history[-1, 1] <= 1e-6, f"greedy stopped at bound {history[-1, 1]:.3e}")
        sweep = _read_csv(os.path.join(out, "bound_sweep.csv"))
        check(np.all(np.isfinite(sweep)), "non-finite bound sweep")


class GreedyOnline(_Certified):
    """Certified greedy on a 2-D flux load, then certified online queries."""

    name = "greedy-online"
    per_round = (1, 10, 0.4)
    trace_queries = 2000

    def generate(self):
        super().generate()
        rng = np.random.default_rng([self.seed, 1])
        self.flux_amplitudes = rng.uniform(-0.5, 0.5, 4)

    def assemble(self):
        base = fom.assemble_thermal_block(n=self.size["grid"])
        # the base load is a unit flux on the x = 0 edge, so scaling it by
        # g(y) gives the edge load of flux g: the solution varies in y
        y = base.nodes[:, 1]
        modes = np.cos(np.pi * np.outer(y, np.arange(1, 5)))
        load = base.rhs_terms[0] * (1.0 + modes @ self.flux_amplitudes)
        self.system = fom.AffineSystem(
            matrix_terms=base.matrix_terms, rhs_terms=[load],
            theta_a=base.theta_a, theta_f=base.theta_f, gram=base.gram,
            domain=base.domain, theta_name=base.theta_name, nodes=base.nodes)
        self._saved = None

    def cli_commands(self):
        return [("rom solve", self._rom_solve_saved)]

    def _rom_solve_saved(self, ops):
        rom_dir = os.path.join(self.workdir, "rom")
        if self._saved is not self.model:
            rb.save_rom(self.model[2], rom_dir)
            self._saved = self.model
        self._rom_solve_cli(ops, rom_dir)


# ---------------------------------------------------------------------------
# interpolation: EIM through the CLI, MDEIM hyper-reduced Newton


class Interp(_Workload):
    """EIM demo, then MDEIM of a nonlinear problem and hyper-reduced solves."""

    name = "interp"
    per_round = (1, 1, 0.3)
    trace_queries = 20

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.unit_snapshots = rng.random((self.size["snapshots"], 2))
        self.unit_tests = rng.random((self.size["tests"], 2))

    def assemble(self):
        self.problem = fom.NonlinearFom(n=self.size["nonlinear_grid"])

    def prepare(self):
        domain = self.problem.domain
        scale = domain.upper - domain.lower
        self.snapshot_mus = domain.lower + scale * self.unit_snapshots
        self.test_mus = domain.lower + scale * self.unit_tests
        self.truth = [fom.nonlinear_solve(self.problem, mu) for mu in self.test_mus]
        self.err_max = 0.0

    def cli_commands(self):
        return [("eim-demo", self._eim_demo)]

    def _eim_demo(self, ops):
        out = os.path.join(self.workdir, "eim")
        ops.cli(["eim-demo", "--grid", str(self.size["eim_grid"]),
                 "--train-size", str(self.size["eim_train"]),
                 "--seed", str(self.seed), "--out", out])
        # the slow decay of this family is known; only the contract is checked
        eps = _read_csv(os.path.join(out, "eim_history.csv"))[:, 1]
        check(np.all(eps[1:] <= eps[:-1] * (1.0 + 1e-12)), "EIM history increases")
        errors = _read_csv(os.path.join(out, "interp_solve_error.csv"))[:, 2]
        check(np.all(np.isfinite(errors)), "non-finite interpolated solve error")

    def offline(self, ops):
        a_snaps, c_snaps = [], []
        for mu in self.snapshot_mus:
            u = ops.run("newton", fom.nonlinear_solve, self.problem, mu)
            if u is None:
                continue
            a, c = self.problem.operator_snapshot(u, mu)
            a_snaps.append(a)
            c_snaps.append(c)
        return interpolation.mdeim_build(a_snaps), interpolation.mdeim_build(c_snaps)

    def query(self, i):
        a_basis, c_basis = self.model
        mu = self.test_mus[i % len(self.test_mus)]
        return interpolation.mdeim_nonlinear_solve(self.problem, a_basis, c_basis, mu)

    def check_query(self, i, u):
        truth = self.truth[i % len(self.truth)]
        err = float(np.linalg.norm(u - truth) / np.linalg.norm(truth))
        self.err_max = max(self.err_max, err)
        check(err <= 1e-2, f"hyper-reduced relative error {err:.3e}")

    def quality(self):
        return {"hyper_rel_err_max": self.err_max}


# ---------------------------------------------------------------------------
# geometry: morph subcommands on a point cloud file, active subspaces


class Geometry(_Workload):
    """Morph a 3-D cloud through the CLI, then re-deform it online."""

    name = "geometry"
    per_round = (1, 1, 0.35)
    trace_queries = 40
    pool = 16  # distinct control displacements cycled by the online queries
    checked = 16  # online queries whose output is checked

    def generate(self):
        rng = np.random.default_rng(self.seed)
        n, n_ctrl = self.size["points"], self.size["controls"]
        self.points_in = rng.random((n, 3))
        self.ctrl_index = rng.choice(n, n_ctrl, replace=False)
        ctrl = self.points_in[self.ctrl_index]
        lattice = {"origin": [0.25] * 3, "axes": (0.5 * np.eye(3)).tolist(),
                   "degrees": [3, 3, 3]}
        self.ffd_pool = 0.05 * rng.standard_normal((self.pool, 4, 4, 4, 3))
        self.target_pool = ctrl + 0.05 * rng.standard_normal((self.pool, n_ctrl, 3))
        self.descriptors = {
            # the default gaussian kernel misses the controls by ~5e-5 here
            "rbf": {"type": "rbf", "kernel": "thin-plate", "control_points": ctrl.tolist(),
                    "deformed_points": self.target_pool[0].tolist()},
            "idw": {"type": "idw", "control_points": ctrl.tolist(),
                    "deformed_points": self.target_pool[0].tolist()},
            "ffd": dict(lattice, type="ffd", displacements=self.ffd_pool[0].tolist()),
        }
        self.cloud = os.path.join(self.workdir, "cloud.txt")
        if os.path.exists(self.cloud):  # written by an earlier child of this run
            return
        np.savetxt(self.cloud, self.points_in, fmt="%.17g")
        for kind, descriptor in self.descriptors.items():
            with open(os.path.join(self.workdir, f"{kind}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(descriptor, fh)

    def assemble(self):
        self.points = morphing.read_point_cloud(self.cloud)
        self.morphs = {kind: morphing.morph_from_descriptor(d)
                       for kind, d in self.descriptors.items()}

    def prepare(self):
        lattice = self.morphs["ffd"]
        local = (self.points - lattice.origin) @ np.linalg.inv(lattice.axes).T
        self.outside = ~np.all((local >= -1e-12) & (local <= 1.0 + 1e-12), axis=1)
        check(self.outside.any() and not self.outside.all(),
              "lattice must hold some points and miss others")

    def cli_commands(self):
        return [(f"morph {kind}", functools.partial(self._morph, kind=kind))
                for kind in ("rbf", "idw", "ffd")] + [("asub-demo", self._asub)]

    def _morph(self, ops, kind):
        out = os.path.join(self.workdir, f"{kind}_out.txt")
        ops.cli(["morph", kind, self.cloud, os.path.join(self.workdir, f"{kind}.json"),
                 "--out", out])
        deformed = np.loadtxt(out, ndmin=2)
        check(deformed.shape == self.points.shape, f"morph {kind} output shape")
        self._check_deformed(kind, deformed, 0)

    def _check_deformed(self, kind, deformed, q):
        if kind == "ffd":
            check(np.array_equal(deformed[self.outside], self.points[self.outside]),
                  "FFD moved a point outside its lattice")
        else:
            err = np.abs(deformed[self.ctrl_index] - self.target_pool[q]).max()
            check(err <= 1e-9, f"{kind} control point off its target by {err:.3e}")

    def _asub(self, ops):
        out = os.path.join(self.workdir, "asub")
        ops.cli(["asub-demo", "--train-size", str(self.size["asub_train"]),
                 "--seed", str(self.seed), "--out", out])
        lam = _read_csv(os.path.join(out, "eigenvalues.csv"))[:, 1]
        expected = active_subspaces.QUADRATIC_SCALES ** 2 / 3.0
        rel = np.abs(lam - expected) / expected
        check(rel.max() <= 0.05, f"active-subspace eigenvalues off by {rel.max():.1%}")

    def offline(self, ops):
        ffd = morphing.ffd_weights(self.morphs["ffd"], self.points)
        idw = morphing.idw_weights(self.morphs["idw"], self.points)
        return ffd, idw

    def query(self, i):
        ffd_weights, idw_weights = self.model
        q = i % self.pool
        base = self.morphs["ffd"]
        lattice = morphing.FfdLattice(base.origin, base.axes, base.degrees,
                                      self.ffd_pool[q])
        idw = morphing.IdwMorph(self.morphs["idw"].control_points, self.target_pool[q])
        return (q, morphing.ffd_deform(lattice, self.points, ffd_weights),
                morphing.idw_deform(idw, self.points, idw_weights))

    def check_query(self, i, result):
        if i < self.checked:
            q, ffd, idw = result
            self._check_deformed("ffd", ffd, q)
            self._check_deformed("idw", idw, q)

WORKLOADS = {w.name: w for w in (ThermalCli, GreedyOnline, Interp, Geometry)}

SIZES = {
    "full": {
        "thermal-cli": {"grid": 64, "train": 50, "pool": 4096},
        "greedy-online": {"grid": 128, "train": 500, "pool": 20000},
        "interp": {"eim_grid": 64, "eim_train": 400, "nonlinear_grid": 16,
                   "snapshots": 30, "tests": 60},
        "geometry": {"points": 50000, "controls": 100, "asub_train": 50000},
    },
    "smoke": {
        "thermal-cli": {"grid": 8, "train": 10, "pool": 64},
        "greedy-online": {"grid": 16, "train": 20, "pool": 64},
        "interp": {"eim_grid": 8, "eim_train": 20, "nonlinear_grid": 6,
                   "snapshots": 20, "tests": 3},
        "geometry": {"points": 2000, "controls": 20, "asub_train": 20000},
    },
}


# ---------------------------------------------------------------------------
# measurement loops


def measure(wl, ops, seconds, smoke):
    """Timed run in rounds until the seconds are spent and each subcommand ran twice.

    A round is ``wl.per_round[0]`` offline builds, the next
    ``wl.per_round[1]`` CLI subcommands in rotation, then closed-loop queries
    for the share ``wl.per_round[2]`` of the round. Interleaving spreads every
    metric's samples over the whole run, so a slow spell of a shared machine
    does not land on one metric alone. ``cli_s`` is the sum over subcommands
    of each one's median time: the time of one pass over all of them.
    """
    n_offline, n_cli, online_share = (1, 1, 0.3) if smoke else wl.per_round
    commands = wl.cli_commands()
    cli_times = {label: [] for label, _ in commands}
    offline_times, latencies = [], []
    start = time.perf_counter()
    i = k = 0
    last_round = 0.0
    while (min(map(len, cli_times.values())) < 2
           or time.perf_counter() + last_round <= start + seconds):
        round_start = time.perf_counter()
        for _ in range(n_offline):
            t0 = time.perf_counter()
            model = ops.run("offline", wl.offline, ops)
            offline_times.append(time.perf_counter() - t0)
            if model is not None:
                wl.model = model
        if wl.model is None:
            raise RuntimeError("no offline build succeeded")
        for _ in range(n_cli):
            label, command = commands[k % len(commands)]
            k += 1
            before = ops.cli_s
            ops.run(label, command, ops)
            cli_times[label].append(ops.cli_s - before)
        busy = time.perf_counter() - round_start
        end = time.perf_counter() + busy * online_share / (1.0 - online_share)
        while time.perf_counter() < end:
            ops.attempted += 1
            try:
                t0 = time.perf_counter()
                result = wl.query(i)
                elapsed = time.perf_counter() - t0
                wl.check_query(i, result)
                latencies.append(elapsed)
            except Exception:
                ops.failed += 1
                print(f"query {i} failed:", file=sys.stderr)
                traceback.print_exc()
            i += 1
        last_round = time.perf_counter() - round_start
    if len(latencies) < 10:
        raise RuntimeError("fewer than ten online queries succeeded")
    us = [t * 1e6 for t in latencies]
    metrics = {
        "cli_s": sum(statistics.median(t) for t in cli_times.values()),
        "offline_s": statistics.median(offline_times),
        "online_us_p50": statistics.median(us),
    }
    # throughput (one over the mean) and the tail follow how long the shared
    # machine ran slow more than the program: ten-run spreads reached 20% and
    # 33%, against 13% for the median, so they are shown, not bounded
    cuts = statistics.quantiles(us, n=100)
    shown = {"online_queries": len(us), "online_qps": len(us) / sum(latencies),
             "online_us_p90": cuts[89], "online_us_p99": cuts[98]}
    return metrics, shown


def _query_and_check(wl, i):
    wl.check_query(i, wl.query(i))


def fixed_pass(wl, ops, queries):
    """Assembly, one offline build, one CLI pass and a fixed number of queries."""
    wl.assemble()
    model = ops.run("offline", wl.offline, ops)
    if model is None:
        raise RuntimeError("offline build failed")
    wl.model = model
    for label, command in wl.cli_commands():
        ops.run(label, command, ops)
    for i in range(queries):
        ops.run(f"query {i}", _query_and_check, wl, i)
