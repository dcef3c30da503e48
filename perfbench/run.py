"""Benchmark of morkit, measured from outside the library.

Usage (from the repository root):

    python3 perfbench/run.py --workload greedy-online --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25     # every workload, as a table
    python3 perfbench/run.py --workload interp --smoke ...   # tiny sizes, for the smoke test

Each run starts fresh child processes with one BLAS thread set in their
environment before numpy loads: a few that only import morkit and assemble
the workload's problem (the set-up time is their median), and one that then
measures. With ``--trace 0`` the child reports the end-to-end metrics; with
``--trace 1`` it runs one fixed pass to warm up, the same pass untraced and
again with every traced function wrapped, and reports the per-layer metrics. The last line of
standard output is one JSON object; everything before it is for people.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("thermal-cli", "greedy-online", "interp", "geometry")
BLAS_THREADS = "1"  # one thread: two gave run-to-run spreads near 35%
SETUP_CHILDREN = 4  # set-up-only children; the measuring child adds one more
DEADLINE_S = 170.0  # every run ends well inside 180 s

def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args, mode, workdir, deadline):
    """Run one child to completion and return the JSON it wrote."""
    result = Path(workdir) / f"result-{mode}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the child started")
    # the child's stdout carries nothing of the result; keep ours clean
    proc = subprocess.run(cmd, env=_child_env(), stdout=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(args):
    """All children of one run; returns the result object to print."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = []
        for _ in range(0 if args.trace else 1 if args.smoke else SETUP_CHILDREN):
            setups.append(_spawn(args, "setup", workdir, deadline)["setup_s"])
        child = _spawn(args, "measure", workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(child["setup_s"])
    if args.trace:
        metrics = child["layers"]
    else:
        metrics = dict(child["metrics"], setup_s=statistics.median(setups),
                       peak_rss_mb=child["peak_rss_mb"])
    return child, metrics


def _units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _print_report(workload, child, metrics, units):
    print(f"# {workload} machine: {json.dumps(child['meta'], sort_keys=True)}")
    print(f"# {workload} ops_total={child['attempted']} ops_failed={child['failed']} "
          + " ".join(f"{k}={v:.6g}" for k, v in sorted(child["quality"].items())))
    if "shown" in child:
        print(f"# {workload} " + " ".join(f"{k}={v:.6g}" for k, v in child["shown"].items()))
    for name in sorted(metrics):
        print(f"# {workload} {name} = {metrics[name]:.6g} {units[name]}")


def _result_line(child, metrics, units):
    return json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def parent_main(args):
    # a terminated run raises SystemExit, so subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "morkit" / "__init__.py").is_file():
        print(f"error: morkit sources not found under {SRC}", file=sys.stderr)
        return 2
    units = _units()
    workloads = WORKLOAD_NAMES if args.all else [args.workload]
    summary = {}
    for workload in workloads:
        args.workload = workload
        try:
            child, metrics = run_workload(args)
        except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        _print_report(workload, child, metrics, units)
        summary[workload] = _result_line(child, metrics, units)
    if args.all:
        print(json.dumps({w: json.loads(line) for w, line in summary.items()}))
    else:
        print(summary[args.workload])
    return 0


# ---------------------------------------------------------------------------
# child process


def _metadata(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def child_main(args):
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import morkit

    if Path(morkit.__file__).resolve().parent != (SRC / "morkit").resolve():
        raise RuntimeError(f"imported morkit from {morkit.__file__}, not {SRC}")
    import workloads

    import_s = time.perf_counter() - start
    size = workloads.SIZES["smoke" if args.smoke else "full"][args.workload]
    wl = workloads.WORKLOADS[args.workload](args.seed, size, args.workdir)
    wl.generate()
    start = time.perf_counter()
    wl.assemble()
    result = {"setup_s": import_s + time.perf_counter() - start}
    if args.child == "measure":
        wl.prepare()
        ops = workloads.Ops()
        meta = _metadata(args)
        if args.trace:
            result["layers"] = _traced(wl, ops, args, meta)
        else:
            result["metrics"], result["shown"] = workloads.measure(
                wl, ops, args.seconds, args.smoke)
        result.update(
            attempted=ops.attempted, failed=ops.failed, meta=meta,
            quality=wl.quality(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _traced(wl, ops, args, meta):
    """Per-layer metrics: a fixed pass to warm up, then untraced, then traced."""
    import tracing
    import workloads

    queries = 3 if args.smoke else wl.trace_queries
    workloads.fixed_pass(wl, ops, queries)  # warm-up, so lazy costs fall outside both
    start = time.perf_counter()
    workloads.fixed_pass(wl, ops, queries)
    untraced = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    workloads.fixed_pass(wl, ops, queries)
    traced = time.perf_counter() - start
    layers = tracer.aggregate()
    # every greedy iteration asks the estimator for one bound function
    layers["rb.greedy.iterations"] = layers[
        "certification.CertifiedErrorEstimator.delta_function.calls"]
    layers["trace.overhead_s"] = traced - untraced
    layers.update({"rb_size": 0, "cert_bound_max": 0.0, "hyper_rel_err_max": 0.0})
    layers.update(wl.quality())
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", meta)
    return layers


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the benchmark's own test")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(child_main(arguments) if arguments.child else parent_main(arguments))
