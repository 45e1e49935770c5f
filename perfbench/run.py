"""regadapt benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload register-48 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. One process, one caller, closed loop: units of work (pairs, or
pretraining jobs) run one after another until the next would end after
`--seconds`, and never fewer than the workload's minimum. With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, which also
runs the first unit untraced and checks that tracing left every output
bit-for-bit unchanged. The environment (nproc, numpy, OpenBLAS, BLAS
threads) goes to stderr as one JSON line. See README.md for the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
MODULES = ("autodiff", "unet", "fields", "losses", "pipeline", "metrics", "volume_io")
SETUP_REPEATS = 5
REFUSED_ENV = ("REGADAPT_NO_MALLOC_TUNING", "REGADAPT_SEED")
MIN_COVERAGE = 0.95  # share of a traced run's wall time that must fall under program spans

_clock = time.perf_counter


def _fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var)
        if not (current and current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def _blas_threads(np):
    """Threads OpenBLAS reports, read from numpy's bundled library."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _environment(np, nproc):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(np),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _import_seconds(repeats=SETUP_REPEATS):
    """Median wall time of a fresh interpreter importing the program."""
    code = "import " + ", ".join(f"regadapt.{m}" for m in MODULES)
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        t0 = _clock()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(_clock() - t0)
    return statistics.median(times)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "regadapt", "__init__.py")):
        _fail(1, f"no regadapt sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import importlib

    rg = {m: importlib.import_module(f"regadapt.{m}") for m in MODULES}
    if not rg["pipeline"].__file__.startswith(SRC):
        _fail(1, f"regadapt imported from {rg['pipeline'].__file__}, not from {SRC}")
    return rg


def _run_one(workload, k, tr, log):
    try:
        unit = workload.run_unit(k, tr)
    except Exception:  # an aborted unit is a failed operation, and the run goes on
        log(f"unit {k} aborted:\n{traceback.format_exc()}")
        return None
    log(f"unit {k}: {unit.wall:.4f} s, {unit.step_s:.4f} s per step")
    for problem in unit.failures:
        log(f"unit {k} check failed: {problem}")
    return unit


def _closed_loop(workload, seconds, tr, min_units, log):
    """Units back to back until the next one would end past `seconds`."""
    units, walls = [], []
    start = _clock()
    while True:
        t0 = _clock()
        units.append(_run_one(workload, len(units), tr, log))
        walls.append(_clock() - t0)
        if len(units) >= min_units and _clock() - start + statistics.median(walls) > seconds:
            return units


def _per(workload, unit):
    """What one unit counts for: one pair, or its steps for pretraining."""
    return unit.steps if workload.per_step else 1


def _end_to_end(workload, units, setup_s):
    """End-to-end metrics; a figure no unit produced is null."""
    ok = [u for u in units if u is not None]
    acc = [u.accuracy for u in ok if u.accuracy is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pair_s": (statistics.median(u.wall / _per(workload, u) for u in ok) if ok else None, "s"),
        "step_s": (statistics.median(u.step_s for u in ok) if ok else None, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    for key, unit in (("epe_vox", "vox"), ("tre_mm", "mm"), ("dice", "ratio"),
                      ("jacdet_min", "ratio"), ("train_loss", "loss")):
        metrics[key] = (statistics.fmean(a[key] for a in acc) if acc else None, unit)
    return metrics


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced(workload, seconds, rg, spans_path, log):
    """The traced run: (attempted, failed, per-layer metrics).

    Unit 0 runs untraced first; the traced loop then gets what is left of
    `seconds`, and its unit 0 must reproduce the untraced outputs exactly.
    """
    import layers
    import tracing

    t0 = _clock()
    ref = _run_one(workload, 0, tracing.Tracer(on=False), log)
    remaining = seconds - (_clock() - t0)
    tr = tracing.Tracer()
    hooks = layers.WorkHooks(getattr(rg["autodiff"], "_CONV_TILE_BYTES", 2 << 20))
    tr.install(work_hooks=hooks.hooks(), keep_values=("losses.gate_lncc",))
    try:
        units = _closed_loop(workload, remaining, tr, 1, log)
    finally:
        tr.uninstall()
    problems = tr.check_tree()
    for p in problems:
        log(f"span tree: {p}")
    same = ref is not None and units[0] is not None and ref.fingerprint == units[0].fingerprint
    if not same:
        log("tracing changed the outputs of unit 0")
    done = [u for u in units if u is not None]
    n = sum(_per(workload, u) for u in done)
    overhead = len(tr.names) * tracing.span_cost() / n
    machine = layers.gemm_gflops(hooks.flops)
    values = layers.layer_metrics(tr, n, sum(u.wall for u in done), overhead, machine)
    covered = values["trace.coverage"] >= MIN_COVERAGE
    if not covered:
        log(f"program spans cover {values['trace.coverage']:.4f} of wall time, "
            f"below {MIN_COVERAGE}")
    attempted = 1 + len(units) + 3  # the units, plus the three checks on the trace itself
    failed = (sum(1 for u in [ref] + units if u is None or u.failures)
              + int(not same) + int(bool(problems)) + int(not covered))
    if spans_path:
        tr.write(spans_path)
    return attempted, failed, {k: (v, layers.unit_of(k)) for k, v in values.items()}


def run(workload_name, seed, seconds, trace, tiny=False, spans_path=None, log=None):
    """One benchmark run; returns the result object the last line prints."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    nproc = _cap_blas_threads()
    rg = _import_program()
    import_s = _import_seconds()  # after the import above, so every timed import finds bytecode
    import numpy as np
    import tracing
    import workloads

    log(json.dumps({"env": _environment(np, nproc)}))
    workload = workloads.WORKLOADS[workload_name](rg, tiny=tiny)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK)
    try:
        workload.prepare(seed, workdir)
        setup_s = import_s + statistics.median(workload.setup() for _ in range(SETUP_REPEATS))
        if trace:
            attempted, failed, metrics = _traced(workload, seconds, rg, spans_path, log)
        else:
            units = _closed_loop(workload, seconds, tracing.Tracer(on=False),
                                 workload.min_units, log)
            attempted = len(units)
            failed = sum(1 for u in units if u is None or u.failures)
            metrics = _end_to_end(workload, units, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    _cap_blas_threads()  # before workloads imports numpy, which loads OpenBLAS
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for var in REFUSED_ENV:
        if os.environ.get(var):
            _fail(2, f"{var} is set; unset it so the program runs as users get it")
    spans = None
    if args.trace:
        os.makedirs(WORK, exist_ok=True)
        spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = run(args.workload, args.seed, args.seconds, args.trace, spans_path=spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
