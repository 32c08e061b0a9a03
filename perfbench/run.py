"""mixedmtl benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` of the checkout this file sits in;
without it the script exits with an error and prints no result.  BLAS
threads are capped at nproc through the usual environment variables
before numpy is imported.  Set-up runs in this process; the timed
repetitions and the report run in one forked child while the parent
waits, so all load comes from one process at a time.  The last stdout
line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the ``end_to_end`` metrics of ``BENCHMARK.json`` (repository root)
when untraced and its ``per_layer`` metrics when traced.  The line
before it is a ``perfbench`` report with the environment
(nproc, Python, numpy and BLAS versions, BLAS threads, LLC size), every
repetition's wall time, the error rate, the quality metrics and the
deterministic fingerprint.

Seeds
-----
The seed picks every input.  Baseline seed: 1.  A claimed gain must also
hold on seed 2, which is not to be used while the change is written.

Workloads and why
-----------------
protocol
    The paper's evaluation (acceptance criterion 7) at ratio 0.1: mtlcomb,
    mtlbin and singletask on p=200, 10+10 tasks, n=20 per task, for seeds
    (seed, seed+1).  To fit a run it uses k=3 folds and a 10-point path
    per CV instead of k=5 and 50 points; averaging two seeds keeps the
    criterion-7 margins positive, which a single seed does not always do.
    Thousands of tiny fits (t=20 and t=1) make per-call Python overhead
    in ``solver`` and ``core`` dominate.  No ``modelio`` or ``cli``.
cli_pipeline
    ``simulate -> cv -> fit -> eval -> predict`` through
    ``mixedmtl.cli.main`` in-process: p=200, 10+10 tasks, n=100 per task,
    cv with k=3 and 10 penalties, one tightly converged ``fit`` (1000
    iterations, tol 1e-8).  The only workload that runs ``modelio`` (CSV
    formatting and parsing, model files) and ``cli``.
path_wide
    ``lam_max``, a 50-point geometric path down to 0.01 lam_max, and
    ``reg_path`` with path defaults on the train problem of p=1000, 10+10
    tasks, n=500 per task, 20 true rows.  Large matrix-vector products
    make iterations cost passes over X (80 MB) rather than call overhead;
    the sparse head and dense tail of the path are screening's best and
    worst case.  X is below this host's 105 MiB LLC, so it is not a
    DRAM-bandwidth measurement.

End-to-end metrics (untraced runs)
----------------------------------
wall_s       median wall time of one repetition, set-up excluded.
setup_s      import time plus the median of three set-ups (input
             generation and a warm-up call).
peak_rss_mb  peak resident memory of the timed repetitions: ru_maxrss
             of the forked child, whose high-water mark Linux starts at
             its resident set at fork.  Set-up's own peak (path_wide's
             holds the test split as well) is left out, so memory a
             change adds during the run shows.
Reported in the ``perfbench`` line, not in BENCHMARK.json, because they
are 0 or vary with the seed far beyond any timing bound, or apply to one
workload only:
error_rate       failed / attempted operations (protocol cell, CLI
                 command, path fit); a failed output check fails its
                 operation.  Also in the result's ``attempted``/``failed``.
kkt_rel_max      cli_pipeline, path_wide: largest KKT violation over the
                 workload's fits, relative to lambda, from the public
                 ``smooth_gradient``.  Catches speed bought by stopping
                 early: a fit above the workload's ``kkt_ceiling``
                 (``workloads.py``, about three times the largest value
                 over seeds 0 to 40) fails its operation.
recovery_margin  protocol: mtlcomb minus mtlbin support recovery.
ev_margin        protocol: mtlcomb minus singletask regression EV.
eval_score_mean  cli_pipeline: mean of ``eval.csv`` (AUC / EV per task).

Output checks: protocol margins are positive; every CLI exit code is 0,
``model.json`` survives load_model -> save_model byte for byte, and
``predictions.csv`` has one row per test row; the path starts with zero
active rows and has one fit per penalty; ``kkt_rel_max`` stays under the
ceiling.  The KKT check runs once, after timing, on the last repetition;
it stands for every repetition because their outputs must be identical.

Per-layer metrics (traced runs)
-------------------------------
Traced runs alternate untraced and traced repetitions.  Record-only
wrappers (``tracing.py``) time each layer's public functions where the
calling layer looks them up; a layer's self time is its spans minus
their child spans.  Timings are medians over traced repetitions.  Core
and solver kernels are timed per call on the workload's own shapes
(``kernels.py``): protocol sums the n=20 t=20 and t=1 problems at 0.1
lam_max, path_wide uses the last path point, cli_pipeline the fitted
model.  Layers a workload does not run report 0.
``trace.overhead_frac`` is traced over untraced wall time, minus 1.

Computed, not measured: ``core.x_bytes`` and
``core.gradient_gbps_computed`` (two passes over X per gradient, caches
ignored); ``solver.us_per_iter`` and the ``*_mcells_per_s`` rates are
measured times divided by counts.

Which layer metric should move which end-to-end metric
-----------------------------------------------------
- ``core.*_us``, ``solver.us_per_iter`` -> ``wall_s`` on protocol (call
  overhead) and path_wide (passes over X).  Batching tasks should move
  protocol a lot and path_wide little; fewer passes over X should move
  both.  ``peak_rss_mb`` on path_wide catches speed bought by caching
  scores or stacking X.
- ``solver.iterations`` -> ``wall_s`` on protocol and path_wide; if
  ``kkt_rel_max`` rises with it, the speed came from stopping early.
- ``regpath.self_s``, ``regpath.active_rows_mean`` (mean share of rows
  active along the path; screening could skip the rest),
  ``solver.us_per_iter`` -> ``wall_s`` on path_wide for screening or
  working sets; little change on cli_pipeline.
- ``modelselect.self_s``, ``simdata.self_s`` -> ``wall_s`` on protocol.
- ``modelio.*_mcells_per_s``, ``cli.self_s`` -> ``wall_s`` on
  cli_pipeline; no change on protocol or path_wide, which do no I/O.

Determinism self-check
----------------------
Every repetition's outputs (benchmark rows, path iterations, active rows
and coefficients, the CLI output tree) and, in traced runs, the counters
``solver.fits``, ``solver.iterations``, ``regpath.points``,
``modelio.cells_read``, ``modelio.cells_written`` and
``modelio.bytes_written`` must equal the first repetition's; a mismatch
fails the repetition.  The quality metrics derive from these outputs and
are printed with the fingerprint, so runs at one seed can be compared.
Objective and gradient evaluation counts and line-search doublings are
not visible from outside the solver; they wait for solver counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench_work"
SETUP_REPS = 3
BASELINE_SEED = 1
HOLDOUT_SEED = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(limit: int) -> None:
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def llc_bytes():
    """Size of the highest-level cache of cpu0, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if level > best[0]:
            best = (level, value)
    return best[1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "llc_bytes": llc_bytes(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one mixedmtl benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "cli_pipeline", "path_wide"))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def fingerprint_digest(fingerprints) -> str:
    return hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()[:16]


def measure(workload, state, seconds, trace):
    """Repeat the workload until the next repetition would end past the deadline.

    Traced runs alternate untraced and traced repetitions, untraced first.
    Returns (rep, tracer or None) pairs in the order they ran.
    """
    from tracing import Tracer

    runs = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        tracer = Tracer() if trace and len(runs) % 2 else None
        if tracer is None:
            runs.append((workload.run(state, None), None))
        else:
            with tracer.installed():
                runs.append((workload.run(state, tracer), tracer))
        last = time.perf_counter() - rep_start
        done = len(runs) >= 1 + trace
        if done and time.perf_counter() - start + last > seconds:
            return runs


def report(args, spec, workload, state, import_s, setup_walls) -> int:
    """Time the repetitions, check the outputs and print the result lines."""
    import kernels

    runs = measure(workload, state, args.seconds, args.trace)
    # The high-water mark of this forked process started at its resident
    # set at fork, so it is the peak of the timed repetitions alone.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reps = [rep for rep, _ in runs]
    untraced = [rep for rep, tracer in runs if tracer is None]
    traced = [(rep, tracer) for rep, tracer in runs if tracer is not None]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    reference = reps[0].fingerprint
    mismatches = sum(1 for rep in reps if rep.fingerprint != reference)
    counters = [tracer.counters() for _, tracer in traced]
    mismatches += sum(1 for c in counters if c != counters[0])

    # finish() and kernel_shapes() read the outputs of the last repetition.
    # Its quality checks stand for every repetition: their outputs are
    # identical, or the mismatch has failed them already.
    last = reps[-1] if reps[-1].outputs is not None else None
    quality, quality_failed = workload.finish(state, last) if last else ({}, 0)
    failed = min(attempted, failed + mismatches + quality_failed * len(reps))

    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    if args.trace:
        per_rep = [tracer.layer_metrics() for _, tracer in traced]
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        metrics.update(counters[0])
        if last:
            metrics.update(kernels.kernel_metrics(workload.kernel_shapes(state, last)))
        traced_wall = statistics.median(rep.wall_s for rep, _ in traced)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        declared = spec["per_layer"]
    else:
        metrics = {
            "wall_s": untraced_wall,
            "setup_s": import_s + statistics.median(setup_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]

    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        failed = attempted
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "baseline_seed": BASELINE_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "trace": args.trace,
        "environment": environment(),
        "import_s": import_s,
        "setup_walls_s": setup_walls,
        "wall_s_untraced": [rep.wall_s for rep in untraced],
        "wall_s_traced": [rep.wall_s for rep, _ in traced],
        "error_rate": failed / attempted,
        "quality": quality,
        "quality_failed": quality_failed,
        "fingerprint": fingerprint_digest(reference),
        "deterministic_mismatches": mismatches,
    }
    print(json.dumps({"perfbench": report}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mixedmtl" / "__init__.py").is_file():
        print(f"perfbench: no mixedmtl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    cap_blas_threads(nproc())
    sys.path.insert(0, str(ROOT / "src"))

    import_start = time.perf_counter()
    import kernels  # noqa: F401  (used by report(); import_s counts it)
    import mixedmtl
    import workloads
    import_s = time.perf_counter() - import_start
    if Path(mixedmtl.__file__).resolve().parent != ROOT / "src" / "mixedmtl":
        print(f"perfbench: imported mixedmtl from {mixedmtl.__file__}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    try:
        workload = workloads.make(args.workload, WORK_DIR)
        setup_walls = []
        state = None
        for _ in range(SETUP_REPS):
            state = None
            start = time.perf_counter()
            state = workload.setup(args.seed)
            setup_walls.append(time.perf_counter() - start)

        # The timed repetitions run in a forked child, so that its peak
        # resident set leaves out set-up's (path_wide's set-up holds the
        # test split too).  The parent waits and generates no load.
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = report(args, spec, workload, state, import_s, setup_walls)
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
