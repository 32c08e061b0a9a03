"""The three benchmark workloads.

Each workload class offers:

- ``setup(seed)``: generate the inputs from the seed and warm up; returns
  the state ``run`` needs.  Called several times so that set-up time can
  be reported as a median.
- ``run(state, tracer)``: one timed repetition.  Returns a ``Rep`` with
  the wall time of the operations, how many were attempted and failed
  (a failed output check fails its operation), and a fingerprint of
  every deterministic output, which must repeat exactly.
- ``finish(state, rep)``: quality metrics, computed once after timing,
  and how many of ``rep``'s operations fail the quality checks.
- ``kernel_shapes(state, rep)``: (problem, coef, lam, L) tuples on which
  the core and solver kernels are timed in traced runs.

All calls into a layer go through its module attribute, so the wrappers
installed by a traced run see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import shutil
import time
import traceback

import numpy as np

import mixedmtl.cli as cli
import mixedmtl.modelio as modelio
import mixedmtl.regpath as regpath
import mixedmtl.simdata as simdata
import mixedmtl.solver as solver
from mixedmtl import Hyperparameters, MtlProblem, smooth_gradient


@dataclasses.dataclass
class Rep:
    wall_s: float
    attempted: int
    failed: int
    fingerprint: dict
    outputs: object = None


def kkt_rel(problem, coef, lam) -> float:
    """Largest KKT violation of one fit, relative to lam.

    With g the smooth gradient: ||g_j + lam w_j / ||w_j|| || on a nonzero
    row j, max(0, ||g_j|| - lam) on a zero row.
    """
    grad, _ = smooth_gradient(problem, coef)
    W = coef.W
    norms = np.linalg.norm(W, axis=1)
    nonzero = norms > 0.0
    violation = np.maximum(np.linalg.norm(grad, axis=1) - lam, 0.0)
    scaled = grad[nonzero] + lam * W[nonzero] / norms[nonzero, None]
    violation[nonzero] = np.linalg.norm(scaled, axis=1)
    return float(violation.max() / lam)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _fitted_shape(problem, fraction):
    """(problem, coef, lam, L) at fraction * lam_max, fitted with path defaults."""
    lam = fraction * regpath.lam_max(problem)
    fit = solver.fista_fit(problem, Hyperparameters(lam), regpath.path_options())
    return problem, fit.coef, lam, fit.final_L


class Protocol:
    """The criterion-7 comparison at ratio 0.1, scaled to fit a run.

    mtlcomb, mtlbin and singletask on the default simulation (p=200,
    10+10 tasks, n=20 per task) for seeds (seed, seed+1), with k=3 folds
    and a 10-point path per CV.
    """

    spec = simdata.SimulationSpec()
    ratio = 0.1
    k = 3
    n_lambda = 10

    def setup(self, seed):
        seeds = (seed, seed + 1)
        n = int(round(self.ratio * self.spec.p))
        sims = [simdata.simulate(dataclasses.replace(self.spec, n_per_task=n, seed=s)) for s in seeds]
        _fitted_shape(sims[0].train, 0.5)
        return {"seeds": seeds, "train": sims[0].train}

    def run(self, state, tracer):
        methods = simdata.BENCHMARK_METHODS
        attempted = len(methods) * len(state["seeds"])
        start = time.perf_counter()
        try:
            rows = simdata.run_benchmark(
                self.spec, methods=methods, ratios=(self.ratio,), seeds=state["seeds"],
                k=self.k, n_lambda=self.n_lambda,
            )
        except Exception:
            traceback.print_exc()
            return Rep(time.perf_counter() - start, attempted, attempted, {"error": True})
        wall = time.perf_counter() - start
        cell = {row.method: row for row in rows}
        margins = {
            "recovery_margin": cell["mtlcomb"].mean_recovery - cell["mtlbin"].mean_recovery,
            "ev_margin": cell["mtlcomb"].mean_ev_regression - cell["singletask"].mean_ev_regression,
        }
        failed = sum(1 for value in margins.values() if not value > 0.0)
        fingerprint = {
            "rows": [
                [row.method, row.mean_recovery, row.mean_ev_regression,
                 row.mean_pseudo_ev_classification]
                for row in rows
            ],
        }
        return Rep(wall, attempted, failed, fingerprint, margins)

    def finish(self, state, rep):
        return dict(rep.outputs), 0

    def kernel_shapes(self, state, rep):
        train = state["train"]
        return [_fitted_shape(train, 0.1), _fitted_shape(MtlProblem(train.tasks[:1]), 0.1)]


def _call_main(argv) -> int:
    """cli.main's exit code; an exception that escapes it counts as exit -1."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


class CliPipeline:
    """simulate -> cv -> fit -> eval -> predict through ``mixedmtl.cli.main``.

    p=200, 10+10 tasks, n=100 per task (the CLI default), cv with k=3 and
    a 10-point path; outputs go to a fixed relative directory so runlogs,
    and with them the whole output tree, repeat byte for byte.
    """

    n_per_task = 100
    # The fit's KKT violation relative to lambda: 3.8e-4 to 6.0e-3 over
    # seeds 0 to 40; above the ceiling the fit command fails.
    kkt_ceiling = 2e-2

    def __init__(self, work_dir):
        self.root = os.path.join(work_dir, "cli")

    def _commands(self, seed):
        root = self.root
        sim = os.path.join(root, "sim")
        train = os.path.join(sim, "train", "manifest.json")
        model = os.path.join(root, "fit", "model.json")
        return [
            ["simulate", "--p", "200", "--t-classification", "10", "--t-regression", "10",
             "--n-per-task", str(self.n_per_task), "--seed", str(seed), "--out-dir", sim],
            ["cv", "--manifest", train, "--k", "3", "--n-lambda", "10",
             "--out-dir", os.path.join(root, "cv")],
            ["fit", "--manifest", train, "--lambda", None, "--out-dir", os.path.join(root, "fit")],
            ["eval", "--model", model, "--manifest", os.path.join(sim, "test", "manifest.json"),
             "--out-dir", os.path.join(root, "eval")],
            ["predict", "--model", model, "--data", os.path.join(sim, "test", "clf01.csv"),
             "--task", "clf01", "--out-dir", os.path.join(root, "pred")],
        ]

    def setup(self, seed):
        shutil.rmtree(self.root, ignore_errors=True)
        warm = os.path.join(self.root, "warmup")
        if cli.main(["simulate", "--p", "5", "--t-classification", "1", "--t-regression", "1",
                     "--n-per-task", "10", "--seed", str(seed), "--out-dir", warm]) != 0:
            raise RuntimeError("warm-up simulate failed")
        shutil.rmtree(warm)
        return {"seed": seed}

    def run(self, state, tracer):
        shutil.rmtree(self.root, ignore_errors=True)
        commands = self._commands(state["seed"])
        codes = []
        wall = 0.0
        for argv in commands:
            if argv[0] == "fit":
                argv[argv.index(None)] = self._best_lambda()
            start = time.perf_counter()
            with tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext():
                codes.append(_call_main(argv))
            wall += time.perf_counter() - start
        ok = {argv[0]: code == 0 for argv, code in zip(commands, codes)}
        try:
            ok["fit"] = ok["fit"] and self._model_round_trips()
            ok["predict"] = ok["predict"] and self._prediction_rows_match()
        except (ValueError, KeyError, OSError):
            traceback.print_exc()
            ok["fit"] = ok["predict"] = False
        failed = sum(1 for good in ok.values() if not good)
        fingerprint = {"codes": codes, "tree": self._tree_digest()}
        return Rep(wall, len(commands), failed, fingerprint, self.root if not any(codes) else None)

    def _best_lambda(self):
        try:
            with open(os.path.join(self.root, "cv", "best_lambda.txt"), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            return "nan"

    def _model_round_trips(self):
        path = os.path.join(self.root, "fit", "model.json")
        copy = os.path.join(self.root, "model_round_trip.json")
        modelio.save_model(modelio.load_model(path), copy)
        with open(path, "rb") as a, open(copy, "rb") as b:
            same = a.read() == b.read()
        os.remove(copy)
        return same

    def _prediction_rows_match(self):
        def rows(path):
            with open(path, encoding="utf-8") as fh:
                return sum(1 for line in fh if line.strip()) - 1

        data = rows(os.path.join(self.root, "sim", "test", "clf01.csv"))
        return data == self.n_per_task and rows(os.path.join(self.root, "pred", "predictions.csv")) == data

    def _tree_digest(self):
        h = hashlib.sha256()
        for base, _, files in sorted(os.walk(self.root)):
            for name in sorted(files):
                full = os.path.join(base, name)
                h.update(os.path.relpath(full, self.root).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()[:16]

    def _fit_inputs(self):
        problem, _, _ = modelio.load_problem(os.path.join(self.root, "sim", "train", "manifest.json"))
        model = modelio.load_model(os.path.join(self.root, "fit", "model.json"))
        return problem, model

    def finish(self, state, rep):
        problem, model = self._fit_inputs()
        values = []
        with open(os.path.join(self.root, "eval", "eval.csv"), encoding="utf-8") as fh:
            for line in fh.read().splitlines()[1:]:
                values.append(float(line.rsplit(",", 1)[1]))
        kkt = kkt_rel(problem, model.coef, model.lam)
        quality = {"kkt_rel_max": kkt, "eval_score_mean": float(np.mean(values))}
        return quality, int(not kkt <= self.kkt_ceiling)

    def kernel_shapes(self, state, rep):
        problem, model = self._fit_inputs()
        fit = solver.fista_fit(
            problem, Hyperparameters(model.lam), regpath.path_options(), w_init=model.coef
        )
        return [(problem, model.coef, model.lam, fit.final_L)]


class PathWide:
    """lam_max, a 50-point path down to 0.01 lam_max, and reg_path with path
    defaults on the train problem of a wide simulation: p=1000, 10+10
    tasks, n=500 per task, 20 true rows (80 MB of X).
    """

    spec = simdata.SimulationSpec(p=1000, n_per_task=500, sparsity=0.98)
    n_lambda = 50
    # Largest KKT violation relative to lambda along the path: 4.9e-3 to
    # 9.9e-3 over seeds 0 to 40; a fit above the ceiling fails.
    kkt_ceiling = 3e-2

    def setup(self, seed):
        train = simdata.simulate(dataclasses.replace(self.spec, seed=seed)).train
        regpath.lam_max(train)
        return {"train": train}

    def run(self, state, tracer):
        problem = state["train"]
        start = time.perf_counter()
        try:
            top = regpath.lam_max(problem)
            sequence = regpath.lambda_sequence(top, ratio=0.01, n=self.n_lambda)
            path = regpath.reg_path(problem, sequence)
        except Exception:
            traceback.print_exc()
            return Rep(time.perf_counter() - start, self.n_lambda, self.n_lambda, {"error": True})
        wall = time.perf_counter() - start
        failed = int(path.nonzero_rows[0] != 0) + int(len(path.fits) != self.n_lambda)
        fingerprint = {
            "lam_max": top,
            "iterations": [fit.iterations for fit in path.fits],
            "nonzero_rows": path.nonzero_rows.tolist(),
            "coef": _digest(*(fit.coef.W for fit in path.fits)),
        }
        return Rep(wall, self.n_lambda, failed, fingerprint, path)

    def finish(self, state, rep):
        path = rep.outputs
        problem = state["train"]
        kkt = [kkt_rel(problem, fit.coef, lam) for fit, lam in zip(path.fits, path.sequence.values)]
        return {"kkt_rel_max": max(kkt)}, sum(1 for value in kkt if not value <= self.kkt_ceiling)

    def kernel_shapes(self, state, rep):
        path = rep.outputs
        last = path.fits[-1]
        return [(state["train"], last.coef, float(path.sequence.values[-1]), last.final_L)]


def make(name, work_dir):
    if name == "protocol":
        return Protocol()
    if name == "cli_pipeline":
        return CliPipeline(work_dir)
    if name == "path_wide":
        return PathWide()
    raise ValueError(f"unknown workload {name!r}")
