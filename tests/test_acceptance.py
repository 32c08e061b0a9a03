"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The benchmark criterion (7) dominates the runtime; the
whole suite targets a laptop-class machine.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest

from mixedmtl import (
    CoefficientMatrix,
    Hyperparameters,
    MtlProblem,
    SimulationSpec,
    SolverOptions,
    TaskDataset,
    auc,
    explained_variance,
    fista_fit,
    full_objective,
    ista_fit,
    lam_max,
    lambda_sequence,
    prox_l21,
    reg_path,
    run_benchmark,
    simulate,
    smooth_gradient,
)
from mixedmtl.cli import main
from mixedmtl.core import _smooth_objective_raw

from util import random_labels, random_mixed_problem


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradient matches central finite differences (<=1e-5, <5s)"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        worst = 0.0
        for _ in range(50):
            problem = random_mixed_problem(rng)  # p <= 20, t <= 6, N_i <= 30
            W = 0.5 * rng.standard_normal((problem.p, problem.t))
            alpha, beta = rng.uniform(0, 1), rng.uniform(0, 1)
            gW, _ = smooth_gradient(problem, CoefficientMatrix(W), alpha, beta)
            h = 1e-6
            for j in range(problem.p):
                for i in range(problem.t):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[j, i] += h
                    Wm[j, i] -= h
                    numeric = (
                        _smooth_objective_raw(problem, Wp, None, alpha, beta)
                        - _smooth_objective_raw(problem, Wm, None, alpha, beta)
                    ) / (2.0 * h)
                    worst = max(
                        worst, abs(gW[j, i] - numeric) / max(abs(numeric), 1.0)
                    )
        elapsed = time.monotonic() - start
        assert worst <= 1e-5, f"max relative error {worst}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_2_proximal_operator():
    with criterion(2, "prox matches the closed form, is non-expansive, zeroes small rows"):
        rng = np.random.default_rng(102)
        # closed form, recomputed row by row
        for _ in range(50):
            V = rng.standard_normal((8, 4)) * rng.uniform(0.1, 3.0)
            tau = rng.uniform(0.0, 2.0)
            out = prox_l21(V, tau)
            for j in range(8):
                norm = np.linalg.norm(V[j])
                expect = (1.0 - tau / max(norm, tau)) * V[j] if tau > 0 else V[j]
                npt.assert_allclose(out[j], expect, rtol=1e-14, atol=0.0)
        # non-expansive on 1000 random pairs
        for _ in range(1000):
            U = rng.standard_normal((5, 3))
            V = rng.standard_normal((5, 3))
            tau = rng.uniform(0.0, 2.0)
            gap = np.linalg.norm(prox_l21(U, tau) - prox_l21(V, tau))
            assert gap <= np.linalg.norm(U - V) + 1e-10
        # rows at or below the threshold vanish exactly
        V = rng.standard_normal((100, 3))
        tau = float(np.median(np.linalg.norm(V, axis=1)))
        out = prox_l21(V, tau)
        small = np.linalg.norm(V, axis=1) <= tau
        assert small.any() and (~small).any()
        npt.assert_array_equal(out[small], 0.0)
        assert np.all(np.linalg.norm(out[~small], axis=1) > 0.0)


def test_criterion_3_zero_solution_threshold():
    with criterion(3, "1.001*lam_max fits to zero; 0.9*lam_max activates a row (<30s)"):
        rng = np.random.default_rng(103)
        start = time.monotonic()
        done = 0
        while done < 20:
            problem = random_mixed_problem(rng, n_lo=5)
            if problem.c == 0 or problem.c == problem.t:
                continue  # mixed problems only
            top = lam_max(problem)
            if top <= 0.0:
                continue
            at = fista_fit(problem, Hyperparameters(1.001 * top))
            assert np.max(np.linalg.norm(at.coef.W, axis=1)) <= 1e-10
            below = fista_fit(problem, Hyperparameters(0.9 * top))
            assert np.max(np.linalg.norm(below.coef.W, axis=1)) > 1e-6
            done += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_lam_max_alignment():
    with criterion(4, "identical cross products give identical per-task columns (1e-12)"):
        rng = np.random.default_rng(104)
        for _ in range(20):
            n, p = int(rng.integers(5, 40)), int(rng.integers(2, 15))
            X = rng.standard_normal((n, p))
            y = random_labels(rng, n)
            problem = MtlProblem(
                (
                    TaskDataset(X, y, "classification", "c"),
                    TaskDataset(X, y.astype(float), "regression", "r"),
                )
            )
            gW, _ = smooth_gradient(problem, CoefficientMatrix.zeros(p, 2))
            npt.assert_allclose(gW[:, 0], gW[:, 1], rtol=0.0, atol=1e-12)
            assert lam_max(problem) > 0.0


def test_criterion_5_solver_oracle_equivalence():
    with criterion(5, "FISTA matches ISTA (1e-8) and the ridge closed form (1e-6)"):
        rng = np.random.default_rng(105)
        tight = SolverOptions(max_iter=20000, tol=1e-14)
        for _ in range(20):
            problem = random_mixed_problem(rng)  # p <= 20
            hyper = Hyperparameters(
                0.3 * max(lam_max(problem), 0.1), rng.uniform(0, 0.3), rng.uniform(0, 0.3)
            )
            obj_f = full_objective(problem, fista_fit(problem, hyper, tight).coef, hyper)
            obj_i = full_objective(problem, ista_fit(problem, hyper, tight).coef, hyper)
            assert abs(obj_f - obj_i) <= 1e-8

        X = rng.standard_normal((50, 12))
        y = rng.standard_normal(50)
        ridge_problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
        beta = 0.3
        w_star = np.linalg.solve(X.T @ X / 50 + 2.0 * beta * np.eye(12), X.T @ y / 50)
        fit = fista_fit(ridge_problem, Hyperparameters(0.0, 0.0, beta), tight)
        npt.assert_allclose(fit.coef.W[:, 0], w_star, atol=1e-6)


def test_criterion_6_path_properties():
    with criterion(6, "zero path head, warm start dominance (+1e-6), geometric grid (1e-12)"):
        spec = SimulationSpec(
            t_classification=2, t_regression=2, p=30, n_per_task=25,
            sparsity=0.8, noise_scale=0.5, seed=3,
        )
        problem = simulate(spec).train
        top = lam_max(problem)
        sequence = lambda_sequence(top, ratio=0.01, n=25)

        # geometric spacing: log-values affine in the index
        logs = np.log(sequence.values)
        slope = (logs[-1] - logs[0]) / (sequence.length - 1)
        npt.assert_allclose(np.diff(logs), slope, rtol=0.0, atol=1e-12)
        assert sequence.values[0] == top

        # first path point is the all-zero model
        path = reg_path(problem, sequence)
        assert path.nonzero_rows[0] == 0
        assert np.max(np.linalg.norm(path.fits[0].coef.W, axis=1)) <= 1e-10

        # warm-started fits dominate cold starts; compared at convergence
        # (at the 100-iteration path default the dense end is unconverged
        # and the +-1e-6 comparison would be noise)
        opts = SolverOptions(max_iter=1000, tol=1e-10)
        converged_path = reg_path(problem, sequence, opts=opts)
        for lam, fit in zip(sequence.values, converged_path.fits):
            hyper = Hyperparameters(lam)
            cold = fista_fit(problem, hyper, opts)
            warm_obj = full_objective(problem, fit.coef, hyper)
            cold_obj = full_objective(problem, cold.coef, hyper)
            assert warm_obj <= cold_obj + 1e-6


@pytest.mark.slow
def test_criterion_7_scaled_benchmark_directions():
    with criterion(7, "joint fit beats binarization (recovery) and single-task (EV) at ratio 0.1 (<10min)"):
        start = time.monotonic()
        rows = run_benchmark(
            SimulationSpec(),  # the default protocol: p=200, 10+10 tasks, 90% sparse, noise 0.5
            methods=("mtlcomb", "mtlbin", "singletask"),
            ratios=(0.1, 0.4, 0.8),
            seeds=(1, 2, 3, 4, 5),
        )
        elapsed = time.monotonic() - start
        cells = {(row.method, row.ratio): row for row in rows}
        assert (
            cells[("mtlcomb", 0.1)].mean_recovery > cells[("mtlbin", 0.1)].mean_recovery
        ), "joint fit did not beat binarization on support recovery at ratio 0.1"
        assert (
            cells[("mtlcomb", 0.1)].mean_ev_regression
            > cells[("singletask", 0.1)].mean_ev_regression
        ), "joint fit did not beat the single-task baseline on explained variance at ratio 0.1"
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        for row in rows:
            print(
                f"    bench {row.method:<10} ratio={row.ratio:.1f} "
                f"recovery={row.mean_recovery:.3f} ev={row.mean_ev_regression:.3f} "
                f"pseudo_ev={row.mean_pseudo_ev_classification:.3f}"
            )


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "repeated CLI pipelines with fixed seeds are byte-identical"):
        root = tmp_path / "run"

        def pipeline():
            sim = root / "sim"
            assert main(["simulate", "--p", "25", "--t-classification", "2",
                         "--t-regression", "2", "--n-per-task", "30", "--seed", "5",
                         "--out-dir", str(sim)]) == 0
            assert main(["cv", "--manifest", str(sim / "train" / "manifest.json"),
                         "--k", "3", "--seed", "1", "--n-lambda", "10",
                         "--out-dir", str(root / "cv")]) == 0
            best = (root / "cv" / "best_lambda.txt").read_text().strip()
            assert main(["fit", "--manifest", str(sim / "train" / "manifest.json"),
                         "--lambda", best, "--out-dir", str(root / "fit")]) == 0
            assert main(["eval", "--model", str(root / "fit" / "model.json"),
                         "--manifest", str(sim / "test" / "manifest.json"),
                         "--out-dir", str(root / "eval")]) == 0
            snapshot = {}
            for base, _, files in os.walk(root):
                for name in files:
                    full = os.path.join(base, name)
                    with open(full, "rb") as fh:
                        snapshot[os.path.relpath(full, root)] = fh.read()
            return snapshot

        first = pipeline()
        second = pipeline()
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"


def test_criterion_9_metric_oracles():
    with criterion(9, "AUC matches pair enumeration exactly; EV matches the SS formula (1e-12)"):
        rng = np.random.default_rng(109)
        for _ in range(200):
            n = int(rng.integers(3, 50))
            scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
            labels = random_labels(rng, n)
            pos = scores[labels > 0]
            neg = scores[labels <= 0]
            brute = sum(
                1.0 if a > b else (0.5 if a == b else 0.0) for a in pos for b in neg
            ) / (len(pos) * len(neg))
            assert auc(scores, labels) == brute

        for _ in range(100):
            n = int(rng.integers(2, 40))
            y = rng.standard_normal(n)
            if np.allclose(y, y[0]):
                continue
            pred = rng.standard_normal(n)
            ss_res = float(np.sum((y - pred) ** 2))
            ss_tot = float(np.sum((y - np.mean(y)) ** 2))
            direct = 1.0 - ss_res / ss_tot
            assert abs(explained_variance(pred, y) - direct) <= 1e-12
