import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixedmtl.solver as solver_module
from mixedmtl import (
    CoefficientMatrix,
    Hyperparameters,
    MtlProblem,
    SolverError,
    SolverOptions,
    TaskDataset,
    fista_fit,
    full_objective,
    ista_fit,
    lam_max,
    line_search,
    prox_l21,
    smooth_gradient,
)

from util import random_mixed_problem

TIGHT = SolverOptions(max_iter=20000, tol=1e-14)


# ---------------------------------------------------------------------------
# proximal operator


def test_prox_zero_tau_is_identity():
    rng = np.random.default_rng(0)
    V = rng.standard_normal((5, 3))
    out = prox_l21(V, 0.0)
    npt.assert_array_equal(out, V)
    assert out is not V


def test_prox_kills_row_at_threshold():
    npt.assert_array_equal(prox_l21(np.array([[3.0, 4.0]]), 5.0), [[0.0, 0.0]])


def test_prox_shrinks_row():
    npt.assert_allclose(prox_l21(np.array([[3.0, 4.0]]), 2.5), [[1.5, 2.0]], rtol=1e-15)


def test_prox_small_rows_exactly_zero():
    rng = np.random.default_rng(1)
    V = rng.standard_normal((50, 4))
    tau = 1.5
    out = prox_l21(V, tau)
    small = np.linalg.norm(V, axis=1) <= tau
    assert small.any()
    npt.assert_array_equal(out[small], np.zeros((small.sum(), 4)))


def test_prox_solves_row_subproblem():
    # prox minimizes 0.5||y - v||^2 + tau ||y||_2 per row: check against
    # random perturbations and a scaling grid.
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.standard_normal(3) * rng.uniform(0.1, 3.0)
        tau = rng.uniform(0.0, 2.5)
        out = prox_l21(v[None, :], tau)[0]

        def objective(y):
            return 0.5 * np.sum((y - v) ** 2) + tau * np.linalg.norm(y)

        best = objective(out)
        for _ in range(1000):
            assert objective(out + 0.3 * rng.standard_normal(3) * rng.uniform()) >= best - 1e-12
        for s in np.linspace(0.0, 2.0, 201):
            assert objective(s * v) >= best - 1e-12


def test_prox_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(200):
        U = rng.standard_normal((6, 3))
        V = rng.standard_normal((6, 3))
        tau = rng.uniform(0.0, 2.0)
        lhs = np.linalg.norm(prox_l21(U, tau) - prox_l21(V, tau))
        assert lhs <= np.linalg.norm(U - V) + 1e-10


def test_prox_rejects_negative_tau():
    with pytest.raises(ValueError):
        prox_l21(np.ones((2, 2)), -0.5)


# ---------------------------------------------------------------------------
# line search


def _power_iteration_largest_eig(A, iters=500):
    v = np.ones(A.shape[0])
    for _ in range(iters):
        v = A @ v
        v /= np.linalg.norm(v)
    return float(v @ A @ v)


def test_line_search_respects_quadratic_curvature():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 8))
    y = rng.standard_normal(40)
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    L_star = _power_iteration_largest_eig(X.T @ X / 40)
    S = CoefficientMatrix(rng.standard_normal((8, 1)))
    for L_prev in (0.01, 0.5, 1.0):
        L, _ = line_search(problem, Hyperparameters(0.1), S, L_prev)
        assert L <= 2.0 * max(L_prev, L_star)


def test_line_search_keeps_sufficient_L():
    rng = np.random.default_rng(5)
    problem = random_mixed_problem(rng, p=4, t=2)
    S = CoefficientMatrix(rng.standard_normal((4, 2)))
    L, _ = line_search(problem, Hyperparameters(0.2), S, 1e6)
    assert L == 1e6


def test_line_search_at_stationary_point():
    # y = X w* exactly: the smooth gradient vanishes at w*, so the candidate
    # is just the prox of the search point and the first L is accepted.
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 3))
    w_star = rng.standard_normal(3)
    problem = MtlProblem((TaskDataset(X, X @ w_star, "regression", "r"),))
    S = CoefficientMatrix(w_star[:, None])
    gW, _ = smooth_gradient(problem, S)
    npt.assert_allclose(gW, np.zeros((3, 1)), atol=1e-12)
    lam, L_prev = 0.3, 2.0
    L, cand = line_search(problem, Hyperparameters(lam), S, L_prev)
    assert L == L_prev
    npt.assert_allclose(cand.W, prox_l21(S.W - gW / L, lam / L), atol=1e-12)


def test_line_search_rejects_bad_L():
    rng = np.random.default_rng(7)
    problem = random_mixed_problem(rng, p=3, t=1)
    with pytest.raises(ValueError):
        line_search(problem, Hyperparameters(0.1), CoefficientMatrix.zeros(3, 1), 0.0)


# ---------------------------------------------------------------------------
# solver


def test_fista_zero_solution_at_and_above_lam_max():
    rng = np.random.default_rng(8)
    for _ in range(5):
        problem = random_mixed_problem(rng, t=3, c=1)
        top = lam_max(problem)
        for lam in (top, 1.5 * top):
            result = fista_fit(problem, Hyperparameters(lam))
            npt.assert_array_equal(result.coef.W, np.zeros((problem.p, problem.t)))


def test_fista_matches_ridge_closed_form():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((40, 8))
    y = rng.standard_normal(40)
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    beta = 0.4
    w_star = np.linalg.solve(X.T @ X / 40 + 2.0 * beta * np.eye(8), X.T @ y / 40)
    result = fista_fit(problem, Hyperparameters(0.0, 0.0, beta), TIGHT)
    npt.assert_allclose(result.coef.W[:, 0], w_star, atol=1e-6)


def test_fista_and_ista_reach_the_same_objective():
    rng = np.random.default_rng(10)
    for _ in range(6):
        problem = random_mixed_problem(rng)
        hyper = Hyperparameters(0.3 * max(lam_max(problem), 0.1), 0.1, 0.05)
        obj_f = fista_fit(problem, hyper, TIGHT).objective_trace[-1]
        obj_i = ista_fit(problem, hyper, TIGHT).objective_trace[-1]
        assert abs(obj_f - obj_i) <= 1e-8


def test_ista_trace_is_monotone():
    rng = np.random.default_rng(11)
    for _ in range(5):
        problem = random_mixed_problem(rng)
        hyper = Hyperparameters(0.2 * max(lam_max(problem), 0.1), 0.05, 0.01)
        trace = ista_fit(problem, hyper).objective_trace
        assert np.all(np.diff(trace) <= 0.0)


def test_ista_evaluates_the_objective_once_at_start_and_once_per_trial(monkeypatch):
    # The loop carries the smooth objective of its iterate, so a step from
    # the iterate evaluates it only at line-search candidates, one prox each.
    calls = {"objective": 0, "prox": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver_module, "_smooth_objective_raw",
                        counted("objective", solver_module._smooth_objective_raw))
    monkeypatch.setattr(solver_module, "prox_l21", counted("prox", solver_module.prox_l21))
    rng = np.random.default_rng(19)
    for fit_intercept in (False, True):
        problem = random_mixed_problem(rng, p=6, t=3, n_lo=8)
        top = lam_max(problem, fit_intercept=fit_intercept)
        opts = SolverOptions(max_iter=40, L0=0.01, fit_intercept=fit_intercept)
        calls.update(objective=0, prox=0)
        result = ista_fit(problem, Hyperparameters(0.1 * max(top, 0.1)), opts)
        assert result.iterations > 1
        assert calls["prox"] > result.iterations  # L0 is small enough to double
        assert calls["objective"] == 1 + calls["prox"]


@pytest.mark.parametrize("fit_intercept", [False, True])
def test_fista_first_two_steps_are_ista_steps(fit_intercept):
    # The momentum is zero on the first two steps, so both fits take the
    # same steps from the same iterates.
    rng = np.random.default_rng(20)
    for _ in range(6):
        problem = random_mixed_problem(rng)
        top = lam_max(problem, fit_intercept=fit_intercept)
        hyper = Hyperparameters(0.1 * max(top, 0.1), 0.1, 0.05)
        opts = SolverOptions(max_iter=2, L0=0.5, fit_intercept=fit_intercept)
        a = fista_fit(problem, hyper, opts)
        b = ista_fit(problem, hyper, opts)
        assert a.coef.W.tobytes() == b.coef.W.tobytes()
        if fit_intercept:
            assert a.coef.intercepts.tobytes() == b.coef.intercepts.tobytes()
        assert a.objective_trace.tobytes() == b.objective_trace.tobytes()
        assert (a.final_L, a.iterations, a.converged) == (b.final_L, b.iterations, b.converged)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), accelerated=st.booleans(),
       random_init=st.booleans())
def test_objective_trace_never_increases(seed, fit_intercept, accelerated, random_init):
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng)
    top = lam_max(problem, fit_intercept=fit_intercept)
    hyper = Hyperparameters(float(rng.uniform(0.0, 1.2)) * top,
                            float(rng.choice([0.0, 0.2])), float(rng.choice([0.0, 0.05])))
    opts = SolverOptions(max_iter=300, tol=1e-12, L0=float(rng.choice([0.01, 1.0, 100.0])),
                         fit_intercept=fit_intercept)
    w_init = CoefficientMatrix.zeros(problem.p, problem.t, fit_intercept)
    if random_init:
        w_init = CoefficientMatrix(rng.standard_normal((problem.p, problem.t)),
                                   rng.standard_normal(problem.t) if fit_intercept else None)
    fit = fista_fit if accelerated else ista_fit
    result = fit(problem, hyper, opts, w_init=w_init)
    trace = np.r_[full_objective(problem, w_init, hyper), result.objective_trace]
    assert np.all(np.diff(trace) <= 0.0)


def test_fista_fixed_point_characterization():
    rng = np.random.default_rng(12)
    problem = random_mixed_problem(rng, p=8, t=3, c=1, n_lo=10)
    hyper = Hyperparameters(0.3 * lam_max(problem), 0.1, 0.05)
    result = fista_fit(problem, hyper, TIGHT)
    assert result.converged
    gW, _ = smooth_gradient(problem, result.coef, hyper.alpha, hyper.beta)
    L = result.final_L
    reproduced = prox_l21(result.coef.W - gW / L, hyper.lam / L)
    npt.assert_allclose(reproduced, result.coef.W, atol=1e-6)


def test_fista_final_objective_not_above_initial():
    rng = np.random.default_rng(13)
    for _ in range(8):
        problem = random_mixed_problem(rng)
        hyper = Hyperparameters(0.1 * max(lam_max(problem), 0.1), 0.2, 0.1)
        w_init = CoefficientMatrix(rng.standard_normal((problem.p, problem.t)))
        result = fista_fit(problem, hyper, SolverOptions(max_iter=7), w_init=w_init)
        assert full_objective(problem, result.coef, hyper) <= full_objective(
            problem, w_init, hyper
        )


def test_fista_acceleration_sanity():
    rng = np.random.default_rng(14)
    opts = SolverOptions(max_iter=5000, tol=1e-10)
    wins = 0
    trials = 20
    for _ in range(trials):
        problem = random_mixed_problem(rng, n_lo=10)
        hyper = Hyperparameters(0.2 * max(lam_max(problem), 0.1), 0.05, 0.02)
        if fista_fit(problem, hyper, opts).iterations <= ista_fit(problem, hyper, opts).iterations:
            wins += 1
    assert wins >= 0.9 * trials


def test_fit_results_are_deterministic():
    rng = np.random.default_rng(15)
    problem = random_mixed_problem(rng, p=10, t=4, c=2)
    hyper = Hyperparameters(0.2 * lam_max(problem), 0.1, 0.05)
    a = fista_fit(problem, hyper)
    b = fista_fit(problem, hyper)
    npt.assert_array_equal(a.coef.W, b.coef.W)
    npt.assert_array_equal(a.objective_trace, b.objective_trace)
    assert (a.final_L, a.iterations, a.converged) == (b.final_L, b.iterations, b.converged)


def test_convergence_flag_and_iteration_bounds():
    rng = np.random.default_rng(16)
    problem = random_mixed_problem(rng, p=6, t=2, n_lo=8)
    hyper = Hyperparameters(0.3 * lam_max(problem))
    opts = SolverOptions(max_iter=500, tol=1e-9)
    result = fista_fit(problem, hyper, opts)
    assert result.iterations <= opts.max_iter
    assert result.converged
    trace = result.objective_trace
    if len(trace) >= 2:
        assert abs(trace[-1] - trace[-2]) <= opts.tol * max(1.0, abs(trace[-2]))


def test_intercept_only_solution_at_lam_max():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((30, 4))
    y = np.r_[np.ones(20), -np.ones(10)]
    clf = TaskDataset(X, y, "classification", "c")
    reg = TaskDataset(rng.standard_normal((25, 4)), rng.standard_normal(25) + 3.0, "regression", "r")
    problem = MtlProblem((clf, reg))
    opts = SolverOptions(fit_intercept=True)
    top = lam_max(problem, fit_intercept=True)
    result = fista_fit(problem, Hyperparameters(1.001 * top), opts)
    assert np.max(np.linalg.norm(result.coef.W, axis=1)) <= 1e-10
    assert result.coef.intercepts[0] == pytest.approx(np.log(2.0), abs=1e-4)
    assert result.coef.intercepts[1] == pytest.approx(problem.tasks[1].y.mean(), abs=1e-4)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_line_search_exhausts_doublings_on_extreme_curvature():
    # Curvature ~1e70 cannot be reached from L0=1 within 60 doublings, and
    # every candidate overshoots, so the search must give up loudly.
    X = np.array([[1e35], [-1e35]])
    y = np.array([1.0, -1.0])
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    with pytest.raises(SolverError, match="doublings"):
        line_search(problem, Hyperparameters(0.1), CoefficientMatrix.zeros(1, 1), 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_solver_reports_nonfinite_objective():
    X = np.array([[1.0], [2.0]])
    y = np.array([1e200, -1e200])  # finite inputs, squared loss overflows
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    with pytest.raises(SolverError):
        fista_fit(problem, Hyperparameters(0.1))
    with pytest.raises(SolverError):
        line_search(problem, Hyperparameters(0.1), CoefficientMatrix.zeros(1, 1), 1.0)


def test_w_init_validation():
    rng = np.random.default_rng(18)
    problem = random_mixed_problem(rng, p=4, t=2)
    with pytest.raises(ValueError):
        fista_fit(problem, Hyperparameters(0.1), w_init=CoefficientMatrix.zeros(5, 2))
    with pytest.raises(ValueError):
        fista_fit(
            problem,
            Hyperparameters(0.1),
            SolverOptions(fit_intercept=False),
            w_init=CoefficientMatrix.zeros(4, 2, fit_intercept=True),
        )
