import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mixedmtl.solver as solver_module
from mixedmtl import (
    CoefficientMatrix,
    Hyperparameters,
    LambdaSequence,
    MtlProblem,
    SolverError,
    SolverOptions,
    TaskDataset,
    TaskKind,
    fista_fit,
    full_objective,
    ista_fit,
    lam_max,
    lambda_sequence,
    line_search,
    prox_l21,
    reg_path,
    smooth_gradient,
)
from mixedmtl.core import _layout, _row_norms
from mixedmtl.modelselect import task_folds
from mixedmtl.regpath import _path

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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), row_at_tau=st.booleans(), zero_tau=st.booleans())
def test_prox_batch_returns_the_row_norms_of_its_output(seed, row_at_tau, zero_tau):
    # A batch (B, t, p) holds each member's matrix transposed: a row is V[b, :, j].
    rng = np.random.default_rng(seed)
    B, t, p = (int(n) for n in rng.integers(1, [5, 8, 30]))
    V = rng.standard_normal((B, t, p)) * rng.uniform(0.1, 3.0)
    V[:, :, rng.integers(p)] = 0.0
    in_norms = np.linalg.norm(V, axis=1)
    tau = rng.uniform(0.0, 2.0, size=B)
    if row_at_tau:
        tau[0] = in_norms[0, rng.integers(p)]
    if zero_tau:
        tau[-1] = 0.0
    out, norms = solver_module._prox_batch(V, tau)
    scale = max(in_norms.max(), 1.0)
    npt.assert_allclose(norms, np.linalg.norm(out, axis=1), rtol=1e-12, atol=1e-12 * scale)
    assert np.all(norms[in_norms <= tau[:, None]] == 0.0)
    for member, member_tau in zip(range(B), tau):
        npt.assert_allclose(out[member].T, prox_l21(V[member].T, member_tau), rtol=1e-14, atol=0.0)


def _magnitudes(lo, hi):
    """Floats of either sign with lo <= |x| <= hi, and zero."""
    size = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.one_of(st.just(0.0), size, size.map(lambda x: -x))


@st.composite
def _prox_cases(draw):
    """A batch V (fits, t_fit, p) with entries 0 or 1e-100 <= |v| <= 1e100,
    and one tau >= 0 per fit; some taus sit exactly at a row norm."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 9)))
    V = draw(hnp.arrays(float, shape, elements=_magnitudes(1e-100, 1e100)))
    tau = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=shape[0], max_size=shape[0])))
    norms = _row_norms(V)
    for fit in draw(st.sets(st.integers(0, shape[0] - 1))):
        tau[fit] = norms[fit, draw(st.integers(0, shape[2] - 1))]
    return V, tau


def _check_prox_rows(V, tau, out):
    """out is the prox of V (fits, t_fit, p) at tau per fit: a row is zero
    exactly when its norm is at most tau, else it is the row shrunk along
    its direction by tau."""
    norms = _row_norms(V)
    for fit, row in np.ndindex(norms.shape):
        v, y = V[fit, :, row], out[fit, :, row]
        if norms[fit, row] <= tau[fit]:
            assert np.all(y == 0.0)
            continue
        assert np.any(y != 0.0)
        v_norm = np.linalg.norm(v)
        npt.assert_allclose(y, (1.0 - tau[fit] / v_norm) * v, rtol=0.0, atol=1e-12 * v_norm)
        assert abs(np.linalg.norm(y) - (v_norm - tau[fit])) <= 1e-12 * v_norm


@settings(derandomize=True, deadline=None)
@given(case=_prox_cases())
def test_prox_batch_thresholds_rows_in_place_or_fresh(case):
    V, tau = case
    given_V = V.copy()
    out, norms = solver_module._prox_batch(V, tau)
    _check_prox_rows(V, tau, out)
    # Into arrays holding garbage, the result has the same bits.
    fits, _, p = V.shape
    buffers = np.full(V.shape, np.nan), np.full((fits, p), np.nan), np.full((fits, 1, p), np.nan)
    into, into_norms = solver_module._prox_batch(V, tau, *buffers)
    assert into is buffers[0] and np.shares_memory(into_norms, buffers[1])
    assert into.tobytes() == out.tobytes() and into_norms.tobytes() == norms.tobytes()
    assert V.tobytes() == given_V.tobytes()


@settings(derandomize=True, deadline=None)
@given(case=_prox_cases())
def test_prox_l21_thresholds_rows_and_leaves_its_input(case):
    V, tau = case
    matrix = V[0].T  # (p, t): a row is a feature
    given_matrix = matrix.copy()
    out = prox_l21(matrix, float(tau[0]))
    assert out.shape == matrix.shape and not np.shares_memory(out, matrix)
    _check_prox_rows(V[:1], tau[:1], out.T[None])
    assert matrix.tobytes() == given_matrix.tobytes()


@settings(derandomize=True, deadline=None)
@given(W=hnp.arrays(float, st.tuples(st.integers(1, 4), st.just(1), st.integers(1, 30)),
                    elements=_magnitudes(1e-150, 1e150)))
def test_one_column_row_norms_are_sqrt_of_squares_bit_for_bit(W):
    assert _row_norms(W).tobytes() == np.sqrt(W[:, 0] * W[:, 0]).tobytes()


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


@pytest.mark.parametrize("fit_intercept", [False, True])
def test_line_search_leaves_the_search_point_and_shares_no_memory_with_it(fit_intercept):
    rng = np.random.default_rng(8)
    problem = random_mixed_problem(rng, p=5, t=3)
    S = CoefficientMatrix(rng.standard_normal((5, 3)), rng.standard_normal(3) if fit_intercept else None)
    given_W = S.W.copy()
    given_b = None if S.intercepts is None else S.intercepts.copy()
    _, cand = line_search(problem, Hyperparameters(0.2), S, 0.1)
    assert S.W.tobytes() == given_W.tobytes()
    assert not np.shares_memory(cand.W, S.W)
    if fit_intercept:
        assert S.intercepts.tobytes() == given_b.tobytes()
        assert not np.shares_memory(cand.intercepts, S.intercepts)
        assert not np.shares_memory(cand.intercepts, S.W)


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


def test_step_size_falls_after_first_trial_steps():
    # From L0 far above the curvature every step passes at its first trial,
    # so L halves after each eight such turns instead of staying at L0.
    rng = np.random.default_rng(21)
    problem = random_mixed_problem(rng, p=8, t=3, c=1, n_lo=10)
    hyper = Hyperparameters(0.1 * lam_max(problem), 0.1, 0.05)
    for fit in (fista_fit, ista_fit):
        assert fit(problem, hyper, SolverOptions(L0=2.0**10)).final_L < 2.0**10


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), L0=st.sampled_from([2.0**-6, 0.3, 1.0, 100.0, 2.0**10]))
def test_step_size_stays_on_the_doubling_grid_and_zero_stays_exact(seed, L0):
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng)
    top = lam_max(problem)
    assume(top > 0.0)
    hyper = Hyperparameters(float(rng.uniform(0.05, 1.0)) * top,
                            float(rng.choice([0.0, 0.2])), float(rng.choice([0.0, 0.05])))
    opts = SolverOptions(max_iter=300, tol=1e-12, L0=L0)
    for fit in (fista_fit, ista_fit):
        mantissa, _ = math.frexp(fit(problem, hyper, opts).final_L / L0)
        assert mantissa == 0.5
    # L0 * 2**k scales g / L and lam / L exactly, so a fit from zero at or
    # above lam_max never leaves it.
    zero = np.zeros((problem.p, problem.t))
    for lam in (top, 1.5 * top):
        for fit in (fista_fit, ista_fit):
            npt.assert_array_equal(fit(problem, Hyperparameters(lam)).coef.W, zero)
        first = reg_path(problem, lambda_sequence(lam, n=3)).fits[0]
        npt.assert_array_equal(first.coef.W, zero)


def test_a_stopped_task_between_running_ones_leaves_the_batch(monkeypatch):
    # Single-task fits of one block: the middle task starts above its
    # lam_max and stops at once, so the batch keeps only the tasks on either
    # side of it; each fit is still that task's fit alone, bit for bit.
    rng = np.random.default_rng(22)
    problem = MtlProblem(tuple(
        TaskDataset(rng.standard_normal((12, 5)), rng.standard_normal(12), "regression", f"r{i}")
        for i in range(3)
    ))
    tops = [lam_max(MtlProblem((task,))) for task in problem.tasks]
    lam = [0.1 * tops[0], 2.0 * tops[1], 0.1 * tops[2]]
    cuts = []
    subset = solver_module._task_subset

    def recorded(blocks, alive):
        narrowed = subset(blocks, alive)
        cuts.append((alive.tolist(), [X for _, _, X, _, _ in narrowed]))
        return narrowed

    monkeypatch.setattr(solver_module, "_task_subset", recorded)
    opts = SolverOptions(max_iter=500, tol=1e-12)
    W = np.zeros((3, 1, 5))
    fits = solver_module._proximal_loop(problem._blocks, lam, 0.0, 0.0, opts, W, None, True)
    alive, stacks = cuts[0]
    assert alive == [True, False, True]
    assert len(stacks) == 1 and len(stacks[0]) == 2
    npt.assert_array_equal(stacks[0], [problem.tasks[0].X, problem.tasks[2].X])
    for i, task in enumerate(problem.tasks):
        alone = fista_fit(MtlProblem((task,)), Hyperparameters(lam[i]), opts)
        result = solver_module._fit_result(W, None, fits, i)
        assert result.coef.W.tobytes() == alone.coef.W.tobytes()
        assert result.objective_trace.tobytes() == alone.objective_trace.tobytes()
        assert (result.final_L, result.converged) == (alone.final_L, alone.converged)


def test_a_failure_after_the_batch_is_cut_names_the_fit_it_belongs_to(monkeypatch):
    # The middle task leaves the batch on its first turn, which moves the
    # last task's fit from position 2 to position 1.  A line search that
    # then fails there must name fit 2, and the path its penalty.
    rng = np.random.default_rng(22)
    problem = MtlProblem(tuple(
        TaskDataset(rng.standard_normal((12, 5)), rng.standard_normal(12), "regression", f"r{i}")
        for i in range(3)
    ))
    tops = [lam_max(MtlProblem((task,))) for task in problem.tasks]
    lam = np.array([0.1 * tops[0], 2.0 * tops[1], 0.3 * tops[2]])
    cuts = []
    subset, backtrack = solver_module._task_subset, solver_module._backtrack

    def recorded(blocks, alive):
        cuts.append(alive.tolist())
        return subset(blocks, alive)

    def failing(blocks, lam, *args):
        if cuts:
            raise SolverError("forced line search failure", len(lam) - 1)
        return backtrack(blocks, lam, *args)

    monkeypatch.setattr(solver_module, "_task_subset", recorded)
    monkeypatch.setattr(solver_module, "_backtrack", failing)
    opts = SolverOptions(max_iter=500, tol=1e-12)
    with pytest.raises(SolverError) as err:
        next(_path(problem._blocks, lam[None], 0.0, 0.0, opts, np.zeros((3, 1, 5)), None))
    assert cuts == [[True, False, True]]
    assert err.value.__cause__.fit == 2
    assert f"lambda={float(lam[2])!r}" in str(err.value)


@pytest.mark.parametrize("fit", [fista_fit, ista_fit])
def test_a_fit_leaves_the_callers_w_init_unchanged(fit):
    rng = np.random.default_rng(31)
    problem = random_mixed_problem(rng, p=6, t=3, c=1, n_lo=10, n_hi=20)
    coef = CoefficientMatrix(rng.standard_normal((6, 3)), rng.standard_normal(3))
    W_before, b_before = coef.W.copy(), coef.intercepts.copy()
    opts = SolverOptions(max_iter=50, fit_intercept=True)
    result = fit(problem, Hyperparameters(0.05), opts, w_init=coef)
    assert result.iterations > 0
    assert not np.array_equal(result.coef.W, W_before)
    assert not np.array_equal(result.coef.intercepts, b_before)
    npt.assert_array_equal(coef.W, W_before)
    npt.assert_array_equal(coef.intercepts, b_before)


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

    monkeypatch.setattr(solver_module, "_batch_objective",
                        counted("objective", solver_module._batch_objective))
    monkeypatch.setattr(solver_module, "_prox_batch", counted("prox", solver_module._prox_batch))
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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans())
def test_each_batch_member_matches_reg_path_on_its_own_rows(seed, fit_intercept):
    # Members as cross-validation builds them: member m < k fits every row
    # outside fold m, member k every row, all on the problem's own X.  Each
    # runs its own two-point warm-started path; member 0 sits above its
    # lam_max, so it stops earlier than the others.
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng, p=int(rng.integers(2, 11)), t=int(rng.integers(1, 4)),
                                   n_lo=8, n_hi=20)
    k = int(rng.integers(2, 4))
    rows = []
    for task, task_fold in zip(problem.tasks, task_folds(problem, k, seed)):
        fitted = np.ones((task.n_samples, k + 1), dtype=bool)
        for fold, val_idx in enumerate(task_fold):
            fitted[val_idx, fold] = False
        rows.append(fitted)
    copies = [
        MtlProblem(tuple(TaskDataset(task.X[fitted[:, m]], task.y[fitted[:, m]], task.kind,
                                     task.name) for task, fitted in zip(problem.tasks, rows)))
        for m in range(k + 1)
    ]
    assume(all(len(np.unique(task.y)) == 2 for copy in copies for task in copy.tasks
               if task.kind is TaskKind.CLASSIFICATION))
    alpha, beta = rng.uniform(0, 0.3), rng.uniform(0, 0.3)
    tops = np.array([max(lam_max(copy, fit_intercept=fit_intercept), 0.1) for copy in copies])
    factors = np.tile([0.5, 0.2], (k + 1, 1))
    factors[0] = [2.0, 1.5]
    lams = tops[:, None] * factors
    tight = SolverOptions(max_iter=20000, tol=1e-14, fit_intercept=fit_intercept)

    members = _layout(problem, rows)
    W = np.zeros((k + 1, problem.t, problem.p))
    b = np.zeros((k + 1, problem.t)) if fit_intercept else None
    for point in range(2):
        batch = solver_module._proximal_loop(
            members, lams[:, point], alpha, beta, tight, W, b, True
        )
        fits = [solver_module._fit_result(W, b, batch, m) for m in range(k + 1)]
        for m, (copy, fit) in enumerate(zip(copies, fits)):
            hyper = Hyperparameters(lams[m, point], alpha, beta)
            sequence = LambdaSequence(lams[m], ratio=factors[m, 1] / factors[m, 0])
            alone = reg_path(copy, sequence, alpha, beta, tight).fits[point]
            gap = full_objective(copy, fit.coef, hyper) - full_objective(copy, alone.coef, hyper)
            assert abs(gap) <= 1e-8, (m, point, gap)
        if not fit_intercept:
            assert fits[0].iterations == 1 < max(fit.iterations for fit in fits)
