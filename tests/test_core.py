import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mixedmtl import (
    CoefficientMatrix,
    DataError,
    Hyperparameters,
    MtlProblem,
    SolverOptions,
    TaskDataset,
    TaskKind,
    full_objective,
    l21_norm,
    make_centering,
    predict,
    sigmoid,
    smooth_gradient,
    smooth_objective,
    standardize,
)
from mixedmtl.core import _smooth_objective_raw

from util import random_labels, random_mixed_problem


# ---------------------------------------------------------------------------
# centering matrix


def test_make_centering_examples():
    npt.assert_array_equal(make_centering(1), [[0.0]])
    npt.assert_allclose(make_centering(2), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    npt.assert_allclose(make_centering(3)[0], [2 / 3, -1 / 3, -1 / 3], atol=1e-15)


@pytest.mark.parametrize("t", range(1, 9))
def test_make_centering_properties(t):
    G = make_centering(t)
    npt.assert_allclose(G @ np.ones(t), np.zeros(t), atol=1e-12)
    npt.assert_allclose(G @ G, G, atol=1e-12)
    npt.assert_array_equal(G, G.T)


def test_make_centering_rejects_bad_t():
    with pytest.raises(ValueError):
        make_centering(0)


# ---------------------------------------------------------------------------
# objective


def _independent_objective(problem, W, intercepts, alpha, beta):
    """Term-by-term re-evaluation with explicit loops and the G matmul."""
    total = 0.0
    for i, task in enumerate(problem.tasks):
        b = 0.0 if intercepts is None else intercepts[i]
        per_sample = []
        for k in range(task.n_samples):
            s = float(task.X[k] @ W[:, i]) + b
            if task.kind is TaskKind.CLASSIFICATION:
                per_sample.append(math.log(1.0 + math.exp(-task.y[k] * s)))
            else:
                per_sample.append((task.y[k] - s) ** 2)
        weight = 2.0 if task.kind is TaskKind.CLASSIFICATION else 0.5
        total += weight * sum(per_sample) / task.n_samples
    G = make_centering(problem.t)
    total += alpha * np.linalg.norm(W @ G, "fro") ** 2
    total += beta * np.linalg.norm(W, "fro") ** 2
    return total


def test_objective_zero_coefficients_classification():
    rng = np.random.default_rng(0)
    task = TaskDataset(rng.standard_normal((9, 4)), random_labels(rng, 9), "classification", "c")
    problem = MtlProblem((task,))
    value = smooth_objective(problem, CoefficientMatrix.zeros(4, 1))
    assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_objective_zero_coefficients_regression():
    task = TaskDataset([[1.0], [2.0]], [1.0, -1.0], "regression", "r")
    problem = MtlProblem((task,))
    value = smooth_objective(problem, CoefficientMatrix.zeros(1, 1))
    assert value == pytest.approx(0.5, abs=1e-15)


def test_objective_matches_independent_evaluation():
    rng = np.random.default_rng(1)
    for trial in range(10):
        problem = random_mixed_problem(rng, p=4, t=2)
        W = rng.standard_normal((4, 2))
        b = rng.standard_normal(2) if trial % 2 else None
        alpha, beta = rng.uniform(0, 1), rng.uniform(0, 1)
        got = smooth_objective(problem, CoefficientMatrix(W, b), alpha, beta)
        want = _independent_objective(problem, W, b, alpha, beta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# Scores where exp(-|u|) is 1, underflows, turns subnormal or vanishes, and
# where the loss itself overflows when doubled.  At 719.0566546666666 numpy's
# vectorized exp and libm's round the subnormal loss one ulp apart.
_LOGIT_EXAMPLES = (0.0, 5e-324, 36.7, 709.7, 719.0566546666666, 745.1, 1.7e308)


def _with_examples(test):
    for s in _LOGIT_EXAMPLES:
        for sign in (1.0, -1.0):
            for y in (1.0, -1.0):
                test = example(s=sign * s, y=y)(test)
    return test


@given(s=st.floats(allow_nan=False, allow_infinity=False), y=st.sampled_from([1.0, -1.0]))
@_with_examples
def test_logit_loss_matches_logaddexp(s, y):
    # One row, one feature, w = 1: F is twice the logit loss of the score s.
    problem = MtlProblem((TaskDataset([[s]], [y], "classification", "c"),))
    with np.errstate(over="ignore"):
        want = 2.0 * np.logaddexp(0.0, -y * s)
    # The loss raises no warning; only where F itself exceeds the largest
    # float does the weighted sum overflow (to inf), and warn.
    with np.errstate(over="ignore" if math.isinf(want) else "warn"):
        got = smooth_objective(problem, CoefficientMatrix([[1.0]]))
    assert not math.isnan(got)
    if want == 0.0:
        assert got == 0.0
    else:
        # The absolute floor is one subnormal ulp of the loss, doubled.
        npt.assert_allclose(got, want, rtol=2e-15, atol=2 * 5e-324)


def test_full_objective():
    rng = np.random.default_rng(2)
    problem = random_mixed_problem(rng, p=5, t=3)
    zero = CoefficientMatrix.zeros(5, 3)
    assert full_objective(problem, zero, Hyperparameters(3.0)) == smooth_objective(problem, zero)

    W = rng.standard_normal((5, 3))
    coef = CoefficientMatrix(W)
    assert full_objective(problem, coef, Hyperparameters(0.0, 0.2, 0.3)) == pytest.approx(
        smooth_objective(problem, coef, 0.2, 0.3), rel=1e-15
    )
    want = _independent_objective(problem, W, None, 0.0, 0.0) + 2.0 * sum(
        np.linalg.norm(W[j]) for j in range(5)
    )
    assert full_objective(problem, coef, Hyperparameters(2.0)) == pytest.approx(want, rel=1e-12)


def test_objective_rejects_dimension_mismatch():
    rng = np.random.default_rng(3)
    problem = random_mixed_problem(rng, p=4, t=2)
    with pytest.raises(ValueError):
        smooth_objective(problem, CoefficientMatrix.zeros(5, 2))
    with pytest.raises(ValueError):
        smooth_gradient(problem, CoefficientMatrix.zeros(4, 3))


def test_objective_convex_along_segments():
    rng = np.random.default_rng(4)
    for _ in range(30):
        problem = random_mixed_problem(rng, p=5, t=3)
        A = rng.standard_normal((5, 3))
        B = rng.standard_normal((5, 3))
        alpha, beta = rng.uniform(0, 1), rng.uniform(0, 1)
        fa = _smooth_objective_raw(problem, A, None, alpha, beta)
        fb = _smooth_objective_raw(problem, B, None, alpha, beta)
        fm = _smooth_objective_raw(problem, (A + B) / 2.0, None, alpha, beta)
        assert fm <= (fa + fb) / 2.0 + 1e-10


def test_centering_penalty_zero_iff_rows_constant():
    rng = np.random.default_rng(5)
    problem = random_mixed_problem(rng, p=4, t=3)
    # Integer-valued constant rows: the cross-task mean is exact, so the
    # centering penalty vanishes identically.
    W = np.tile(rng.integers(-5, 6, size=(4, 1)).astype(float), (1, 3))
    coef = CoefficientMatrix(W)
    assert smooth_objective(problem, coef, alpha=1.0) == smooth_objective(problem, coef)

    W2 = W.copy()
    W2[2, 0] += 1.0
    coef2 = CoefficientMatrix(W2)
    assert smooth_objective(problem, coef2, alpha=1.0) > smooth_objective(problem, coef2)


# ---------------------------------------------------------------------------
# l21 norm


def test_l21_norm_examples():
    assert l21_norm(np.zeros((3, 2))) == 0.0
    assert l21_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-15)
    assert l21_norm(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(2.0, abs=1e-15)


def test_l21_norm_positively_homogeneous():
    rng = np.random.default_rng(6)
    for _ in range(20):
        W = rng.standard_normal((6, 3))
        scale = rng.uniform(-4, 4)
        assert l21_norm(scale * W) == pytest.approx(abs(scale) * l21_norm(W), rel=1e-12)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_coefficients_regression():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    gW, gb = smooth_gradient(problem, CoefficientMatrix.zeros(5, 1))
    npt.assert_allclose(gW[:, 0], -(X.T @ y) / 12, rtol=1e-14)
    assert gb is None


def test_gradient_zero_coefficients_classification_cancellation():
    # The factor 2 on the logit loss cancels sigmoid(0) = 1/2, so both task
    # kinds share the gradient -(1/N) X^T y at zero coefficients.
    rng = np.random.default_rng(8)
    X = rng.standard_normal((14, 5))
    y = random_labels(rng, 14)
    clf = MtlProblem((TaskDataset(X, y, "classification", "c"),))
    reg = MtlProblem((TaskDataset(X, y.astype(float), "regression", "r"),))
    g_clf, _ = smooth_gradient(clf, CoefficientMatrix.zeros(5, 1))
    g_reg, _ = smooth_gradient(reg, CoefficientMatrix.zeros(5, 1))
    npt.assert_allclose(g_clf, -(X.T @ y)[:, None] / 14, rtol=0, atol=1e-12)
    npt.assert_allclose(g_clf, g_reg, rtol=0, atol=1e-12)


def _finite_difference_gradient(problem, W, b, alpha, beta, h=1e-6):
    num_W = np.zeros_like(W)
    for j in range(W.shape[0]):
        for i in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[j, i] += h
            Wm[j, i] -= h
            num_W[j, i] = (
                _smooth_objective_raw(problem, Wp, b, alpha, beta)
                - _smooth_objective_raw(problem, Wm, b, alpha, beta)
            ) / (2.0 * h)
    num_b = None
    if b is not None:
        num_b = np.zeros_like(b)
        for i in range(b.shape[0]):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            num_b[i] = (
                _smooth_objective_raw(problem, W, bp, alpha, beta)
                - _smooth_objective_raw(problem, W, bm, alpha, beta)
            ) / (2.0 * h)
    return num_W, num_b


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for trial in range(12):
        problem = random_mixed_problem(rng)
        W = 0.5 * rng.standard_normal((problem.p, problem.t))
        b = 0.5 * rng.standard_normal(problem.t) if trial % 2 else None
        alpha, beta = rng.uniform(0, 1), rng.uniform(0, 1)
        gW, gb = smooth_gradient(problem, CoefficientMatrix(W, b), alpha, beta)
        num_W, num_b = _finite_difference_gradient(problem, W, b, alpha, beta)
        err = np.max(np.abs(gW - num_W) / np.maximum(np.abs(num_W), 1.0))
        assert err <= 1e-5
        if b is not None:
            err_b = np.max(np.abs(gb - num_b) / np.maximum(np.abs(num_b), 1.0))
            assert err_b <= 1e-5


# ---------------------------------------------------------------------------
# prediction


def test_predict_zero_coefficients_gives_half_probability():
    X = np.array([[0.3, -2.0], [4.0, 1.0]])
    out = predict(X, np.zeros(2), "classification")
    npt.assert_array_equal(out, [0.5, 0.5])


def test_predict_regression_scores():
    out = predict(np.array([[2.0], [-1.0]]), np.array([1.0]), "regression")
    npt.assert_array_equal(out, [2.0, -1.0])


def test_predict_logistic_value():
    out = predict(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]), "classification")
    assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-12)


def test_predict_labels_and_intercept():
    X = np.array([[1.0], [-1.0], [0.0]])
    labels = predict(X, np.array([1.0]), "classification", output="label")
    npt.assert_array_equal(labels, [1.0, -1.0, 1.0])  # sign(0) maps to +1
    scores = predict(X, np.array([1.0]), "regression", intercept=2.0)
    npt.assert_array_equal(scores, [3.0, 1.0, 2.0])


def test_predict_errors():
    with pytest.raises(ValueError):
        predict(np.ones((2, 3)), np.ones(2), "regression")
    with pytest.raises(ValueError):
        predict(np.ones((2, 2)), np.ones(2), "regression", output="label")
    with pytest.raises(ValueError):
        predict(np.ones((2, 2)), np.ones(2), "classification", output="nonsense")


def test_sigmoid_stable_at_extremes():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    assert sigmoid(0.0) == 0.5


# ---------------------------------------------------------------------------
# standardization


def test_standardize_simple_column():
    task = TaskDataset([[1.0], [2.0], [3.0]], [0.5, 0.5, 0.5], "regression", "r")
    out, record = standardize(MtlProblem((task,)))
    npt.assert_allclose(out.tasks[0].X[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
    assert record.tasks[0].outcome_mean is None


def test_standardize_idempotent():
    rng = np.random.default_rng(10)
    task = TaskDataset(rng.standard_normal((20, 4)), rng.standard_normal(20), "regression", "r")
    once, _ = standardize(MtlProblem((task,)))
    twice, _ = standardize(once)
    npt.assert_allclose(once.tasks[0].X, twice.tasks[0].X, atol=1e-12)


def test_standardize_constant_column_zeroed_and_flagged():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    task = TaskDataset(X, [1.0, 2.0, 3.0], "regression", "r")
    out, record = standardize(MtlProblem((task,)))
    npt.assert_array_equal(out.tasks[0].X[:, 0], [0.0, 0.0, 0.0])
    npt.assert_array_equal(record.tasks[0].constant_features, [True, False])


def test_standardize_moments():
    rng = np.random.default_rng(11)
    problem = random_mixed_problem(rng, p=5, t=3, n_lo=5)
    out, _ = standardize(problem, standardize_regression_outcomes=True)
    for task in out.tasks:
        npt.assert_allclose(task.X.mean(axis=0), np.zeros(5), atol=1e-12)
        npt.assert_allclose(task.X.std(axis=0, ddof=1), np.ones(5), atol=1e-12)
        if task.kind is TaskKind.REGRESSION:
            assert task.y.mean() == pytest.approx(0.0, abs=1e-12)
            assert task.y.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        else:
            assert set(np.unique(task.y)) <= {-1.0, 1.0}


def test_standardize_record_round_trip():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((15, 3)) * 4.0 + 2.0
    y = rng.standard_normal(15) * 3.0 - 1.0
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    out, record = standardize(problem, standardize_regression_outcomes=True)
    npt.assert_allclose(record.tasks[0].transform_features(X), out.tasks[0].X, atol=1e-12)
    npt.assert_allclose(record.tasks[0].transform_outcome(y), out.tasks[0].y, atol=1e-12)
    npt.assert_allclose(record.tasks[0].inverse_outcome(out.tasks[0].y), y, atol=1e-12)


def test_standardize_applies_its_record_bit_for_bit():
    rng = np.random.default_rng(13)
    problem = random_mixed_problem(rng, p=5, t=4, c=2, n_lo=4)
    tasks = list(problem.tasks)
    X = tasks[0].X.copy()
    X[:, 1] = 2.5  # a constant column
    tasks[0] = TaskDataset(X, tasks[0].y, tasks[0].kind, tasks[0].name)
    last = tasks[-1]
    tasks[-1] = TaskDataset(last.X, np.full(last.n_samples, 4.0), last.kind, last.name)
    problem = MtlProblem(tuple(tasks))
    for outcomes in (False, True):
        out, record = standardize(problem, standardize_regression_outcomes=outcomes)
        for task, done, transform in zip(problem.tasks, out.tasks, record.tasks):
            assert done.X.tobytes() == transform.transform_features(task.X).tobytes()
            if transform.outcome_mean is None:
                assert done.y.tobytes() == task.y.tobytes()
            else:
                assert done.y.tobytes() == transform.transform_outcome(task.y).tobytes()
        assert record.tasks[0].constant_features[1]
        assert (record.tasks[-1].outcome_scale == 0.0) is outcomes


def test_standardize_needs_two_samples():
    task = TaskDataset([[1.0, 2.0]], [1.0], "regression", "r")
    with pytest.raises(DataError):
        standardize(MtlProblem((task,)))


# ---------------------------------------------------------------------------
# container validation


def test_task_dataset_validation():
    with pytest.raises(DataError):
        TaskDataset([[1.0]], [0.5], "classification", "bad-labels")
    with pytest.raises(DataError):
        TaskDataset([[np.nan]], [1.0], "regression", "nan-x")
    with pytest.raises(DataError):
        TaskDataset([[1.0]], [np.inf], "regression", "inf-y")
    with pytest.raises(DataError):
        TaskDataset(np.empty((0, 2)), np.empty(0), "regression", "empty")
    with pytest.raises(DataError):
        TaskDataset([[1.0], [2.0]], [1.0], "regression", "length-mismatch")
    with pytest.raises(ValueError):
        TaskDataset([[1.0]], [1.0], "ordinal", "bad-kind")


def test_problem_validation():
    reg = TaskDataset([[1.0]], [2.0], "regression", "r")
    clf = TaskDataset([[1.0]], [1.0], "classification", "c")
    wide = TaskDataset([[1.0, 2.0]], [2.0], "regression", "wide")
    with pytest.raises(DataError):
        MtlProblem(())
    with pytest.raises(DataError):
        MtlProblem((reg, clf))  # classification must come first
    with pytest.raises(DataError):
        MtlProblem((clf, wide))  # inconsistent feature count
    with pytest.raises(DataError):
        MtlProblem((reg, TaskDataset([[3.0]], [1.0], "regression", "r")))  # duplicate name
    problem = MtlProblem((clf, reg))
    assert (problem.c, problem.t, problem.p) == (1, 2, 1)


def test_coefficients_and_options_validation():
    with pytest.raises(DataError):
        CoefficientMatrix(np.array([[np.nan]]))
    with pytest.raises(DataError):
        CoefficientMatrix(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Hyperparameters(-1.0)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, beta=-0.1)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(L0=-1.0)
