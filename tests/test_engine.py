"""Property tests for the evaluation engine in core.

The smooth objective and gradient of a mixed problem decompose by task
and equal the per-task formulas written out task by task, whatever the
padding of the per-kind layout; cross-validation scores each fold
member of its batched path with the very objective the solver
minimizes, evaluated on the fold's validation tasks.
"""

from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mixedmtl import (
    CoefficientMatrix,
    MtlProblem,
    TaskDataset,
    TaskKind,
    cross_validate,
    path_options,
    smooth_gradient,
    smooth_objective,
)
from mixedmtl import regpath
from mixedmtl.modelselect import task_folds

from util import random_mixed_problem

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _random_coef(rng, p, t, fit_intercept):
    intercepts = rng.standard_normal(t) if fit_intercept else None
    return CoefficientMatrix(rng.standard_normal((p, t)), intercepts)


def _column(coef, i):
    intercepts = None if coef.intercepts is None else coef.intercepts[i : i + 1]
    return CoefficientMatrix(coef.W[:, i : i + 1], intercepts)


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans())
def test_objective_and_gradient_decompose_by_task(seed, fit_intercept):
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng)
    coef = _random_coef(rng, problem.p, problem.t, fit_intercept)

    singles = [MtlProblem((task,)) for task in problem.tasks]
    total = sum(smooth_objective(single, _column(coef, i)) for i, single in enumerate(singles))
    npt.assert_allclose(smooth_objective(problem, coef), total, rtol=1e-12)

    # Relative to each column's scale: the single-task column is a contiguous
    # copy, whose product with X may round differently in the last bit.
    grad, grad_b = smooth_gradient(problem, coef)
    for i, single in enumerate(singles):
        g, g_b = smooth_gradient(single, _column(coef, i))
        joint, alone = grad[:, i], g[:, 0]
        if fit_intercept:
            joint, alone = np.append(joint, grad_b[i]), np.append(alone, g_b[0])
        else:
            assert grad_b is None and g_b is None
        npt.assert_allclose(joint, alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())


def _per_task_reference(problem, coef):
    """Weighted losses and gradients, task by task: 2 x mean logit loss
    with residual -y / (1 + exp(y s)), 0.5 x mean squared error with
    residual s - y, and (weight / n) X^T r with weight 2 or 1."""
    losses = []
    grad, grad_b = np.empty(coef.W.shape), np.empty(problem.t)
    for i, task in enumerate(problem.tasks):
        s = task.X @ coef.W[:, i]
        if coef.intercepts is not None:
            s = s + coef.intercepts[i]
        if task.kind is TaskKind.CLASSIFICATION:
            losses.append(2.0 * np.mean(np.logaddexp(0.0, -task.y * s)))
            r, weight = -task.y / (1.0 + np.exp(task.y * s)), 2.0
        else:
            losses.append(0.5 * np.mean((task.y - s) ** 2))
            r, weight = s - task.y, 1.0
        grad[:, i] = weight / task.n_samples * (task.X.T @ r)
        grad_b[i] = weight / task.n_samples * r.sum()
    return np.array(losses), grad, grad_b


@pytest.mark.parametrize("t, c", [(1, None), (None, 0), (None, "t"), (None, None)],
                         ids=["t=1", "c=0", "c=t", "mixed"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans())
def test_padded_engine_matches_per_task_reference(t, c, seed, fit_intercept):
    # Tasks draw 3 to 30 samples, so a kind with two or more tasks is padded.
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 7)) if t is None else t
    problem = random_mixed_problem(rng, t=t, c=t if c == "t" else c)
    coef = _random_coef(rng, problem.p, problem.t, fit_intercept)
    losses, grad_ref, grad_b_ref = _per_task_reference(problem, coef)
    npt.assert_allclose(smooth_objective(problem, coef), losses.sum(), rtol=1e-12)
    for i, task in enumerate(problem.tasks):
        alone = smooth_objective(MtlProblem((task,)), _column(coef, i))
        npt.assert_allclose(alone, losses[i], rtol=1e-12)
    # Relative to each column's scale: an entry can be a near-cancelling sum.
    grad, grad_b = smooth_gradient(problem, coef)
    for i in range(problem.t):
        scale = np.abs(grad_ref[:, i]).max()
        npt.assert_allclose(grad[:, i], grad_ref[:, i], rtol=1e-12, atol=1e-12 * scale)
    if fit_intercept:
        npt.assert_allclose(grad_b, grad_b_ref, rtol=1e-12, atol=1e-12 * np.abs(grad_b_ref).max())
    else:
        assert grad_b is None


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), k=st.integers(2, 3))
def test_cv_error_is_the_validation_objective_of_each_fold_fit(seed, fit_intercept, k):
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng, t=int(rng.integers(1, 4)), n_lo=8, n_hi=16)
    # Every training split keeps both classes when each class has two samples.
    assume(all(min(np.sum(task.y > 0), np.sum(task.y < 0)) >= 2
               for task in problem.tasks if task.kind is TaskKind.CLASSIFICATION))
    opts = path_options(fit_intercept)
    # The fold fits are the batched path's members, one call per penalty.
    batches = []

    def recording(*args):
        batch = proximal_loop(*args)
        batches.append(batch[2])
        return batch

    proximal_loop = regpath._proximal_loop
    with mock.patch.object(regpath, "_proximal_loop", recording):
        cv = cross_validate(problem, k=k, seed=seed, opts=opts, n_lambda=4, ratio=0.1)
    assert len(batches) == cv.sequence.length

    folds = task_folds(problem, k, seed)
    expected = np.zeros(cv.sequence.length)
    for fold in range(k):
        validation = MtlProblem(tuple(
            TaskDataset(task.X[task_fold[fold]], task.y[task_fold[fold]], task.kind, task.name)
            for task, task_fold in zip(problem.tasks, folds)
        ))
        for j, fits in enumerate(batches):
            expected[j] += smooth_objective(validation, fits[fold].coef) / problem.t
    npt.assert_allclose(cv.mean_cv_error, expected / k, rtol=1e-12, atol=0.0)
