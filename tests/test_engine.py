"""Property tests for the per-task evaluation engine in core.

The smooth objective and gradient of a mixed problem decompose by task,
and cross-validation scores each path fit with the very objective the
solver minimizes, evaluated on the fold's validation tasks.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mixedmtl import (
    CoefficientMatrix,
    MtlProblem,
    TaskDataset,
    TaskKind,
    cross_validate,
    path_options,
    reg_path,
    smooth_gradient,
    smooth_objective,
)
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


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), k=st.integers(2, 3))
def test_cv_error_is_the_validation_objective_of_each_fold_fit(seed, fit_intercept, k):
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng, t=int(rng.integers(1, 4)), n_lo=8, n_hi=16)
    # Every training split keeps both classes when each class has two samples.
    assume(all(min(np.sum(task.y > 0), np.sum(task.y < 0)) >= 2
               for task in problem.tasks if task.kind is TaskKind.CLASSIFICATION))
    opts = path_options(fit_intercept)
    cv = cross_validate(problem, k=k, seed=seed, opts=opts, n_lambda=4, ratio=0.1)

    folds = task_folds(problem, k, seed)
    expected = np.zeros(cv.sequence.length)
    for fold in range(k):
        train, validation = [], []
        for task, task_fold in zip(problem.tasks, folds):
            val_idx = task_fold[fold]
            mask = np.ones(task.n_samples, dtype=bool)
            mask[val_idx] = False
            train.append(TaskDataset(task.X[mask], task.y[mask], task.kind, task.name))
            validation.append(TaskDataset(task.X[val_idx], task.y[val_idx], task.kind, task.name))
        validation = MtlProblem(tuple(validation))
        path = reg_path(MtlProblem(tuple(train)), cv.sequence, opts=opts)
        for j, fit in enumerate(path.fits):
            expected[j] += smooth_objective(validation, fit.coef) / problem.t
    npt.assert_allclose(cv.mean_cv_error, expected / k, rtol=1e-12, atol=0.0)
