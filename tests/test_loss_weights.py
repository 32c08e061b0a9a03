"""What the fixed loss weights (2 on the logit loss, 0.5 on the least-squares
loss) do to joint feature selection, against equal weights 1 / 1.

Fixed-seed problems: p = 100 features, 5 classification and 5 regression
tasks of n = 200 rows each.  Rows 0-9 carry signal for the classification
tasks only and rows 10-19 for the regression tasks only, all with
coefficient 1; the other 80 rows are noise.  A row's norm in the loss
gradient at W = 0 orders the rows at the head of the path (lam_max is the
largest of them).
"""

import numpy as np
import pytest

from mixedmtl import MtlProblem, TaskDataset, path_options
from mixedmtl.core import _batch_gradient, _row_norms
from mixedmtl.regpath import NONZERO_ROW_THRESHOLD, _path

P, N = 100, 200
CLASSIFICATION_ROWS, REGRESSION_ROWS = set(range(10)), set(range(10, 20))


def _problem(seed, standardize_outcomes=True):
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(10):
        X = rng.standard_normal((N, P))
        w = np.zeros(P)
        if i < 5:
            w[:10] = 1.0
            y = np.where(rng.random(N) < 1.0 / (1.0 + np.exp(-X @ w)), 1.0, -1.0)
            tasks.append(TaskDataset(X, y, "classification", f"c{i}"))
        else:
            w[10:20] = 1.0
            y = X @ w + rng.standard_normal(N)
            if standardize_outcomes:
                y = (y - y.mean()) / y.std(ddof=1)
            tasks.append(TaskDataset(X, y, "regression", f"r{i}"))
    return MtlProblem(tuple(tasks))


def _equal_weights(blocks):
    """The _layout with every task's loss weight 1 in place of its kind's
    2 or 0.5: each member's row weights of a task rescaled to sum to 1."""
    return tuple(block._replace(M=block.M / block.M.sum(axis=2, keepdims=True))
                 for block in blocks)


def _zero_gradient_rows(problem, blocks):
    """Each row's norm in the loss gradient at W = 0 on the layout."""
    grad = _batch_gradient(blocks, np.zeros((1, problem.t, problem.p)), 0.0, 0.0)
    return _row_norms(grad)[0]


def _top_rows(problem, blocks, count=20):
    order = np.argsort(-_zero_gradient_rows(problem, blocks), kind="stable")
    return set(order[:count].tolist())


def _entry_points(problem, blocks, points=60):
    """The point at which each row first turns nonzero along a path of
    points penalties from the layout's own lam_max down to 0.05 of it
    (points for a row that never does)."""
    top = _zero_gradient_rows(problem, blocks).max()
    lams = np.geomspace(top, 0.05 * top, points)[:, None]
    W = np.zeros((1, problem.t, problem.p))
    entry = np.full(problem.p, points)
    for j, _ in enumerate(_path(blocks, lams, 0.0, 0.0, path_options(), W)):
        entered = np.linalg.norm(W[0], axis=0) > NONZERO_ROW_THRESHOLD
        entry[entered & (entry == points)] = j
    return entry


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_weights_rank_classification_only_rows_at_zero(seed):
    # With 2 / 0.5 the 20 rows of largest gradient at W = 0 are exactly the
    # 20 signal rows; with 1 / 1 the regression rows keep their places and
    # most classification rows fall behind noise rows.
    problem = _problem(seed)
    weighted = _top_rows(problem, problem._blocks)
    equal = _top_rows(problem, _equal_weights(problem._blocks))
    assert weighted == CLASSIFICATION_ROWS | REGRESSION_ROWS
    assert REGRESSION_ROWS <= equal
    assert len(equal & CLASSIFICATION_ROWS) <= 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_weights_need_standardized_regression_outcomes(seed):
    # Outcomes left on their own scale (sd about 3.3) inflate the regression
    # gradients, and the classification rows fall behind noise again.
    problem = _problem(seed, standardize_outcomes=False)
    top = _top_rows(problem, problem._blocks)
    assert REGRESSION_ROWS <= top
    assert len(top & CLASSIFICATION_ROWS) <= 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_weights_bring_every_signal_row_into_the_path_before_noise(seed):
    problem = _problem(seed)
    weighted = _entry_points(problem, problem._blocks)
    equal = _entry_points(problem, _equal_weights(problem._blocks))
    # With 2 / 0.5 the first 20 rows to enter are the signal rows, and the
    # last of them enters before any noise row does.
    assert set(np.argsort(weighted, kind="stable")[:20].tolist()) == set(range(20))
    assert weighted[:20].max() < weighted[20:].min()
    # Regression rows still tend to enter first at equal coefficients.
    assert np.median(weighted[10:20]) < np.median(weighted[:10])
    # With 1 / 1, on a grid anchored at its own lam_max, every classification
    # row enters later than the last one does with 2 / 0.5.
    assert equal[:10].min() > weighted[:10].max()
