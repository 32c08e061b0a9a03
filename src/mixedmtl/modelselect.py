"""Cross-validated penalty selection and evaluation metrics.

Cross-validation fits one warm-started path of k + 1 members in
lockstep on the problem's own X: a fold is a member that gives its
validation rows weight 0 and the rest the kind's loss weight over their
count, and member k + 1 fits every row, which gives the model at the
selected penalty without a refit: that member's fits are kept, point
by point, in regpath's kept-path type (_KeptPath), and the selected fit
is read back from it.  The CV criterion is the same weighted loss the
solver minimizes (2 x mean logit loss for classification tasks, 0.5 x
mean squared error for regression tasks): core's smooth objective
without its penalties, under the complementary weights (each fold's
validation rows over their count), divided by the number of tasks and
averaged over folds, so the selected penalty targets the objective
that was actually optimized.  It is taken from the fold members' scores
that the path keeps from point to point, with no product with X.
Folds are drawn per task; classification folds are stratified to keep
both classes in every split.

The single-task baseline runs the same body with one fit per member and
task: (k + 1) * t single-task fits in one batch, each task on its own
lam_max-anchored grid, with a task leaving the batch once its fits have
stopped.  Each task's selection equals cross-validation of that task
alone, bit for bit, and so do its errors: task by task, its folds
before its grid.  Either way cross-validation returns only its results,
one CvResult per selection.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DataError,
    Hyperparameters,
    MtlProblem,
    SolverOptions,
    TaskKind,
    _layout,
    _objective_from,
    _whole,
)
from .regpath import LambdaSequence, _KeptPath, _lam_max, _path, _start
from .regpath import lambda_sequence, path_options
from .regpath import lam_max, reg_path  # noqa: F401  (perfbench/tracing.py patches these here)
from .solver import FitResult

__all__ = [
    "CvResult",
    "kfold_split",
    "task_folds",
    "cross_validate",
    "auc",
    "explained_variance",
    "pseudo_explained_variance",
]


@dataclass(frozen=True)
class CvResult:
    """Per-penalty CV error curve, the selected penalty and its model.

    best_lambda attains the minimum mean error; ties go to the larger
    penalty (the sparser model).  fit is the full-data member's fit at
    best_lambda: the path on every row, warm-started from lam_max.
    unconverged counts the member fits along the path (folds and the
    full-data fit, every penalty) that stopped at max_iter.
    """

    sequence: LambdaSequence
    mean_cv_error: np.ndarray
    se_cv_error: np.ndarray
    best_lambda: float
    folds: int
    seed: int
    fit: FitResult
    unconverged: int

    def __post_init__(self):
        object.__setattr__(self, "mean_cv_error", np.array(self.mean_cv_error, dtype=float))
        object.__setattr__(self, "se_cv_error", np.array(self.se_cv_error, dtype=float))
        if self.mean_cv_error.shape[0] != self.sequence.length:
            raise ValueError("one mean error per penalty value is required")
        if self.se_cv_error.shape[0] != self.sequence.length:
            raise ValueError("one standard error per penalty value is required")


def kfold_split(N: int, k: int, seed) -> list:
    """Partition {0..N-1} into k disjoint folds with sizes differing by <= 1.

    Deterministic given the seed.
    """
    k = _whole("k", k, 2)
    if k > N:
        raise ValueError(f"cannot split {N} samples into {k} folds")
    try:
        rng = np.random.default_rng(seed)
    except ValueError:  # numpy's message for a negative seed names no parameter
        raise ValueError(f"seed must be >= 0, got {seed!r}") from None
    parts = np.array_split(rng.permutation(N), k)
    return [np.sort(part) for part in parts]


def _stratified_kfold_split(labels: np.ndarray, k: int, seed) -> list:
    """Per-class shuffled split so every fold keeps roughly the class ratio."""
    rng = np.random.default_rng(seed)
    pos = np.flatnonzero(labels > 0)
    neg = np.flatnonzero(labels <= 0)
    pos_parts = np.array_split(rng.permutation(pos), k)
    neg_parts = np.array_split(rng.permutation(neg), k)
    # array_split front-loads the larger chunks; rotate one class so the
    # leftovers land on different folds and no fold comes out empty.
    shift = len(pos) % k
    neg_parts = neg_parts[-shift:] + neg_parts[:-shift] if shift else neg_parts
    return [np.sort(np.concatenate([a, b])) for a, b in zip(pos_parts, neg_parts)]


def _task_seed(seed: int, name: str) -> list:
    # Mixing in the task name keeps a task's folds independent of which
    # other tasks happen to be present.
    return [_whole("seed", seed, 0), zlib.crc32(name.encode("utf-8"))]


def _task_fold(task, k: int, seed: int) -> list:
    if task.n_samples < k:
        raise DataError(f"task {task.name!r}: {task.n_samples} samples cannot form {k} folds")
    if task.kind is TaskKind.CLASSIFICATION:
        return _stratified_kfold_split(task.y, k, _task_seed(seed, task.name))
    return kfold_split(task.n_samples, k, _task_seed(seed, task.name))


def task_folds(problem: MtlProblem, k: int, seed: int) -> list:
    """Fold index sets per task (stratified for classification tasks)."""
    k = _whole("k", k, 2)
    return [_task_fold(task, k, seed) for task in problem.tasks]


def _member_rows(task, task_fold, k: int) -> np.ndarray:
    """The rows each member fits, (n, k + 1): member m < k every row
    outside fold m, member k every row."""
    fitted = np.ones((task.n_samples, k + 1), dtype=bool)
    for fold, val_idx in enumerate(task_fold):
        fitted[val_idx, fold] = False
    return fitted


def _check_fold(task, fitted, fold: int) -> None:
    if task.kind is TaskKind.CLASSIFICATION and len(np.unique(task.y[fitted[:, fold]])) < 2:
        raise DataError(f"fold {fold} leaves task {task.name!r} with a single class")


def _grids(norms, n_lambda, ratio) -> list:
    """The penalty grid of each selection (the joint one, or one per task in
    task order) from the full-data member's gradient row norms at the
    path's start (regpath._lam_max), so that member's fit at the head of a
    grid is exactly zero."""
    sequences = []
    for top in norms.max(axis=1).tolist():
        if n_lambda != 1:
            sequences.append(lambda_sequence(top, ratio=ratio, n=n_lambda))
        elif top > 0.0:
            sequences.append(LambdaSequence(values=np.array([top]), ratio=1.0))
        else:
            raise DataError("lam_max is zero; the data has no usable signal")
    return sequences


def cross_validate(
    problem: MtlProblem,
    alpha: float = 0.0,
    beta: float = 0.0,
    k: int = 10,
    seed: int = 0,
    opts: Optional[SolverOptions] = None,
    n_lambda: int = 100,
    ratio: float = 0.01,
    one_se: bool = False,
) -> CvResult:
    """Select the sparsity penalty by k-fold cross-validation.

    The penalty grid is computed once from the full problem and shared
    across folds.  one_se switches to the one-standard-error rule (the
    largest penalty whose mean error is within one SE of the minimum).
    """
    return _cross_validate(problem, alpha, beta, k, seed, opts, n_lambda, ratio, one_se)[0]


def _cross_validate(
    problem, alpha, beta, k, seed, opts, n_lambda, ratio, one_se, per_task=False
) -> list:
    """cross_validate's body.  per_task selects each task's penalty as
    cross_validate of that task alone would, in one batch.  Returns the
    CvResults: one for the joint fit, or one per task."""
    k, n_lambda = _whole("k", k, 2), _whole("n_lambda", n_lambda, 1)
    Hyperparameters(0.0, alpha, beta)  # rejects alpha and beta as fista_fit does
    opts = opts or path_options()

    tasks = problem.tasks
    if per_task:
        # Task by task, as separate cross-validations fail: a task's folds,
        # then its grid, before the next task's folds.
        rows = []
        try:
            for task in tasks:
                fitted = _member_rows(task, _task_fold(task, k, seed), k)
                for fold in range(k):
                    _check_fold(task, fitted, fold)
                rows.append(fitted)
        except DataError:
            if rows:
                checked = MtlProblem(tasks[: len(rows)])
                start = _start(checked, k + 1, opts.fit_intercept, per_task)
                _grids(_lam_max(_layout(checked, rows), *start)[k * len(rows):], n_lambda, ratio)
            raise
    else:
        rows = [_member_rows(task, _task_fold(task, k, seed), k) for task in tasks]
        for fold in range(k):
            for task, fitted in zip(tasks, rows):
                _check_fold(task, fitted, fold)
    members = _layout(problem, rows)
    validation = _layout(problem, [~fitted[:, :k] for fitted in rows])
    W, S = _start(problem, k + 1, opts.fit_intercept, per_task)
    # The start's gradient gives the grids and the path's first strong set.
    norms = _lam_max(members, W, S)
    # Fit m * units + u is member m's fit of selection u (the joint fit, or task u).
    units, t_fit = W.shape[0] // (k + 1), W.shape[1]
    sequences = _grids(norms[k * units:], n_lambda, ratio)
    lams = np.tile(np.stack([sequence.values for sequence in sequences], axis=1), (1, k + 1))
    fold_errors = np.empty((units, k, len(lams)))
    folds, full = slice(k * units), slice(k * units, None)
    kept, unconverged = _KeptPath(problem.p, full), [0] * units
    for j, fits in enumerate(_path(members, lams, alpha, beta, opts, W, S, norms)):
        # The fold members' kept scores under the validation weights.
        errors = _objective_from(validation, W[folds], S[:k], 0.0, 0.0) / t_fit
        fold_errors[:, :, j] = errors.reshape(k, units).T
        kept.keep(W, fits)
        for m, fit_converged in enumerate(fits[2]):
            unconverged[m % units] += not fit_converged

    results = []
    for u, sequence in enumerate(sequences):
        mean_err = fold_errors[u].mean(axis=0)
        se_err = fold_errors[u].std(axis=0, ddof=1) / np.sqrt(k)
        best_idx = int(np.argmin(mean_err))
        if one_se:
            threshold = mean_err[best_idx] + se_err[best_idx]
            best_idx = int(np.flatnonzero(mean_err <= threshold)[0])
        results.append(CvResult(
            sequence=sequence,
            mean_cv_error=mean_err,
            se_cv_error=se_err,
            best_lambda=float(sequence.values[best_idx]),
            folds=k,
            seed=int(seed),
            fit=kept.fit(best_idx, u),
            unconverged=unconverged[u],
        ))
    return results


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties count 1/2.

    Equals the fraction of (positive, negative) pairs where the positive
    sample scores higher.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    pos = labels > 0
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative label")
    # Average 1-based ranks over tied score groups.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    high = np.cumsum(counts)
    low = high - counts + 1
    ranks = ((low + high) / 2.0)[inverse]
    u_stat = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def explained_variance(pred, y) -> float:
    """1 - SS_res / SS_tot; can be negative for bad predictors."""
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    if pred.shape != y.shape or pred.ndim != 1:
        raise ValueError("pred and y must be 1-d arrays of equal length")
    if pred.shape[0] < 2:
        raise DataError("explained variance needs at least 2 samples")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DataError("explained variance is undefined for a constant outcome")
    ss_res = float(np.sum((y - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def pseudo_explained_variance(scores, labels) -> float:
    """Squared Pearson correlation between scores and -1/+1 labels.

    A bounded [0, 1] stand-in for explained variance on classification
    tasks; constant scores return 0 by convention.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    if np.all(labels > 0) or np.all(labels <= 0):
        raise DataError("both classes are required")
    return _squared_correlation(scores, labels)


def _squared_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Pearson correlation of two vectors; 0 when either is constant."""
    ca = a - a.mean()
    cb = b - b.mean()
    denom = float(np.vdot(ca, ca)) * float(np.vdot(cb, cb))
    if denom == 0.0:
        return 0.0
    r = float(np.vdot(ca, cb)) / np.sqrt(denom)
    return min(r * r, 1.0)
