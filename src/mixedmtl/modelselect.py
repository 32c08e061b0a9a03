"""Cross-validated penalty selection and evaluation metrics.

The CV criterion is the same weighted loss the solver minimizes (2 x mean
logit loss for classification tasks, 0.5 x mean squared error for
regression tasks; core's per-task loss, evaluated on each fold's
validation problem), averaged over tasks and then over folds, so the
selected penalty targets the objective that was actually optimized.
Folds are drawn per task; classification folds are stratified to keep
both classes in every split.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DataError,
    MtlProblem,
    SolverOptions,
    TaskDataset,
    TaskKind,
    _task_losses,
)
from .regpath import LambdaSequence, lam_max, lambda_sequence, path_options, reg_path

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
    """Per-penalty CV error curve and the selected penalty.

    best_lambda attains the minimum mean error; ties go to the larger
    penalty (the sparser model).
    """

    sequence: LambdaSequence
    mean_cv_error: np.ndarray
    se_cv_error: np.ndarray
    best_lambda: float
    folds: int
    seed: int

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
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > N:
        raise ValueError(f"cannot split {N} samples into {k} folds")
    rng = np.random.default_rng(seed)
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
    return [int(seed), zlib.crc32(name.encode("utf-8"))]


def task_folds(problem: MtlProblem, k: int, seed: int) -> list:
    """Fold index sets per task (stratified for classification tasks)."""
    folds = []
    for task in problem.tasks:
        if task.n_samples < k:
            raise DataError(
                f"task {task.name!r}: {task.n_samples} samples cannot form {k} folds"
            )
        if task.kind is TaskKind.CLASSIFICATION:
            folds.append(_stratified_kfold_split(task.y, k, _task_seed(seed, task.name)))
        else:
            folds.append(kfold_split(task.n_samples, k, _task_seed(seed, task.name)))
    return folds


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
    if k < 2:
        raise ValueError("k must be >= 2")
    opts = opts or path_options()

    lam_top = lam_max(problem, fit_intercept=opts.fit_intercept)
    if n_lambda == 1:
        if not lam_top > 0.0:
            raise DataError("lam_max is zero; the data has no usable signal")
        sequence = LambdaSequence(values=np.array([lam_top]), ratio=1.0)
    else:
        sequence = lambda_sequence(lam_top, ratio=ratio, n=n_lambda)

    folds = task_folds(problem, k, seed)
    fold_errors = np.empty((k, sequence.length))
    for fold in range(k):
        train_tasks = []
        val_tasks = []
        for i, task in enumerate(problem.tasks):
            val_idx = folds[i][fold]
            mask = np.ones(task.n_samples, dtype=bool)
            mask[val_idx] = False
            y_train = task.y[mask]
            if task.kind is TaskKind.CLASSIFICATION and len(np.unique(y_train)) < 2:
                raise DataError(
                    f"fold {fold} leaves task {task.name!r} with a single class"
                )
            train_tasks.append(TaskDataset(task.X[mask], y_train, task.kind, task.name))
            val_tasks.append(TaskDataset(task.X[val_idx], task.y[val_idx], task.kind, task.name))

        validation = MtlProblem(tuple(val_tasks))
        path = reg_path(MtlProblem(tuple(train_tasks)), sequence, alpha, beta, opts)
        for j, fit in enumerate(path.fits):
            losses = _task_losses(validation, fit.coef.W, fit.coef.intercepts)
            fold_errors[fold, j] = float(np.mean(losses))
        del validation  # drop this fold's copies before the next fold makes its own

    mean_err = fold_errors.mean(axis=0)
    se_err = fold_errors.std(axis=0, ddof=1) / np.sqrt(k)
    best_idx = int(np.argmin(mean_err))
    if one_se:
        threshold = mean_err[best_idx] + se_err[best_idx]
        best_idx = int(np.flatnonzero(mean_err <= threshold)[0])
    return CvResult(
        sequence=sequence,
        mean_cv_error=mean_err,
        se_cv_error=se_err,
        best_lambda=float(sequence.values[best_idx]),
        folds=k,
        seed=int(seed),
    )


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
    if pred.shape != y.shape or pred.ndim != 1 or pred.shape[0] < 2:
        raise ValueError("pred and y must be 1-d arrays of equal length >= 2")
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
