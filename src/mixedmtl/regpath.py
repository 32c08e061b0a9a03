"""Penalty-strength sequence estimation and warm-started path fitting.

The path root lam_max is the smallest penalty for which the all-zero
coefficient matrix is optimal.  Thanks to the fixed loss weights (2 on
the logit loss, 0.5 on the least-squares loss) the cross-product matrix

    C[j, i] = (1/N_i) * sum_k y_k^(i) x_kj^(i)

is the negative loss gradient at W = 0 for classification and regression
tasks alike, so a single lam_max = max_j ||C[j, :]||_2 anchors both task
types.  The sequence is then interpolated geometrically down to
ratio * lam_max, and models are fitted in descending order, each warm
started from the previous solution.  One path loop runs a batch of
fits in lockstep, each on its own penalty grid: reg_path is its batch
of one, cross-validation runs its k folds and the full-data fit as
k + 1 members, each one joint fit or one fit per task (the single-task
baseline, where each task follows its own lam_max-anchored grid).  The
path fits one pair of coefficient arrays in place, point after point, so
a caller copies out what it keeps of a point before the next begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DataError,
    Hyperparameters,
    MtlProblem,
    SolverOptions,
    TaskKind,
    _batch_gradient,
    _row_norms,
)
from .solver import SolverError, _Workspace, _fit_result, _proximal_loop, _resolve_init
from .solver import fista_fit  # noqa: F401  (perfbench/tracing.py patches it here)

__all__ = [
    "NONZERO_ROW_THRESHOLD",
    "LambdaSequence",
    "PathResult",
    "path_options",
    "lam_max",
    "lambda_sequence",
    "reg_path",
]

# Row norm above which a feature counts as selected in path reports.
NONZERO_ROW_THRESHOLD = 1e-8


def path_options(fit_intercept: bool = False) -> SolverOptions:
    """Default solver settings for individual path points."""
    return SolverOptions(max_iter=100, tol=1e-6, L0=1.0, fit_intercept=fit_intercept)


@dataclass(frozen=True)
class LambdaSequence:
    """Strictly decreasing positive penalty values with geometric spacing."""

    values: np.ndarray
    ratio: float

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(values > 0.0):
            raise ValueError("penalty values must be positive")
        if np.any(np.diff(values) >= 0.0):
            raise ValueError("penalty values must be strictly decreasing")
        ratio = float(self.ratio)
        if not 0.0 < ratio <= 1.0 or (values.shape[0] > 1 and ratio >= 1.0):
            raise ValueError(f"ratio must lie in (0, 1), got {ratio!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ratio", ratio)

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PathResult:
    """One fit per penalty value, in descending-penalty order."""

    sequence: LambdaSequence
    fits: tuple
    nonzero_rows: np.ndarray

    def __post_init__(self):
        fits = tuple(self.fits)
        if len(fits) != self.sequence.length:
            raise ValueError("one fit per penalty value is required")
        object.__setattr__(self, "fits", fits)
        object.__setattr__(self, "nonzero_rows", np.array(self.nonzero_rows, dtype=int))


def _optimal_zero_intercepts(problem: MtlProblem) -> np.ndarray:
    """Per-task intercepts that are optimal while all coefficients are zero.

    Regression: the outcome mean.  Classification: the log odds
    log(n_pos / n_neg), the intercept-only logit fit.
    """
    intercepts = np.empty(problem.t)
    for i, task in enumerate(problem.tasks):
        if task.kind is TaskKind.CLASSIFICATION:
            n_pos = int(np.sum(task.y > 0))
            n_neg = task.n_samples - n_pos
            if n_pos == 0 or n_neg == 0:
                raise DataError(
                    f"task {task.name!r}: both classes are required to fit an intercept"
                )
            intercepts[i] = np.log(n_pos / n_neg)
        else:
            intercepts[i] = task.y.mean()
    return intercepts


def lam_max(problem: MtlProblem, fit_intercept: bool = False) -> float:
    """Smallest penalty for which the all-zero coefficient matrix is optimal.

    Equals the largest row norm of the negative loss gradient at W = 0
    (with intercepts first optimized at zero coefficients when enabled).
    Returns 0.0 for degenerate all-zero cross products; callers must not
    build a path from that.
    """
    return _lam_max(problem, fit_intercept, problem._blocks)[0]


def _lam_max(problem, fit_intercept, blocks, per_task=False) -> list:
    """lam_max of the last member of a core._layout of the problem (its
    own, or cross-validation's with the full-data fit last): one value for
    its joint fit, or one per task; taken with the solver's batched
    gradient and prox_l21's row norms, so without intercepts a path from
    zero then stays exactly zero at this penalty."""
    B, t, p = blocks[0][4].shape[0], problem.t, problem.p
    shape = (B * t, 1, p) if per_task else (B, t, p)  # a batch of fits, as the solver's
    b0 = None
    if fit_intercept:
        b0 = np.tile(_optimal_zero_intercepts(problem), (B, 1)).reshape(shape[:2])
    grad, _ = _batch_gradient(blocks, np.zeros(shape), b0, 0.0, 0.0)
    return _row_norms(grad)[-(shape[0] // B):].max(axis=1).tolist()


def lambda_sequence(lam_max_val: float, ratio: float = 0.01, n: int = 100) -> LambdaSequence:
    """Geometric grid of n values from lam_max_val down to ratio * lam_max_val."""
    if not lam_max_val > 0.0:
        raise DataError(f"lam_max must be positive to build a path, got {lam_max_val!r}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    values = np.geomspace(lam_max_val, ratio * lam_max_val, num=int(n))
    return LambdaSequence(values=values, ratio=float(ratio))


def reg_path(
    problem: MtlProblem,
    sequence: LambdaSequence,
    alpha: float = 0.0,
    beta: float = 0.0,
    opts: Optional[SolverOptions] = None,
) -> PathResult:
    """Fit the whole path in descending-penalty order with warm starts.

    The first fit starts from the all-zero matrix; every later fit starts
    from the previous solution.
    """
    Hyperparameters(0.0, alpha, beta)  # rejects alpha and beta as fista_fit does
    opts = opts or path_options()
    W, b = _resolve_init(problem, opts, None)
    path = _path(problem._blocks, sequence.values[:, None], alpha, beta, opts, W, b)
    fits = [_fit_result(W, b, point, 0) for point in path]
    nonzero = [np.sum(np.linalg.norm(f.coef.W, axis=1) > NONZERO_ROW_THRESHOLD) for f in fits]
    return PathResult(sequence=sequence, fits=tuple(fits), nonzero_rows=nonzero)


def _path(blocks, lams, alpha, beta, opts, W, b):
    """Warm-started path of the batch of fits (W, b) on a core._layout, fit
    m at lams[j][m] at point j: fits (W, b) in place, each point starting
    from the last, and yields each point's per-fit lists (those of
    solver._proximal_loop) once (W, b) holds its fits.  The points share
    one workspace, and each point starts from the F its predecessor
    returned, so a caller must not write (W, b) between points."""
    work, f = _Workspace.like(W), None
    for lam in lams:
        try:
            fits = _proximal_loop(blocks, lam, alpha, beta, opts, W, b, True, work, f)
        except SolverError as err:
            raise SolverError(f"path fit failed at lambda={float(lam[err.fit])!r}: {err}") from err
        f = fits[3]
        yield fits
