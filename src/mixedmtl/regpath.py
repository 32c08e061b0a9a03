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
path fits one coefficient array in place, point after point (each
task's intercept, when fitted, as its last coefficient), so a caller
copies out what it keeps of a point before the next begins.
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
    _n_features,
    _row_norms,
    _whole,
)
from .solver import SolverError, _Workspace, _fit_result, _proximal_loop
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
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError(f"values must be positive and finite, got {values!r}")
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

    Equals the largest row norm of the negative loss gradient at the null
    model: W = 0, with each task's intercept-only fit when intercepts are
    fitted.  A path starts there, so at this penalty its head stays zero.
    Returns 0.0 for degenerate all-zero cross products; callers must not
    build a path from that.  Raises DataError when the cross products
    overflow.
    """
    return _lam_max(problem._blocks, _start(problem, 1, fit_intercept))[0]


def _start(problem, members, fit_intercept, per_task=False):
    """The start of a path of members (1, or cross-validation's k + 1): a
    batch of fits, one joint fit per member or one per member and task,
    at the null model: zero coefficients and, when intercepts are fitted,
    each task's intercept-only fit as its last coefficient."""
    t, p = problem.t, problem.p
    shape = (members * t, 1) if per_task else (members, t)  # a batch of fits, as the solver's
    W = np.zeros(shape + (p + 1 if fit_intercept else p,))
    if fit_intercept:
        W[..., p] = np.tile(_optimal_zero_intercepts(problem), (members, 1)).reshape(shape)
    return W


def _lam_max(blocks, W) -> list:
    """lam_max of the last member of the batch of fits W on a core._layout
    (reg_path's, or cross-validation's with the full-data fit last), W a
    path's _start: one value for its joint fit, or one per task; taken
    with the solver's batched gradient and prox_l21's row norms, so a path
    from W then stays at zero rows at this penalty."""
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _batch_gradient(blocks, W, 0.0, 0.0)
        norms = _row_norms(grad[..., : _n_features(blocks)])
    if not np.isfinite(norms).all():
        raise DataError("lam_max overflows: the cross products X^T y are too large; "
                        "rescale the features or outcomes")
    return norms[-(W.shape[0] // blocks[0][4].shape[0]):].max(axis=1).tolist()


def lambda_sequence(lam_max_val: float, ratio: float = 0.01, n: int = 100) -> LambdaSequence:
    """Geometric grid of n values from lam_max_val down to ratio * lam_max_val."""
    if not lam_max_val > 0.0:
        raise DataError(f"lam_max must be positive to build a path, got {lam_max_val!r}")
    if not lam_max_val < np.inf:
        raise ValueError(f"lam_max_val must be finite, got {lam_max_val!r}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio!r}")
    values = np.geomspace(lam_max_val, ratio * lam_max_val, num=_whole("n", n, 2))
    return LambdaSequence(values=values, ratio=float(ratio))


def reg_path(
    problem: MtlProblem,
    sequence: LambdaSequence,
    alpha: float = 0.0,
    beta: float = 0.0,
    opts: Optional[SolverOptions] = None,
) -> PathResult:
    """Fit the whole path in descending-penalty order with warm starts.

    The first fit starts from the null model, where lam_max is taken:
    zero coefficients and, when intercepts are fitted, each task's
    intercept-only fit.  Every later fit starts from the previous solution.
    """
    Hyperparameters(0.0, alpha, beta)  # rejects alpha and beta as fista_fit does
    opts = opts or path_options()
    W = _start(problem, 1, opts.fit_intercept)
    path = _path(problem._blocks, sequence.values[:, None], alpha, beta, opts, W)
    fits = [_fit_result(W, problem.p, point, 0) for point in path]
    nonzero = [np.sum(np.linalg.norm(f.coef.W, axis=1) > NONZERO_ROW_THRESHOLD) for f in fits]
    return PathResult(sequence=sequence, fits=tuple(fits), nonzero_rows=nonzero)


def _path(blocks, lams, alpha, beta, opts, W):
    """Warm-started path of the batch of fits W on a core._layout (shape
    (fits, t_fit, p), or (fits, t_fit, p + 1) with each task's intercept
    last), fit m at lams[j][m] at point j: fits W in place, each point
    starting from the last, and yields each point's per-fit lists (those
    of solver._proximal_loop) once W holds its fits.  The points share
    one workspace, and each point starts from the F its predecessor
    returned, so a caller must not write W between points."""
    work, f = _Workspace.like(W, _n_features(blocks)), None
    for lam in lams:
        try:
            fits = _proximal_loop(blocks, lam, alpha, beta, opts, W, True, work, f)
        except SolverError as err:
            raise SolverError(f"path fit failed at lambda={float(lam[err.fit])!r}: {err}") from err
        f = fits[3]
        yield fits
