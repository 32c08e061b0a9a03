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
task's intercept, when fitted, as its last coefficient), with one array
of their scores beside it, so each point starts from the scores its
predecessor ended with.  The start is the null model, whose scores need
no product (0, or each task's intercept), and whose one gradient gives
lam_max and the first strong set.

The head of a path selects few rows, so a point is solved on a working
set: the batch's nonzero rows and the rows the sequential strong rule
(Tibshirani et al. 2012) keeps, on a layout gathered to those columns of
X.  One full gradient then certifies the point, as Celer's working sets
are (Massias, Gramfort, Salmon 2018): a zero row that violates the KKT
conditions joins the set and the point is solved again.  Sets are
gathered only while they have at most p // 32 rows, so the copy is at
most 1/32 of X; the first point over that cap turns the path to the full
layout, where it stays and takes no gradient of its own.

A caller keeps a point in a _KeptPath before the next begins: the
nonzero rows, intercepts and per-fit lists of the fits it selects
(reg_path's one fit, or cross-validation's full-data member), from
which it reads any kept fit back as a FitResult.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DataError,
    Hyperparameters,
    MtlProblem,
    SolverOptions,
    TaskKind,
    _feature_subset,
    _gradient_from,
    _n_features,
    _row_norms,
    _scores,
    _whole,
)
from .solver import FitResult, SolverError, _Workspace, _fit_result, _proximal_loop
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
# A path point is solved on a gathered working set while the set has at
# most p // _GATHER_DIVISOR rows: its copy of X's columns is then at most
# 1/32 of X.
_GATHER_DIVISOR = 32


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
    """One fit per penalty value, in descending-penalty order.

    fits is the path as _KeptPath keeps it, a read-only sequence (length,
    indexing, slicing, iteration) over its points, each as its nonzero
    rows: a FitResult, with its dense coef.W, is built each time a fit is
    read, so nothing dense outlives its reader.  A row that is zero in a
    fit reads +0.0.
    nonzero_rows counts each fit's rows whose norm exceeds
    NONZERO_ROW_THRESHOLD.
    """

    sequence: LambdaSequence
    fits: Sequence
    nonzero_rows: np.ndarray

    def __post_init__(self):
        if len(self.fits) != self.sequence.length:
            raise ValueError("one fit per penalty value is required")
        object.__setattr__(self, "nonzero_rows", np.array(self.nonzero_rows, dtype=int))


class _KeptPath(Sequence):
    """A path as it is kept: at each point the fits that select picks of
    the batch (all of them for reg_path, the full-data member's for
    cross-validation) as the features nonzero in any of them, their
    coefficients and the intercept column (empty without intercepts),
    with their per-fit lists (solver._proximal_loop's).  Nothing dense is
    kept: a fit is built as a FitResult when it is read, and every zero in
    its coef.W, kept or left out, reads +0.0.  As PathResult.fits it reads
    each point's first fit."""

    def __init__(self, p, select=slice(None)):
        self._p, self._select, self._points = p, select, []

    def keep(self, W, fits) -> None:
        """Keep the point the batch W holds, with its per-fit lists fits."""
        W, p = W[self._select], self._p
        rows = np.flatnonzero(W[..., :p].any(axis=(0, 1)))
        values, lists = W[..., rows], [x[self._select] for x in fits[:3]]
        values += 0.0  # -0.0 reads +0.0, as in the rows left out
        self._points.append((rows, values, W[..., p:].copy(), lists))

    def fit(self, j, i=0) -> FitResult:
        """Kept fit i of point j."""
        rows, values, intercepts, lists = self._points[j]
        W = np.zeros(values.shape[:2] + (self._p + intercepts.shape[2],))
        W[..., rows] = values
        W[..., self._p:] = intercepts
        return _fit_result(W, self._p, lists, i)

    def nonzero_rows(self) -> list:
        """Each point's count of rows whose norm over its kept fits exceeds
        NONZERO_ROW_THRESHOLD, each norm as the dense (p, t) fit's row
        would give it."""
        return [np.sum(np.linalg.norm(np.ascontiguousarray(np.vstack(values).T), axis=1)
                       > NONZERO_ROW_THRESHOLD) for _, values, _, _ in self._points]

    def __len__(self):
        return len(self._points)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return self.fit(index)


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
    return float(_lam_max(problem._blocks, *_start(problem, 1, fit_intercept)).max())


def _start(problem, members, fit_intercept, per_task=False):
    """The start of a path of members (1, or cross-validation's k + 1): a
    batch of fits, one joint fit per member or one per member and task,
    at the null model: zero coefficients and, when intercepts are fitted,
    each task's intercept-only fit as its last coefficient.  Returns it
    with its scores (core._scores), which need no product: each task's
    intercept on its rows, or 0."""
    t, p = problem.t, problem.p
    shape = (members * t, 1) if per_task else (members, t)  # a batch of fits, as the solver's
    W = np.zeros(shape + (p + 1 if fit_intercept else p,))
    S = np.zeros((members, sum(task.n_samples for task in problem.tasks)))
    if fit_intercept:
        intercepts = _optimal_zero_intercepts(problem)
        W[..., p] = np.tile(intercepts, (members, 1)).reshape(shape)
        S[:] = np.repeat(intercepts, [task.n_samples for task in problem.tasks])
    return W, S


def _lam_max(blocks, W, S) -> np.ndarray:
    """The gradient row norms (fits, p) of the batch of fits W on a
    core._layout at a path's _start, with its scores S: the largest of a
    fit's is its lam_max, taken with the solver's gradient and prox_l21's
    row norms, so a path from W then stays at zero rows at this penalty.
    A path's first strong set reads them too."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _gradient_norms(blocks, W, S, 0.0, 0.0)
    if not np.isfinite(norms).all():
        raise DataError("lam_max overflows: the cross products X^T y are too large; "
                        "rescale the features or outcomes")
    return norms


def _gradient_norms(blocks, W, S, alpha, beta) -> np.ndarray:
    """The row norms (fits, p) of the gradient of F at the batch W with
    scores S: one product X^T R."""
    return _row_norms(_gradient_from(blocks, W, S, alpha, beta)[..., : _n_features(blocks)])


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
    Each point is kept as its nonzero rows, and its FitResult is built
    when PathResult.fits is read.
    """
    Hyperparameters(0.0, alpha, beta)  # rejects alpha and beta as fista_fit does
    opts = opts or path_options()
    (W, S), kept = _start(problem, 1, opts.fit_intercept), _KeptPath(problem.p)
    for fits in _path(problem._blocks, sequence.values[:, None], alpha, beta, opts, W, S):
        kept.keep(W, fits)
    return PathResult(sequence=sequence, fits=kept, nonzero_rows=kept.nonzero_rows())


def _strong_rows(norms, lam, previous) -> np.ndarray:
    """The sequential strong set (Tibshirani et al. 2012) of a point at
    penalties lam after one at previous: the rows whose gradient norm at
    the previous solution reaches 2 lam - previous for some fit."""
    return (norms >= (2.0 * lam - previous)[:, None]).any(axis=0)


def _path(blocks, lams, alpha, beta, opts, W, S=None, norms=None):
    """Warm-started path of the batch of fits W on a core._layout (shape
    (fits, t_fit, p), or (fits, t_fit, p + 1) with each task's intercept
    last), fit m at lams[j][m] at point j: fits W in place, each point
    starting from the last, and yields each point's per-fit lists (those
    of solver._proximal_loop) once W holds its fits.  S, when given,
    holds W's scores (core._scores), and the path writes them in place
    with W; without it the path scores W itself.  norms are W's gradient
    row norms (_lam_max's); without them the path takes them.

    A point's working set is the batch's nonzero rows and its strong
    rows.  While it has at most p // _GATHER_DIVISOR rows, the point is
    solved on a layout gathered to them (core._feature_subset), from the
    same scores (the rows left out are zero), and then certified by one
    full gradient: a row outside the set whose gradient norm exceeds some
    fit's penalty joins it, and the point is solved again from where it
    stopped, its trace continued.  A descending path's sets only grow, so
    the first point over that cap turns the path to the full layout for
    good, with one workspace for the rest and no extra gradient.  So the
    path takes no product with X outside its line searches but its start
    gradient and one gradient per gathered solve.  A caller must not
    write W or S between points."""
    S = _scores(blocks, W) if S is None else S
    p, work = _n_features(blocks), None
    norms = _gradient_norms(blocks, W, S, alpha, beta) if norms is None else norms
    previous = lams[0]
    for lam in lams:
        if work is None:
            rows = W[..., :p].any(axis=(0, 1)) | _strong_rows(norms, lam, previous)
            rows[norms.max(axis=0).argmax()] = True  # so no set is empty
        previous, fits = lam, None
        while True:
            if work is None and np.count_nonzero(rows) > p // _GATHER_DIVISOR:
                work = _Workspace.like(W, blocks)  # for the rest of the path
            more = _solve(blocks, lam, alpha, beta, opts, W, S, work, rows, norms)
            fits = more if fits is None else ([a + b for a, b in zip(fits[0], more[0])], *more[1:])
            if work is not None:
                break
            norms = _gradient_norms(blocks, W, S, alpha, beta)
            violators = (norms > lam[:, None]).any(axis=0) & ~rows
            if not violators.any():
                break
            rows |= violators
        yield fits


def _solve(blocks, lam, alpha, beta, opts, W, S, work, rows, norms):
    """One point of _path: the batch W fitted in place at penalties lam,
    with its scores S, on the full layout with the workspace work, or
    without it on the layout gathered to the features flagged in rows
    (and the intercepts, when fitted), whose copy lasts this solve; the
    rows left out are zero, so S are the gathered batch's scores too.
    norms are the gradient row norms at W."""
    p = _n_features(blocks)
    if work is None:
        features = np.flatnonzero(rows)
        cols = np.r_[features, p:W.shape[2]]
        # A fit that is zero with every gradient norm at most lam is optimal
        # in its rows: at twice lam they stay exactly zero, whatever the
        # gathered products round to, and its trace (penalty term 0) is the
        # same.
        held = ~W[..., :p].any(axis=(1, 2)) & (norms <= lam[:, None]).all(axis=1)
        solved = np.where(held, 2.0 * lam, lam)
        layout, fitted = _feature_subset(blocks, features), W[..., cols]
    else:
        layout, fitted, solved = blocks, W, lam
    try:
        fits = _proximal_loop(layout, solved, alpha, beta, opts, fitted, True, work, S)
    except SolverError as err:
        raise SolverError(f"path fit failed at lambda={float(lam[err.fit])!r}: {err}") from err
    if work is None:
        W[..., cols] = fitted
    return fits
