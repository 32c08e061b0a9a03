"""Problem containers and the weighted mixed-task objective.

A model couples c classification tasks and t - c regression tasks through
a shared p x t coefficient matrix W (column i belongs to task i, row j to
feature j).  The smooth part of the training objective is

    F(W) = 2 * sum_{i < c}  mean(log(1 + exp(-y * (X w_i + b_i))))
         + 0.5 * sum_{i >= c} mean((y - X w_i - b_i)^2)
         + alpha * ||W G||_F^2 + beta * ||W||_F^2

where G is the t x t centering matrix, so the alpha term penalizes
cross-task disagreement of each feature's coefficients and beta is a
plain ridge term.  The fixed loss weights (2 on the logit loss, 0.5 on
the least-squares loss) put both task types on the same penalty scale,
which is what lets a single lambda drive joint feature selection.  The
sparse row penalty lambda * ||W||_{2,1} is handled by the solver's
proximal step, not here.

The logit loss of a margin u = y * s is log1p(exp(-|u|)) - min(u, 0),
numpy's formula for logaddexp(0, -u), evaluated with numpy's vectorized
exp and log1p rather than logaddexp's scalar loop.  It is finite for
every finite score, exactly 0 wherever logaddexp(0, -u) is, and within
3 ulp of it (one subnormal ulp where the loss is subnormal).

Intercepts, when enabled, are per-task scalars that enter the losses but
none of the penalties.  In a batch of fits each task's intercept is its
last coefficient, as in glmnet: a batch with p + 1 coefficients per task
on a layout of p features carries intercepts, and nothing else says so.

A problem owns its features: each run of consecutive tasks of one kind
and one sample count n keeps its rows in one read-only (tasks, n, p)
stack (copied in once as the problem is built, unless the tasks' X
already are its entries), and each task's X is a view of it.  Evaluation runs
on a layout of blocks, one per run, built once per problem: the run's
stack X, its outcomes Y (tasks, n) and the row weights M of B members
(B, tasks, n) (the kind's loss weight over the number of rows a member
fits, exactly 0 on rows it leaves out, so they add nothing to a loss or
a gradient).  A problem alone is one member on every row;
cross-validation's folds are members too.  A block's scores for all
members are one batched product with its stack, and so is its share of
the gradient; losses, residuals and intercept gradients take one numpy
call per block.  Nothing is padded and the stacks are the only copy of
X: a layout, and a layout narrowed to some of its tasks, hold views of
them.

The kernels take a batch of fits, W of shape (fits, t_fit, p), or
(fits, t_fit, p + 1) with the intercepts last: a fit is either one
member's joint fit over all t columns (t_fit = t, fits = B) or one
member's single task column (t_fit = 1, fits = B * t, member major), and
each returns one smooth objective per fit.  The scores see the same
(B, t, p) or (B, t, p + 1) array either way; the products with X and the
alpha and beta terms take its first p coefficients.  A task column's
loss sums its own n rows, so it equals its one-task problem's bit for
bit.

_map_cells is the package's one worker pool: the benchmark's cells and
modelio's batches of CSV files map over it.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import itertools
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DataError",
    "TaskKind",
    "TaskDataset",
    "MtlProblem",
    "CoefficientMatrix",
    "Hyperparameters",
    "SolverOptions",
    "TaskStandardization",
    "StandardizationRecord",
    "make_centering",
    "sigmoid",
    "l21_norm",
    "smooth_objective",
    "smooth_gradient",
    "full_objective",
    "predict",
    "standardize",
]


class DataError(ValueError):
    """Input data violates a documented requirement."""


class TaskKind(str, enum.Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


def _as_matrix(value, name: str, copy: bool = True) -> np.ndarray:
    arr = (np.array if copy else np.asarray)(value, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"{name} must be a 2-d array, got shape {arr.shape}")
    return arr


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{name} must be a 1-d array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TaskDataset:
    """One task: features X (n x p), outcomes y (n), and the task kind.

    Classification outcomes must be -1/+1; regression outcomes any finite
    reals.  y is copied at construction; X is not.  A problem that holds
    the task copies X's rows into its run's read-only stack (see the
    module docstring), unless they already are its entries, and gives the
    task a view of it.
    """

    X: np.ndarray
    y: np.ndarray
    kind: TaskKind
    name: str

    def __post_init__(self):
        X = _as_matrix(self.X, f"task {self.name!r}: X", copy=False)
        y = _as_vector(self.y, f"task {self.name!r}: y")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError(f"task {self.name!r}: X must have at least one row and column")
        if y.shape[0] != X.shape[0]:
            raise DataError(
                f"task {self.name!r}: y has {y.shape[0]} entries for {X.shape[0]} samples"
            )
        if not np.all(np.isfinite(X)):
            raise DataError(f"task {self.name!r}: X contains non-finite values")
        if not np.all(np.isfinite(y)):
            raise DataError(f"task {self.name!r}: y contains non-finite values")
        kind = TaskKind(self.kind)
        if kind is TaskKind.CLASSIFICATION and not np.all((y == 1.0) | (y == -1.0)):
            raise DataError(f"task {self.name!r}: classification outcomes must be -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "kind", kind)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class MtlProblem:
    """Ordered task collection: classification tasks first, shared feature count.

    The problem holds its tasks' rows (see the module docstring): a run
    whose X are, in order, the entries of one read-only array keeps that
    array as its stack; any other run's X are copied into a new stack,
    and its tasks are replaced by tasks that view it.
    """

    tasks: tuple
    # One read-only (tasks, n, p) stack per run of tasks of one kind and n.
    _stacks: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tasks = tuple(self.tasks)
        if len(tasks) < 1:
            raise DataError("a problem needs at least one task")
        p = tasks[0].n_features
        for task in tasks:
            if task.n_features != p:
                raise DataError(
                    f"task {task.name!r} has {task.n_features} features, expected {p}"
                )
        seen_regression = False
        for task in tasks:
            if task.kind is TaskKind.REGRESSION:
                seen_regression = True
            elif seen_regression:
                raise DataError(
                    f"task {task.name!r}: classification tasks must precede regression tasks"
                )
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise DataError("task names must be unique")
        held, stacks = [], []
        for _, run in itertools.groupby(tasks, lambda task: (task.kind, task.n_samples)):
            run = list(run)
            stack = _stack_of([task.X for task in run])
            if stack is None:
                # np.stack keeps each entry's memory layout: the column-major
                # rows of a loaded task's gather stay column-major.
                stack = np.stack([task.X for task in run])
                stack.flags.writeable = False
                run = [dataclasses.replace(task, X=X) for task, X in zip(run, stack)]
            held += run
            stacks.append(stack)
        object.__setattr__(self, "tasks", tuple(held))
        object.__setattr__(self, "_stacks", tuple(stacks))

    @property
    def t(self) -> int:
        return len(self.tasks)

    @property
    def c(self) -> int:
        return sum(1 for task in self.tasks if task.kind is TaskKind.CLASSIFICATION)

    @property
    def p(self) -> int:
        return self.tasks[0].n_features

    @functools.cached_property
    def _blocks(self) -> tuple:
        """The layout of the module docstring for one member that fits
        every row, built on first use."""
        return _layout(self)


def _stack_of(Xs):
    """The read-only array whose entries, in order, are the read-only
    views Xs, when there is one (as simulate makes); else None."""
    owner = Xs[0].base
    if (isinstance(owner, np.ndarray) and not owner.flags.writeable
            and owner.shape == (len(Xs),) + Xs[0].shape
            and all(X.base is owner and X.__array_interface__ == row.__array_interface__
                    for X, row in zip(Xs, owner))):
        return owner
    return None


def _layout(problem: MtlProblem, rows=None) -> tuple:
    """One block (kind, columns, X, Y, M) per run of the problem's stacks:
    columns is the run's slice of W's columns, X its stack (tasks, n, p),
    Y (tasks, n) its outcomes and M (B, tasks, n) the row weights of B
    members.  rows holds one (n_i, B) boolean array per task, the rows
    each member fits; a member weights them by the kind's loss weight over
    their count.  Without rows there is one member, on every row."""
    blocks, start = [], 0
    for X in problem._stacks:
        columns = slice(start, start + len(X))
        start = columns.stop
        kind = problem.tasks[columns.start].kind
        weight = 2.0 if kind is TaskKind.CLASSIFICATION else 0.5
        fitted = [np.ones((X.shape[1], 1), dtype=bool)] * len(X) if rows is None else rows[columns]
        Y = np.stack([task.y for task in problem.tasks[columns]])
        M = np.empty(fitted[0].shape[1:] + Y.shape)  # C order, so the dots run in BLAS
        for j, r in enumerate(fitted):
            M[:, j] = np.where(r.T, weight / r.sum(axis=0)[:, None], 0.0)
        blocks.append((kind, columns, X, Y, M))
    return tuple(blocks)


def _task_subset(blocks, alive) -> tuple:
    """The layout cut to the tasks flagged in the boolean array alive.  A
    block keeps views of its arrays when its flagged tasks form one span,
    else gathers them (X[idx] keeps each task's memory layout, so its
    products round as before)."""
    subset, start = [], 0
    for kind, columns, X, Y, M in blocks:
        local = np.flatnonzero(alive[columns])
        n = len(local)
        if n:
            if local[-1] - local[0] == n - 1:
                local = slice(local[0], local[0] + n)
            subset.append((kind, slice(start, start + n), X[local], Y[local], M[:, local]))
            start += n
    return tuple(subset)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Coefficient matrix W (p x t) plus optional per-task intercepts (length t)."""

    W: np.ndarray
    intercepts: Optional[np.ndarray] = None

    def __post_init__(self):
        W = _as_matrix(self.W, "W")
        if not np.all(np.isfinite(W)):
            raise DataError("coefficient matrix contains non-finite values")
        intercepts = self.intercepts
        if intercepts is not None:
            intercepts = _as_vector(intercepts, "intercepts")
            if intercepts.shape[0] != W.shape[1]:
                raise DataError(
                    f"{intercepts.shape[0]} intercepts for {W.shape[1]} tasks"
                )
            if not np.all(np.isfinite(intercepts)):
                raise DataError("intercepts contain non-finite values")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "intercepts", intercepts)

    @classmethod
    def zeros(cls, p: int, t: int, fit_intercept: bool = False) -> "CoefficientMatrix":
        intercepts = np.zeros(t) if fit_intercept else None
        return cls(np.zeros((p, t)), intercepts)


@dataclass(frozen=True)
class Hyperparameters:
    """Penalty strengths: lam on the row-sparsity term, alpha on the
    cross-task-agreement term, beta on the ridge term."""

    lam: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        for field_name in ("lam", "alpha", "beta"):
            value = float(getattr(self, field_name))
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{field_name} must be a nonnegative real, got {value!r}")
            if field_name != "lam" and not np.isfinite(2.0 * value):
                # The gradient's factor 2 * alpha (2 * beta) must not overflow.
                raise ValueError(f"{field_name} must be at most half the largest float, "
                                 f"got {value!r}")
            object.__setattr__(self, field_name, value)


def _whole(name, value, least) -> int:
    """value as an int; a ValueError that names name when value is not a
    whole number, or is below least."""
    whole = int(value) if np.isfinite(value) else None
    if whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if whole < least:
        raise ValueError(f"{name} must be >= {least}")
    return whole


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule and start of a fit.  L0 is the first curvature
    estimate: the line search doubles it, and a run of first-trial steps
    halves it, so a fit's L is always L0 * 2**k."""

    max_iter: int = 1000
    tol: float = 1e-8
    L0: float = 1.0
    fit_intercept: bool = False

    def __post_init__(self):
        max_iter = _whole("max_iter", self.max_iter, 1)
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.L0 < np.inf:
            raise ValueError("L0 must be positive and finite")
        object.__setattr__(self, "max_iter", max_iter)
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "L0", float(self.L0))
        object.__setattr__(self, "fit_intercept", bool(self.fit_intercept))


def make_centering(t: int) -> np.ndarray:
    """Return the t x t centering matrix I - (1/t) * ones.

    Symmetric and idempotent; right-multiplying W by it subtracts each
    row's cross-task mean, so ||W G||_F^2 measures cross-task disagreement.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    return np.eye(t) - np.full((t, t), 1.0 / t)


def sigmoid(z):
    """Stable logistic function; P(y = +1) for a linear score z."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def l21_norm(W: np.ndarray) -> float:
    """Sum over rows of the Euclidean norm of each row; zero iff W == 0."""
    W = np.asarray(W, dtype=float)
    return float(np.linalg.norm(W, axis=1).sum())


def _check_dimensions(problem: MtlProblem, coef: CoefficientMatrix) -> None:
    if coef.W.shape != (problem.p, problem.t):
        raise ValueError(
            f"coefficient shape {coef.W.shape} does not match problem "
            f"({problem.p}, {problem.t})"
        )


def _row_centered(W: np.ndarray) -> np.ndarray:
    # Identical to W @ make_centering(t) but cheaper and exactly zero on
    # rows whose cross-task mean is exact (e.g. integer-valued rows).
    # W is a batch (B, t, p), so a feature's row runs along axis 1.
    return W - W.mean(axis=1, keepdims=True)


def _members(W, intercepts=None):
    """A (p, t) matrix and its intercepts (length t, or None) as a batch of
    one member, (1, t, p) or (1, t, p + 1) with each task's intercept last:
    a batch holds each member's matrix transposed, so a task's
    coefficients are contiguous."""
    if intercepts is not None:
        W = np.vstack([W, intercepts])
    return W.T[None]


def _split(w, p):
    """One fit w (t_fit, p) of a batch, or (t_fit, p + 1) with its
    intercepts last, as a (p, t_fit) matrix and its intercepts (or None)."""
    return w[:, :p].T.copy(), w[:, p].copy() if w.shape[1] > p else None


def _n_features(blocks) -> int:
    """The feature count p of a _layout; a batch of fits on it carries
    intercepts when it has p + 1 coefficients per task."""
    return blocks[0][2].shape[2]


def _row_norms(W, out=None, squares=None) -> np.ndarray:
    """Euclidean norm of each feature's row, per fit of a batch W
    (fits, t_fit, p): an array (fits, p), written into out when given.
    A one-column row's norm is |w|, which equals sqrt(w * w) bit for bit
    wherever w * w neither underflows nor overflows; wider rows square W
    into squares (shaped like W) when given."""
    if W.shape[1] == 1:
        return np.abs(W[:, 0], out=out)
    squares = np.multiply(W, W, out=squares)
    return np.sqrt(np.add.reduce(squares, axis=1, out=out), out=out)


def _member_dots(A, C) -> np.ndarray:
    """Inner product of A and C per member (their first axis)."""
    B = A.shape[0]
    return np.matmul(A.reshape(B, 1, -1), C.reshape(B, -1, 1))[:, 0, 0]


def _by_member(blocks, A):
    """A batch of fits A (fits, t_fit, ...) as (B, t, ...) for the B members
    of a layout: the same array for joint fits, a reshape for task columns."""
    return A.reshape((blocks[0][4].shape[0], -1) + A.shape[2:])


def _block_scores(blocks, W):
    """Each block of a _layout with its scores S (B, tasks, n) appended:
    S[b, j] is the j-th task's X w + b under member b's coefficients w and
    intercept b (a batch of fits W seen as (B, t, p), or (B, t, p + 1) with
    the intercepts last)."""
    W, p = _by_member(blocks, W), _n_features(blocks)
    for kind, columns, X, Y, M in blocks:
        S = np.empty(M.shape)
        np.matmul(W[:, columns, :p].transpose(1, 0, 2), X.transpose(0, 2, 1),
                  out=S.transpose(1, 0, 2))
        if W.shape[2] > p:
            S += W[:, columns, p, None]
        yield kind, columns, X, Y, M, S


def _outputs(scores, kind: TaskKind, output: Optional[str]) -> np.ndarray:
    """Map one task's scores to its output: "score", or for classification
    "probability" (the default) or hard -1/+1 "label" (score 0 maps to +1)."""
    if output is None:
        output = "probability" if kind is TaskKind.CLASSIFICATION else "score"
    if output == "score":
        return scores
    if kind is not TaskKind.CLASSIFICATION:
        raise ValueError(f"output {output!r} only applies to classification tasks")
    if output == "probability":
        return sigmoid(scores)
    if output == "label":
        return np.where(scores >= 0.0, 1.0, -1.0)
    raise ValueError(f"unknown output {output!r}")


def _batch_objective(blocks, W, alpha, beta) -> np.ndarray:
    """F of each fit of a batch W (fits, t_fit, p), or (fits, t_fit, p + 1)
    with the intercepts last, on a _layout of its members."""
    total = np.zeros(W.shape[0])
    per_member = _by_member(blocks, total)
    for kind, columns, _, Y, M, S in _block_scores(blocks, W):
        if kind is TaskKind.CLASSIFICATION:
            # log(1 + exp(-u)) at the margins u = y * s, written over the
            # block's scores: numpy's logaddexp(0, -u) per element, on the
            # vectorized exp and log1p instead of its scalar loop.
            u = np.multiply(Y, S, out=S)
            losses = np.abs(u)
            np.log1p(np.exp(np.negative(losses, out=losses), out=losses), out=losses)
            losses -= np.minimum(u, 0.0, out=u)
        else:
            losses = np.square(np.subtract(S, Y, out=S), out=S)
        if W.shape[1] == 1:
            # A task column sums its own task's rows, a joint fit all of them.
            per_member[:, columns] += np.matmul(M[..., None, :], losses[..., None])[..., 0, 0]
        else:
            total += _member_dots(M, losses)
    W = W[..., :_n_features(blocks)]  # the penalties leave the intercepts out
    if alpha != 0.0:
        centered = _row_centered(W)
        total += alpha * _member_dots(centered, centered)
    if beta != 0.0:
        total += beta * _member_dots(W, W)
    return total


def _batch_gradient(blocks, W, alpha, beta, out=None):
    """Gradient of F per fit, shaped like the batch W (the intercepts' part
    last, without penalty), written into out when given."""
    grad = np.empty(W.shape) if out is None else out
    grad_m, p = _by_member(blocks, grad), _n_features(blocks)
    for kind, columns, X, Y, M, S in _block_scores(blocks, W):
        # Each row's weighted loss derivative; 0.5 * (tanh(s / 2) - y) is
        # -y * sigmoid(-y * s) for y = +-1.
        if kind is TaskKind.CLASSIFICATION:
            R = 0.5 * M * (np.tanh(0.5 * S) - Y)
        else:
            R = 2.0 * M * (S - Y)
        np.matmul(R.transpose(1, 0, 2), X, out=grad_m[:, columns, :p].transpose(1, 0, 2))
        if W.shape[2] > p:
            grad_m[:, columns, p] = R.sum(axis=2)
    penalized, W = grad[..., :p], W[..., :p]
    if alpha != 0.0:
        penalized += 2.0 * alpha * _row_centered(W)
    if beta != 0.0:
        penalized += 2.0 * beta * W
    return grad


def _smooth_objective_raw(problem, W, intercepts, alpha, beta) -> float:
    """F of one (p, t) matrix, unchecked."""
    return float(_batch_objective(problem._blocks, _members(W, intercepts), alpha, beta)[0])


def smooth_objective(
    problem: MtlProblem, coef: CoefficientMatrix, alpha: float = 0.0, beta: float = 0.0
) -> float:
    """Evaluate the smooth part F(W) of the training objective."""
    _check_dimensions(problem, coef)
    return _smooth_objective_raw(problem, coef.W, coef.intercepts, alpha, beta)


def smooth_gradient(
    problem: MtlProblem, coef: CoefficientMatrix, alpha: float = 0.0, beta: float = 0.0
):
    """Gradient of F: returns (grad_W, grad_intercepts).

    grad_intercepts is None when coef carries no intercepts.  Column i is
    (2/N_i) X^T (-y * sigmoid(-y * s)) for classification tasks and
    (1/N_i) X^T (s - y) for regression tasks, plus 2*alpha*(W centered) and
    2*beta*W.  Intercept gradients use the same loss weights and no penalty.
    """
    _check_dimensions(problem, coef)
    grad = _batch_gradient(problem._blocks, _members(coef.W, coef.intercepts), alpha, beta)
    return _split(grad[0], problem.p)


def full_objective(
    problem: MtlProblem, coef: CoefficientMatrix, hyper: Hyperparameters
) -> float:
    """F(W) plus the row-sparsity penalty lam * ||W||_{2,1}."""
    smooth = smooth_objective(problem, coef, hyper.alpha, hyper.beta)
    return smooth + hyper.lam * l21_norm(coef.W)


def predict(
    X,
    w,
    kind: TaskKind,
    intercept: float = 0.0,
    output: Optional[str] = None,
) -> np.ndarray:
    """Per-row predictions for one task from its coefficient column.

    output defaults to "score" for regression and "probability" for
    classification; "label" returns hard -1/+1 labels (score 0 maps to +1).
    """
    X = _as_matrix(X, "X")
    w = _as_vector(w, "w")
    if X.shape[1] != w.shape[0]:
        raise ValueError(f"{X.shape[1]} feature columns for {w.shape[0]} coefficients")
    return _outputs(X @ w + float(intercept), TaskKind(kind), output)


@dataclass(frozen=True)
class TaskStandardization:
    """Column transform fitted on one task.

    Constant feature columns (sample sd 0) are transformed to all zeros and
    flagged rather than raising, so the feature count stays aligned across
    tasks.  outcome_* fields are set only for standardized regression
    outcomes; outcome_scale 0 flags a constant outcome.
    """

    feature_mean: np.ndarray
    feature_scale: np.ndarray
    constant_features: np.ndarray
    outcome_mean: Optional[float] = None
    outcome_scale: Optional[float] = None

    def transform_features(self, X) -> np.ndarray:
        X = _as_matrix(X, "X")
        if X.shape[1] != self.feature_mean.shape[0]:
            raise ValueError(
                f"{X.shape[1]} feature columns for a {self.feature_mean.shape[0]}-column transform"
            )
        out = (X - self.feature_mean) / np.where(self.constant_features, 1.0, self.feature_scale)
        out[:, self.constant_features] = 0.0
        return out

    def transform_outcome(self, y) -> np.ndarray:
        if self.outcome_mean is None:
            raise ValueError("no outcome transform was fitted for this task")
        y = _as_vector(y, "y")
        if self.outcome_scale == 0.0:
            return np.zeros_like(y)
        return (y - self.outcome_mean) / self.outcome_scale

    def inverse_outcome(self, scores) -> np.ndarray:
        """Map model scores back to the original outcome scale."""
        if self.outcome_mean is None:
            return _as_vector(scores, "scores")
        scores = _as_vector(scores, "scores")
        return self.outcome_mean + self.outcome_scale * scores


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-task transforms, in problem task order."""

    tasks: tuple

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))


def standardize(
    problem: MtlProblem, standardize_regression_outcomes: bool = False
) -> tuple:
    """Z-standardize each task's feature columns (sample sd, ddof=1).

    Regression outcomes are standardized too when the flag is set;
    classification labels are never touched.  Returns the transformed
    problem and the record needed to apply/invert the transform at
    prediction time.
    """
    new_tasks = []
    records = []
    for task in problem.tasks:
        if task.n_samples < 2:
            raise DataError(
                f"task {task.name!r}: standardization needs at least 2 samples"
            )
        scale = task.X.std(axis=0, ddof=1)
        constant = scale == 0.0
        outcome_mean = outcome_scale = None
        if standardize_regression_outcomes and task.kind is TaskKind.REGRESSION:
            outcome_mean = float(task.y.mean())
            outcome_scale = float(task.y.std(ddof=1))
        record = TaskStandardization(
            feature_mean=task.X.mean(axis=0),
            feature_scale=np.where(constant, 1.0, scale),
            constant_features=constant,
            outcome_mean=outcome_mean,
            outcome_scale=outcome_scale,
        )
        y = task.y if outcome_mean is None else record.transform_outcome(task.y)
        new_tasks.append(TaskDataset(record.transform_features(task.X), y, task.kind, task.name))
        records.append(record)
    return MtlProblem(tuple(new_tasks)), StandardizationRecord(tuple(records))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_cells(run, *iterables) -> list:
    """list(map(run, *iterables)), on min(cells, usable CPUs) forked workers.

    Forked workers share the modules this process has imported; fresh
    interpreters cost about 0.4 s more per ``protocol`` benchmark call on
    two cores.  With one worker, without ``fork``, or in a daemonic process
    (a multiprocessing.Pool worker, which may not have children), the
    cells run here.
    """
    workers = min(len(iterables[0]), _usable_cpus())
    if workers > 1:
        # Imported here: at import time they would add about 20 ms to
        # every command, most of which never makes a pool.
        import multiprocessing

        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        ):
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                # Results come in input order, so the first failing cell raises.
                # The pool's result thread unpickles them into its own glibc
                # malloc arena, whose freed memory this thread cannot reuse:
                # each is copied here as it arrives and its original freed,
                # so that arena holds a result or two, not all of them.
                return [copy.deepcopy(result) for result in pool.map(run, *iterables)]
            finally:
                # Joins every worker; after a failure, unstarted cells never run.
                pool.shutdown(wait=True, cancel_futures=True)
    return list(map(run, *iterables))
