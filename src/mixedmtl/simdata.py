"""Synthetic mixed-task data generation and the benchmark harness.

The generator draws a dense standard-normal p x t coefficient matrix,
zeroes all rows past the shared support, and produces one train and one
test problem from fresh feature draws under the same coefficients.
Regression outcomes are X w + noise_scale * N(0, 1); classification
outcomes are the sign of the same noisy score.  The benchmark harness
fits the joint mixed-task model, a binarize-then-classify baseline, and
per-task single-task fits, each with a CV-selected penalty, and scores
prediction quality and support recovery on the held-out test problem.
The single-task fits of a cell are one batched cross-validation: every
task's folds and full-data fit in one path loop, each task on its own
grid, with the same result as cross-validating each task alone.  The
benchmark's (method, ratio, seed) cells are independent: they run in
worker processes forked from the caller, one per usable CPU, and only
where ``fork`` exists (otherwise in the caller), with rows identical
either way.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CoefficientMatrix,
    DataError,
    Hyperparameters,
    MtlProblem,
    TaskDataset,
    TaskKind,
    _map_cells,
    _whole,
    predict,
)
from .modelselect import (
    _cross_validate,
    _squared_correlation,
    cross_validate,
    explained_variance,
    pseudo_explained_variance,
)
from .regpath import path_options
from .regpath import reg_path  # noqa: F401  (perfbench/tracing.py patches it here)

__all__ = [
    "SimulationSpec",
    "SimulationOutput",
    "BenchmarkRow",
    "BENCHMARK_METHODS",
    "simulate",
    "binarize_problem",
    "recovery_accuracy",
    "run_benchmark",
]

BENCHMARK_METHODS = ("mtlcomb", "mtlbin", "singletask")


@dataclass(frozen=True)
class SimulationSpec:
    """Generator configuration.

    Defaults: 10 classification + 10 regression tasks, 200 features,
    100 samples per task, 90% zero rows, noise scale 0.5.
    """

    t_classification: int = 10
    t_regression: int = 10
    p: int = 200
    n_per_task: int = 100
    sparsity: float = 0.9
    noise_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.t_classification < 0 or self.t_regression < 0:
            raise ValueError("task counts must be nonnegative")
        if self.t_classification + self.t_regression < 1:
            raise ValueError("at least one task is required")
        for name in ("p", "n_per_task"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.sparsity < 1.0:
            raise ValueError("sparsity must lie in (0, 1)")
        if not 0.0 <= self.noise_scale < np.inf:
            raise ValueError("noise_scale must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def t(self) -> int:
        return self.t_classification + self.t_regression

    @property
    def support_size(self) -> int:
        return int(round((1.0 - self.sparsity) * self.p))


@dataclass(frozen=True)
class SimulationOutput:
    train: MtlProblem
    test: MtlProblem
    true_W: np.ndarray
    true_support: np.ndarray


def _draw_tasks(rng, spec: SimulationSpec, W: np.ndarray) -> MtlProblem:
    # Each kind's rows are drawn into one array, which the problem keeps
    # as that kind's stack rather than a copy.
    counts = (spec.t_classification, spec.t_regression)
    stacks = [np.empty((t, spec.n_per_task, spec.p)) for t in counts]
    outcomes = []
    for i, X in enumerate(itertools.chain(*stacks)):
        rng.standard_normal(out=X)
        outcomes.append(X @ W[:, i] + spec.noise_scale * rng.standard_normal(spec.n_per_task))
    for stack in stacks:
        stack.flags.writeable = False
    tasks = []
    for i, (X, noisy) in enumerate(zip(itertools.chain(*stacks), outcomes)):
        is_classification = i < spec.t_classification
        name = f"clf{i + 1:02d}" if is_classification else f"reg{i + 1 - spec.t_classification:02d}"
        if is_classification:
            y = np.where(noisy >= 0.0, 1.0, -1.0)
            tasks.append(TaskDataset(X, y, TaskKind.CLASSIFICATION, name))
        else:
            tasks.append(TaskDataset(X, noisy, TaskKind.REGRESSION, name))
    return MtlProblem(tuple(tasks))


def simulate(spec: SimulationSpec) -> SimulationOutput:
    """Draw a (train, test, ground truth) triple; deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    W = rng.standard_normal((spec.p, spec.t))
    W[spec.support_size :, :] = 0.0
    train = _draw_tasks(rng, spec, W)
    test = _draw_tasks(rng, spec, W)
    return SimulationOutput(
        train=train,
        test=test,
        true_W=W,
        true_support=np.arange(spec.support_size),
    )


def binarize_problem(problem: MtlProblem) -> MtlProblem:
    """Turn every regression task into a classification task.

    Outcomes above the per-task median become +1, the rest -1, so the
    classes are about equal in size.  Classification tasks pass through
    unchanged; task order is preserved (every output task is a
    classification task).
    """
    tasks = []
    for task in problem.tasks:
        if task.kind is TaskKind.CLASSIFICATION:
            tasks.append(task)
            continue
        if np.all(task.y == task.y[0]):
            raise DataError(f"task {task.name!r}: constant outcomes cannot be binarized")
        labels = np.where(task.y > float(np.median(task.y)), 1.0, -1.0)
        if len(np.unique(labels)) < 2:
            raise DataError(f"task {task.name!r}: binarization produced a single class")
        tasks.append(TaskDataset(task.X, labels, TaskKind.CLASSIFICATION, task.name))
    return MtlProblem(tuple(tasks))


def recovery_accuracy(W_hat, true_support) -> float:
    """Fraction of the true support found among the top-ranked rows.

    Rows are ranked by descending Euclidean norm and the top
    |true_support| are compared against the truth, so the score is
    invariant to any positive rescaling of the estimate.  Zero rows are
    never counted as selected (an all-zero estimate scores 0, not
    whatever an index-order tie break would hand it).
    """
    W = W_hat.W if isinstance(W_hat, CoefficientMatrix) else np.asarray(W_hat, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    support = np.unique(np.asarray(true_support, dtype=int))
    if support.size < 1:
        raise ValueError("true_support must contain at least one index")
    if support.max() >= W.shape[0]:
        raise ValueError(
            f"support index {support.max()} is out of range for {W.shape[0]} rows"
        )
    norms = np.linalg.norm(W, axis=1)
    top = np.argsort(-norms, kind="stable")[: support.size]
    top = top[norms[top] > 0.0]
    return float(np.intersect1d(top, support).size / support.size)


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    ratio: float
    seed_count: int
    mean_recovery: float
    mean_ev_regression: float
    mean_pseudo_ev_classification: float


def _run_cell(method, cell_spec, alpha, beta, k, n_lambda, lambda_ratio):
    """One benchmark cell: simulate cell_spec, then fit and score method on it."""
    sim = simulate(cell_spec)
    train, test = sim.train, sim.test
    settings = dict(alpha=alpha, beta=beta, k=k, seed=cell_spec.seed, opts=path_options(),
                    n_lambda=n_lambda, ratio=lambda_ratio, one_se=False)
    fitted = binarize_problem(train) if method == "mtlbin" else train
    # No intercepts: path_options() fits none.
    if method != "singletask":
        W = rank_matrix = cross_validate(fitted, **settings).fit.coef.W
    else:
        W = np.hstack([result.fit.coef.W
                       for result in _cross_validate(train, per_task=True, **settings)])
        # Meta-analysis style aggregation: mean absolute coefficient per feature.
        rank_matrix = np.abs(W).mean(axis=1)[:, None]

    evs, pevs = [], []
    for i, (test_task, fitted_task) in enumerate(zip(test.tasks, fitted.tasks)):
        s = predict(test_task.X, W[:, i], test_task.kind, output="score")
        if fitted_task.kind is TaskKind.REGRESSION:
            evs.append(explained_variance(s, test_task.y))
        elif test_task.kind is TaskKind.CLASSIFICATION:
            pevs.append(pseudo_explained_variance(s, test_task.y))
        else:
            # The model saw a binarized version of this task; its scores have
            # no outcome scale, so report squared correlation instead.
            evs.append(_squared_correlation(s, test_task.y))

    recovery = recovery_accuracy(rank_matrix, sim.true_support)
    mean_ev = float(np.mean(evs)) if evs else float("nan")
    mean_pev = float(np.mean(pevs)) if pevs else float("nan")
    return recovery, mean_ev, mean_pev


def _benchmark_grid(spec, methods, ratios, seeds, k, n_lambda) -> tuple:
    """run_benchmark's arguments as checked lists; a ValueError names the one at fault."""
    methods, ratios, seeds = list(methods), [float(r) for r in ratios], [int(s) for s in seeds]
    p = spec.p
    if spec.support_size < 1:
        raise ValueError(
            f"sparsity must give round((1 - sparsity) * p) >= 1 at p={p}, got {spec.sparsity}"
        )
    if not methods:
        raise ValueError(f"methods must be non-empty, got {methods}")
    unknown = [method for method in methods if method not in BENCHMARK_METHODS]
    if unknown:
        raise ValueError(f"methods must be among {BENCHMARK_METHODS}, got {unknown}")
    if not ratios or not all(0.0 < ratio <= 1.0 for ratio in ratios):
        raise ValueError(f"ratios must be non-empty and lie in (0, 1], got {ratios}")
    small = [ratio for ratio in ratios if round(ratio * p) < k]
    if small:
        raise ValueError(f"ratios must give round(ratio * p) >= k={k} at p={p}, got {small}")
    if not seeds or min(seeds) < 0:
        raise ValueError(f"seeds must be non-empty and nonnegative, got {seeds}")
    _whole("n_lambda", n_lambda, 1)
    return methods, ratios, seeds


def run_benchmark(
    spec: SimulationSpec,
    methods: Sequence[str] = BENCHMARK_METHODS,
    ratios: Sequence[float] = (0.1, 0.4, 0.8),
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    k: int = 5,
    n_lambda: int = 50,
    lambda_ratio: float = 0.01,
    alpha: float = 0.0,
    beta: float = 0.0,
) -> list:
    """Average prediction and support-recovery quality over seeds.

    For each (ratio, seed) cell the per-task sample count is
    round(ratio * p) with p held fixed, so the ratio sweeps the
    samples-per-feature regime.  Every method gets its penalty from
    cross-validation on the training problem.  Returns one BenchmarkRow
    per (method, ratio), in input order.

    The (method, ratio, seed) cells are independent and run in worker
    processes through core._map_cells, the package's one pool helper
    (modelio's CSV batches use it too): one per usable CPU (at most one
    per cell), forked from this one; where ``fork`` is missing, one CPU
    is usable, or this process is daemonic, they run in this process.
    Either way every row is the same, bit for bit, and a failing cell
    raises its own error: the first in input order.  Every
    worker has exited when this returns or raises.  Workers keep the
    BLAS thread count they inherit; at criterion-7 shapes the products
    are too small for BLAS to thread, but a grid of large problems can
    oversubscribe the CPUs.
    """
    methods, ratios, seeds = _benchmark_grid(spec, methods, ratios, seeds, k, n_lambda)
    Hyperparameters(0.0, alpha, beta)  # rejects alpha and beta as fista_fit does
    cells = [
        (method, dataclasses.replace(spec, n_per_task=int(round(ratio * spec.p)), seed=seed))
        for method in methods
        for ratio in ratios
        for seed in seeds
    ]
    run = functools.partial(
        _run_cell, alpha=alpha, beta=beta, k=k, n_lambda=n_lambda, lambda_ratio=lambda_ratio
    )
    results = iter(_map_cells(run, *zip(*cells)))

    rows = []
    for method in methods:
        for ratio in ratios:
            recoveries, evs, pevs = zip(*itertools.islice(results, len(seeds)))
            rows.append(
                BenchmarkRow(
                    method=method,
                    ratio=ratio,
                    seed_count=len(seeds),
                    mean_recovery=float(np.mean(recoveries)),
                    mean_ev_regression=float(np.mean(evs)),
                    mean_pseudo_ev_classification=float(np.mean(pevs)),
                )
            )
    return rows
