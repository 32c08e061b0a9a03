"""Property tests for the evaluation engine in core.

The smooth objective and gradient of a mixed problem decompose by task
and equal the per-task formulas written out task by task, however the
tasks fall into blocks of one kind and sample count, and under any row
weights of several members; cross-validation scores each fold member of
its batched path with the very objective the solver minimizes,
evaluated on the fold's validation tasks.  A problem keeps one
read-only copy of X, which its layout shares.
"""

import itertools
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
from mixedmtl import SimulationSpec, binarize_problem, regpath, simulate, standardize
from mixedmtl.core import _batch_gradient, _batch_objective, _block_scores, _layout, _task_subset
from mixedmtl.modelio import load_problem, write_csv, write_json
from mixedmtl.modelselect import task_folds
from mixedmtl.solver import _fit_result

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
    # Tasks draw 3 to 30 samples, so a kind with two or more tasks spans
    # several blocks.
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


@_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans())
def test_row_weighted_members_match_per_task_reference(seed, fit_intercept):
    # Both kinds, unequal n_i, and B > 1 members, each on its own rows: a
    # member's joint objective and gradient, and each of its task columns'
    # objectives, equal the per-task formulas on the member's rows alone.
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 7))
    problem = random_mixed_problem(rng, t=t, c=int(rng.integers(1, t)))
    B, p = int(rng.integers(2, 5)), problem.p
    rows = []
    for task in problem.tasks:
        fitted = rng.random((task.n_samples, B)) < 0.6
        fitted[rng.integers(task.n_samples, size=B), np.arange(B)] = True
        rows.append(fitted)
    blocks = _layout(problem, rows)
    coefs = [_random_coef(rng, p, t, fit_intercept) for _ in range(B)]
    W = np.stack([coef.W.T for coef in coefs])
    b = np.stack([coef.intercepts for coef in coefs]) if fit_intercept else None
    F = _batch_objective(blocks, W, b, 0.0, 0.0)
    columns = _batch_objective(blocks, W.reshape(B * t, 1, p),
                               None if b is None else b.reshape(B * t, 1), 0.0, 0.0)
    grad, grad_b = _batch_gradient(blocks, W, b, 0.0, 0.0)
    for m, coef in enumerate(coefs):
        member = MtlProblem(tuple(
            TaskDataset(task.X[fitted[:, m]], task.y[fitted[:, m]], task.kind, task.name)
            for task, fitted in zip(problem.tasks, rows)
        ))
        losses, grad_ref, grad_b_ref = _per_task_reference(member, coef)
        npt.assert_allclose(F[m], losses.sum(), rtol=1e-12)
        npt.assert_allclose(columns[m * t : (m + 1) * t], losses, rtol=1e-12)
        for i in range(t):
            scale = np.abs(grad_ref[:, i]).max()
            npt.assert_allclose(grad[m, i], grad_ref[:, i], rtol=1e-12, atol=1e-12 * scale)
        if fit_intercept:
            npt.assert_allclose(grad_b[m], grad_b_ref, rtol=1e-12,
                                atol=1e-12 * np.abs(grad_b_ref).max())
        else:
            assert grad_b is None


def _holds_one_copy(problem):
    """Every task's X is its row of its block's read-only stack, and a
    block's stack holds those rows and no others."""
    blocks = problem._blocks
    assert sum(len(X) for _, _, X, _, _ in blocks) == problem.t
    for kind, columns, X, _, _ in blocks:
        assert not X.flags.writeable
        assert len(X) == columns.stop - columns.start
        for task, row in zip(problem.tasks[columns], X):
            assert task.kind is kind
            assert np.shares_memory(task.X, X)
            assert task.X.ctypes.data == row.ctypes.data and task.X.shape == row.shape


def _write_manifest(tmp_path, rng):
    # Regression first and one task with its own n, so loading reorders
    # the tasks and splits a kind into two runs.
    entries = []
    for name, kind, n in (("r0", "regression", 9), ("c0", "classification", 9),
                          ("c1", "classification", 9), ("r1", "regression", 6)):
        y = rng.standard_normal(n) if kind == "regression" else np.resize([1.0, -1.0], n)
        write_csv(str(tmp_path / f"{name}.csv"), ["f1", "f2", "f3", "y"],
                  np.column_stack([rng.standard_normal((n, 3)), y]))
        entries.append({"name": name, "kind": kind, "data_path": f"{name}.csv",
                        "outcome_column": "y"})
    write_json(str(tmp_path / "manifest.json"), {"tasks": entries})
    return str(tmp_path / "manifest.json")


def test_problem_holds_one_copy_of_x(tmp_path):
    sim = simulate(SimulationSpec(t_classification=2, t_regression=3, p=6, n_per_task=8))
    loaded, _, _ = load_problem(_write_manifest(tmp_path, np.random.default_rng(0)))
    assert [task.name for task in loaded.tasks] == ["c0", "c1", "r0", "r1"]
    problems = [sim.train, sim.test, loaded, standardize(sim.train)[0], standardize(loaded)[0],
                binarize_problem(sim.train), MtlProblem(sim.train.tasks[1:3])]
    for problem in problems:
        _holds_one_copy(problem)
    # A loaded task's rows keep the column-major layout of their gather.
    assert all(task.X.flags.f_contiguous for task in loaded.tasks)
    # Rows that already are the entries of one read-only array (simulate
    # draws each kind into one) are kept as the stack, with no copy; a run
    # of only some of its entries is copied.
    again = MtlProblem(sim.train.tasks)
    assert all(a is b for a, b in zip(again._stacks, sim.train._stacks))
    part = MtlProblem(sim.train.tasks[1:3])
    assert not any(np.shares_memory(a, b) for a in part._stacks for b in sim.train._stacks)


def test_task_subset_keeps_exactly_the_running_tasks_in_their_layout(tmp_path):
    # A block's running tasks stay views of its arrays when they form one
    # span and are gathered when they do not.  The gather keeps each task's
    # memory layout (column-major for a loaded task), so their products
    # round as the full block's do.
    rng = np.random.default_rng(6)
    entries = []
    for name in ("r0", "r1", "r2"):
        write_csv(str(tmp_path / f"{name}.csv"), ["f1", "f2", "f3", "y"],
                  rng.standard_normal((7, 4)))
        entries.append({"name": name, "kind": "regression", "data_path": f"{name}.csv",
                        "outcome_column": "y"})
    write_json(str(tmp_path / "manifest.json"), {"tasks": entries})
    loaded, _, _ = load_problem(str(tmp_path / "manifest.json"))
    sim = simulate(SimulationSpec(t_classification=3, t_regression=3, p=3, n_per_task=7))
    for problem, layout in ((loaded, "F_CONTIGUOUS"), (sim.train, "C_CONTIGUOUS")):
        assert all(task.X.flags[layout] for task in problem.tasks)
        rows = [rng.random((task.n_samples, 2)) < 0.7 for task in problem.tasks]
        for r in rows:
            r[0] = True
        blocks = _layout(problem, rows)
        W = rng.standard_normal((2, problem.t, problem.p))
        full = [S for *_, S in _block_scores(blocks, W, None)]
        for alive in itertools.product([False, True], repeat=problem.t):
            alive = np.array(alive)
            if not alive.any():
                continue
            narrowed = _task_subset(blocks, alive)
            kept = np.flatnonzero(alive)
            parts = iter(zip(narrowed, _block_scores(narrowed, W[:, kept], None)))
            position = 0
            for (_, columns, X_all, Y_all, M_all), S_all in zip(blocks, full):
                local = np.flatnonzero(alive[columns])
                if not len(local):
                    continue
                (_, cut, X, Y, M), (*_, S) = next(parts)
                assert cut == slice(position, position + len(local))
                position = cut.stop
                assert np.shares_memory(X, X_all) == (local[-1] - local[0] == len(local) - 1)
                for j, i in enumerate(local):
                    assert X[j].flags[layout]
                    npt.assert_array_equal(X[j], X_all[i])
                    npt.assert_array_equal(Y[j], Y_all[i])
                    npt.assert_array_equal(M[:, j], M_all[:, i])
                    assert S[:, j].tobytes() == S_all[:, i].tobytes()
            assert next(parts, None) is None


def test_problem_from_x_on_a_foreign_buffer():
    # X whose memory belongs to a non-numpy object (here a bytearray) is
    # copied into the problem's stack like any other.
    rng = np.random.default_rng(4)
    values = rng.standard_normal((2, 7, 3))
    buffers = [np.ndarray((7, 3), buffer=bytearray(X.tobytes())) for X in values]
    assert all(isinstance(X.base, bytearray) for X in buffers)
    problem = MtlProblem(tuple(
        TaskDataset(X, rng.standard_normal(7), "regression", f"r{i}") for i, X in enumerate(buffers)
    ))
    _holds_one_copy(problem)
    for task, X in zip(problem.tasks, values):
        npt.assert_array_equal(task.X, X)


def test_problem_x_is_read_only():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 3))
    problem = MtlProblem((TaskDataset(X, rng.standard_normal(6), "regression", "r"),))
    # The problem copied the caller's array once; the caller may still write it.
    X[0, 0] = 100.0
    assert problem.tasks[0].X[0, 0] != 100.0
    # So it does with the entries of a writable array.
    A = rng.standard_normal((2, 6, 3))
    pair = MtlProblem(tuple(TaskDataset(A[i], rng.standard_normal(6), "regression", f"r{i}")
                            for i in range(2)))
    A[1, 0, 0] = 100.0
    assert pair.tasks[1].X[0, 0] != 100.0 and not pair._stacks[0].flags.writeable
    sim = simulate(SimulationSpec(t_classification=1, t_regression=1, p=4, n_per_task=5))
    for problem in (problem, sim.train, standardize(sim.train)[0]):
        for task in problem.tasks:
            with pytest.raises(ValueError):
                task.X[0, 0] = 1.0
            with pytest.raises(ValueError):
                task.X += 1.0


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

    def recording(blocks, lam, alpha, beta, opts, W, b, accelerated, work=None):
        fits = proximal_loop(blocks, lam, alpha, beta, opts, W, b, accelerated, work)
        batches.append((W.copy(), None if b is None else b.copy(), fits))
        return fits

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
        for j, batch in enumerate(batches):
            expected[j] += smooth_objective(validation, _fit_result(*batch, fold).coef) / problem.t
    npt.assert_allclose(cv.mean_cv_error, expected / k, rtol=1e-12, atol=0.0)
