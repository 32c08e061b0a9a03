import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixedmtl.solver as solver_module
from mixedmtl import (
    DataError,
    Hyperparameters,
    LambdaSequence,
    MtlProblem,
    SimulationSpec,
    SolverOptions,
    TaskDataset,
    auc,
    cross_validate,
    explained_variance,
    full_objective,
    kfold_split,
    pseudo_explained_variance,
    reg_path,
    simulate,
)
from mixedmtl.modelselect import _cross_validate, task_folds
from mixedmtl.regpath import path_options

from util import random_labels


# ---------------------------------------------------------------------------
# fold construction


def test_kfold_partitions_everything():
    folds = kfold_split(4, 2, seed=0)
    assert [len(f) for f in folds] == [2, 2]
    npt.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(4))

    folds = kfold_split(5, 2, seed=0)
    assert sorted(len(f) for f in folds) == [2, 3]
    npt.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(5))


def test_kfold_deterministic():
    a = kfold_split(20, 4, seed=7)
    b = kfold_split(20, 4, seed=7)
    for fa, fb in zip(a, b):
        npt.assert_array_equal(fa, fb)
    c = kfold_split(20, 4, seed=8)
    assert any(len(fa) != len(fc) or (fa != fc).any() for fa, fc in zip(a, c))


def test_kfold_errors():
    with pytest.raises(ValueError):
        kfold_split(10, 1, seed=0)
    with pytest.raises(ValueError):
        kfold_split(3, 4, seed=0)


@pytest.mark.parametrize("name, call", [
    ("k", lambda problem: kfold_split(10, 2.5, 0)),
    ("seed", lambda problem: kfold_split(10, 2, -1)),
    ("seed", lambda problem: task_folds(problem, 2, -1)),
    ("seed", lambda problem: cross_validate(problem, k=2, seed=-1, n_lambda=3)),
], ids=["kfold_split-k", "kfold_split-seed", "task_folds-seed", "cross_validate-seed"])
def test_fold_arguments_are_rejected_by_name(name, call):
    # A fractional fold count is not truncated, and a negative seed is
    # reported by its name rather than by numpy's "expected non-negative
    # integer".
    problem = MtlProblem((TaskDataset(np.eye(6, 2), np.arange(6.0), "regression", "r"),))
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(problem)


@pytest.mark.parametrize("n_lambda, message", [
    (0, "n_lambda must be >= 1$"),
    (1.5, "n_lambda must be an integer, got 1.5$"),
], ids=["zero", "fraction"])
def test_cross_validate_checks_n_lambda_by_its_name(n_lambda, message):
    # A one-point grid is accepted, so the bound is 1 and the message names
    # n_lambda, not lambda_sequence's n (which needs 2 points).
    problem = MtlProblem((TaskDataset(np.eye(6, 2), np.arange(6.0), "regression", "r"),))
    with pytest.raises(ValueError, match="^" + message):
        cross_validate(problem, k=2, n_lambda=n_lambda)


def test_stratified_folds_keep_both_classes():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((24, 3))
    y = np.r_[np.ones(8), -np.ones(16)]
    problem = MtlProblem((TaskDataset(X, y, "classification", "c"),))
    folds = task_folds(problem, 4, seed=1)[0]
    npt.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(24))
    for fold in folds:
        assert set(np.unique(y[fold])) == {-1.0, 1.0}


def test_stratified_folds_never_empty_with_skewed_classes():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 2))
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    problem = MtlProblem((TaskDataset(X, y, "classification", "skewed"),))
    folds = task_folds(problem, 5, seed=0)[0]
    assert [len(f) for f in folds] == [1, 1, 1, 1, 1]
    npt.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(5))


def test_fold_assignment_independent_of_other_tasks():
    rng = np.random.default_rng(1)
    a = TaskDataset(rng.standard_normal((12, 2)), rng.standard_normal(12), "regression", "a")
    b = TaskDataset(rng.standard_normal((15, 2)), rng.standard_normal(15), "regression", "b")
    c = TaskDataset(rng.standard_normal((18, 2)), rng.standard_normal(18), "regression", "c")
    with_c = task_folds(MtlProblem((a, b, c)), 3, seed=5)
    without_c = task_folds(MtlProblem((a, b)), 3, seed=5)
    for fa, fb in zip(with_c[0], without_c[0]):
        npt.assert_array_equal(fa, fb)
    for fa, fb in zip(with_c[1], without_c[1]):
        npt.assert_array_equal(fa, fb)


# ---------------------------------------------------------------------------
# cross-validation


def _signal_problem(seed):
    spec = SimulationSpec(
        t_classification=2, t_regression=2, p=30, n_per_task=40,
        sparsity=0.8, noise_scale=0.5, seed=seed,
    )
    return simulate(spec).train


def test_cross_validate_single_lambda():
    problem = _signal_problem(0)
    result = cross_validate(problem, k=3, seed=0, n_lambda=1)
    assert result.sequence.length == 1
    assert result.best_lambda == result.sequence.values[0]


def test_cross_validate_deterministic():
    problem = _signal_problem(1)
    a = cross_validate(problem, k=3, seed=2, n_lambda=8)
    b = cross_validate(problem, k=3, seed=2, n_lambda=8)
    npt.assert_array_equal(a.mean_cv_error, b.mean_cv_error)
    npt.assert_array_equal(a.se_cv_error, b.se_cv_error)
    assert a.best_lambda == b.best_lambda


def test_cross_validate_prefers_large_lambda_on_noise():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        tasks = (
            TaskDataset(
                rng.standard_normal((25, 30)), random_labels(rng, 25), "classification", "c0"
            ),
            TaskDataset(
                rng.standard_normal((25, 30)), rng.standard_normal(25), "regression", "r0"
            ),
        )
        result = cross_validate(MtlProblem(tasks), k=5, seed=seed, n_lambda=20)
        assert result.mean_cv_error[0] <= result.mean_cv_error[-1] + 1e-8


def test_cross_validate_detects_signal():
    wins = 0
    for seed in range(5):
        problem = _signal_problem(200 + seed)
        result = cross_validate(problem, k=5, seed=seed, n_lambda=20)
        wins += result.best_lambda < result.sequence.values[0]
    assert wins >= 3


def test_cross_validate_best_lambda_in_sequence():
    problem = _signal_problem(2)
    result = cross_validate(problem, k=3, seed=0, n_lambda=10)
    assert result.best_lambda in result.sequence.values
    idx = int(np.flatnonzero(result.sequence.values == result.best_lambda)[0])
    assert result.mean_cv_error[idx] == result.mean_cv_error.min()
    assert result.folds == 3 and result.seed == 0


def test_cross_validate_one_se_rule_picks_larger_lambda():
    problem = _signal_problem(3)
    plain = cross_validate(problem, k=4, seed=1, n_lambda=15)
    one_se = cross_validate(problem, k=4, seed=1, n_lambda=15, one_se=True)
    assert one_se.best_lambda >= plain.best_lambda


def _noise_problem(seed):
    rng = np.random.default_rng(100 + seed)
    return MtlProblem((
        TaskDataset(rng.standard_normal((25, 30)), random_labels(rng, 25), "classification", "c0"),
        TaskDataset(rng.standard_normal((25, 30)), rng.standard_normal(25), "regression", "r0"),
    ))


@pytest.mark.parametrize("problem, k, seed, n_lambda, one_se, index", [
    (("signal", 1), 3, 2, 8, False, 4),
    (("signal", 2), 3, 0, 10, False, 6),
    (("signal", 3), 4, 1, 15, False, 8),
    (("signal", 3), 4, 1, 15, True, 6),
    *[(("signal", 200 + s), 5, s, 20, False, i) for s, i in enumerate([12, 12, 10, 12, 12])],
    *[(("noise", s), 5, s, 20, False, i) for s, i in enumerate([0, 0, 2, 0, 0])],
])
def test_cross_validate_keeps_the_per_fold_selection(problem, k, seed, n_lambda, one_se, index):
    # The grid indices the per-fold implementation (a copied problem and a
    # separate path per fold, then a refit) selected on the fixtures above.
    kind, problem_seed = problem
    problem = _signal_problem(problem_seed) if kind == "signal" else _noise_problem(problem_seed)
    result = cross_validate(problem, k=k, seed=seed, n_lambda=n_lambda, one_se=one_se)
    assert result.best_lambda == result.sequence.values[index]


def test_cross_validate_fit_is_the_full_data_path_at_the_selected_penalty():
    problem = _signal_problem(2)
    result = cross_validate(problem, k=3, seed=0, n_lambda=10)
    index = int(np.flatnonzero(result.sequence.values == result.best_lambda)[0])
    values = result.sequence.values[: index + 1]
    sequence = LambdaSequence(values, ratio=values[-1] / values[0])
    refit = reg_path(problem, sequence).fits[-1]
    hyper = Hyperparameters(result.best_lambda)
    assert result.fit.iterations > 0
    assert abs(full_objective(problem, result.fit.coef, hyper)
               - full_objective(problem, refit.coef, hyper)) <= 1e-10


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_cross_validate_fit_at_lam_max_is_exactly_zero(kind):
    # One task, as singletask fits it: at the head of the grid the
    # full-data member stays at W = 0 exactly, as a fit from zero at
    # lam_max does, so its scores are constant rather than rounding noise.
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, p = int(rng.integers(20, 41)), int(rng.integers(50, 201))
        y = random_labels(rng, n) if kind == "classification" else rng.standard_normal(n)
        y[:2] = [1.0, -1.0]
        problem = MtlProblem((TaskDataset(rng.standard_normal((n, p)), y, kind, "task"),))
        for k in (3, 5):
            fit = cross_validate(problem, k=k, seed=int(rng.integers(100)), n_lambda=1).fit
            assert fit.iterations == 1 and not fit.coef.W.any()


def test_cross_validate_single_class_fold_raises():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 4))
    y = -np.ones(10)
    y[3] = 1.0  # a single positive: some training split must lose it
    problem = MtlProblem((TaskDataset(X, y, "classification", "lonely"),))
    with pytest.raises(DataError, match="lonely"):
        cross_validate(problem, k=5, seed=0, n_lambda=3)


def test_cross_validate_requires_enough_samples():
    rng = np.random.default_rng(4)
    problem = MtlProblem(
        (TaskDataset(rng.standard_normal((3, 2)), rng.standard_normal(3), "regression", "r"),)
    )
    with pytest.raises(DataError):
        cross_validate(problem, k=5, seed=0, n_lambda=3)
    with pytest.raises(ValueError):
        cross_validate(problem, k=1, seed=0, n_lambda=3)


def test_cross_validate_counts_unconverged_member_fits():
    problem = _signal_problem(4)
    capped = cross_validate(problem, k=3, seed=0, n_lambda=6, opts=SolverOptions(max_iter=1))
    assert 0 < capped.unconverged <= (3 + 1) * 6
    loose = SolverOptions(max_iter=5000, tol=1e-6)
    assert cross_validate(problem, k=3, seed=0, n_lambda=6, opts=loose).unconverged == 0
    results = _cross_validate(problem, 0.0, 0.0, 3, 0, SolverOptions(max_iter=1), 6, 0.01,
                              False, per_task=True)
    assert [result.unconverged for result in results] == [
        cross_validate(MtlProblem((task,)), k=3, seed=0, n_lambda=6,
                       opts=SolverOptions(max_iter=1)).unconverged
        for task in problem.tasks
    ]
    assert sum(result.unconverged for result in results) > 0


# ---------------------------------------------------------------------------
# the single-task baseline: one batched cross-validation of every task


def _uneven_problem(rng, fit_intercept):
    """Tasks with unequal n_i, a true signal, and scales far apart, so
    their fits stop at very different turns; every class has >= 2 rows,
    so no training split is left with one class."""
    t = int(rng.integers(1, 6))
    c, p = int(rng.integers(0, t + 1)), int(rng.integers(2, 16))
    tasks = []
    for i in range(t):
        n = int(rng.integers(8, 31))
        X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-1.0, 1.0)
        w = rng.standard_normal(p) * (rng.random(p) < 0.5) * rng.integers(0, 2)
        score = X @ w + rng.uniform(0.1, 1.0) * rng.standard_normal(n)
        if i < c:
            y = np.where(score >= 0.0, 1.0, -1.0)
            y[:4] = [1.0, 1.0, -1.0, -1.0]
            tasks.append(TaskDataset(X, y, "classification", f"c{i}"))
        else:
            tasks.append(TaskDataset(X, score + 3.0 * fit_intercept, "regression", f"r{i}"))
    return MtlProblem(tuple(tasks))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), one_se=st.booleans())
def test_per_task_cross_validation_equals_each_task_alone(seed, fit_intercept, one_se):
    rng = np.random.default_rng(seed)
    problem = _uneven_problem(rng, fit_intercept)
    k, n_lambda = int(rng.integers(2, 5)), int(rng.integers(1, 9))
    alpha, beta = rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3) * rng.integers(0, 2)
    opts = SolverOptions(max_iter=int(rng.integers(1, 120)), tol=1e-6,
                         fit_intercept=fit_intercept)
    args = (alpha, beta, k, seed % 1000, opts, n_lambda, 0.05, one_se)
    results = _cross_validate(problem, *args, per_task=True)
    assert len(results) == problem.t
    for task, result in zip(problem.tasks, results):
        alone = cross_validate(MtlProblem((task,)), *args)
        assert result.best_lambda == alone.best_lambda
        npt.assert_array_equal(result.sequence.values, alone.sequence.values)
        npt.assert_array_equal(result.mean_cv_error, alone.mean_cv_error)
        npt.assert_array_equal(result.se_cv_error, alone.se_cv_error)
        npt.assert_array_equal(result.fit.coef.W, alone.fit.coef.W)
        npt.assert_array_equal(result.fit.objective_trace, alone.fit.objective_trace)
        assert result.fit.iterations == alone.fit.iterations
        assert result.unconverged == alone.unconverged
        assert result.fit.coef.W.shape == (problem.p, 1)
        npt.assert_array_equal(result.fit.coef.W[:, 0], alone.fit.coef.W[:, 0])
        if fit_intercept:
            npt.assert_array_equal(result.fit.coef.intercepts, alone.fit.coef.intercepts)
            assert result.fit.coef.intercepts[0] == alone.fit.coef.intercepts[0]
        else:
            assert result.fit.coef.intercepts is None


def test_per_task_cross_validation_drops_finished_tasks(monkeypatch):
    # A task whose fits have all stopped leaves the batch; the result is
    # still each task's own.
    kept = []
    subset = solver_module._task_subset

    def recorded(blocks, alive):
        if not alive.all():
            # The batch is cut: (tasks it keeps, tasks it held before).
            kept.append((int(alive.sum()), len(alive)))
        return subset(blocks, alive)

    monkeypatch.setattr(solver_module, "_task_subset", recorded)
    rng = np.random.default_rng(5)
    for trial in range(6):
        problem = _uneven_problem(rng, fit_intercept=bool(trial % 2))
        results = _cross_validate(problem, 0.0, 0.0, 3, trial, path_options(trial % 2 == 1),
                                  8, 0.01, False, per_task=True)
        for task, result in zip(problem.tasks, results):
            alone = cross_validate(MtlProblem((task,)), k=3, seed=trial, n_lambda=8,
                                   opts=path_options(trial % 2 == 1), ratio=0.01)
            npt.assert_array_equal(result.fit.coef.W, alone.fit.coef.W)
            npt.assert_array_equal(result.mean_cv_error, alone.mean_cv_error)
    assert kept and all(1 <= held < before for held, before in kept)


def _one_negative(rng, name, n_pos):
    # Stratified folds put the single negative in fold n_pos % k, whose
    # training rows are then all positive.
    y = np.ones(n_pos + 1)
    y[0] = -1.0
    return TaskDataset(rng.standard_normal((n_pos + 1, 4)), y, "classification", name)


def test_per_task_cross_validation_raises_the_first_error_in_task_order():
    rng = np.random.default_rng(8)
    k, seed = 4, 3
    late = _one_negative(rng, "late", n_pos=11)  # fails at fold 3
    early = _one_negative(rng, "early", n_pos=9)  # fails at fold 1
    labels = np.tile([1.0, -1.0], 6)
    flat = TaskDataset(np.zeros((12, 4)), labels, "classification", "flat")  # lam_max 0
    few = TaskDataset(rng.standard_normal((3, 4)), rng.standard_normal(3), "regression", "few")
    fine = TaskDataset(rng.standard_normal((12, 4)), rng.standard_normal(12), "regression", "ok")

    def task_by_task(problem, n_lambda):
        for task in problem.tasks:
            try:
                cross_validate(MtlProblem((task,)), k=k, seed=seed, n_lambda=n_lambda)
            except DataError as err:
                return str(err)

    for tasks, n_lambda, message in [
        ((flat, late, early, fine), 5, "lam_max must be positive to build a path, got 0.0"),
        ((flat, late, early), 1, "lam_max is zero; the data has no usable signal"),
        ((late, flat, early), 5, "fold 3 leaves task 'late' with a single class"),
        ((late, early), 5, "fold 3 leaves task 'late' with a single class"),
        ((early, late), 5, "fold 1 leaves task 'early' with a single class"),
        ((flat, fine, few), 5, "lam_max must be positive to build a path, got 0.0"),
        ((fine, few), 5, "task 'few': 3 samples cannot form 4 folds"),
    ]:
        problem = MtlProblem(tasks)
        assert task_by_task(problem, n_lambda) == message
        with pytest.raises(DataError) as info:
            _cross_validate(problem, 0.0, 0.0, k, seed, None, n_lambda, 0.01, False,
                            per_task=True)
        assert str(info.value) == message, [task.name for task in tasks]
    # Joint cross-validation keeps its fold-major order.
    with pytest.raises(DataError, match="fold 1 leaves task 'early'"):
        cross_validate(MtlProblem((late, early)), k=k, seed=seed, n_lambda=5)


# ---------------------------------------------------------------------------
# AUC


def _brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l > 0]
    neg = [s for s, l in zip(scores, labels) if l <= 0]
    total = 0.0
    for a in pos:
        for b in neg:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_examples():
    assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, -1, -1]) == 1.0
    assert auc([0.4, 0.4, 0.4, 0.4], [1, -1, 1, -1]) == 0.5
    assert auc([0.1, 0.4, 0.35, 0.8], [-1, -1, 1, 1]) == 0.75


def test_auc_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(3, 40))
        scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
        labels = random_labels(rng, n)
        assert auc(scores, labels) == _brute_force_auc(scores, labels)


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(6)
    scores = rng.standard_normal(30)
    labels = random_labels(rng, 30)
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == base
    assert auc(3.0 * scores + 7.0, labels) == base


def test_auc_complement_for_negated_scores():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal(25)  # continuous draws are tie-free
    labels = random_labels(rng, 25)
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_auc_single_class_raises():
    with pytest.raises(DataError):
        auc([0.1, 0.2], [1, 1])


# ---------------------------------------------------------------------------
# explained variance


def test_explained_variance_examples():
    y = np.array([1.0, 2.0, 3.0])
    assert explained_variance(y, y) == 1.0
    assert explained_variance(np.full(3, y.mean()), y) == 0.0
    assert explained_variance(np.array([1.0, 2.0, 4.0]), y) == pytest.approx(0.5, abs=1e-15)


def test_explained_variance_on_one_sample_is_a_data_error():
    # Too few samples is a property of the data; a shape mismatch is a
    # caller's mistake and stays a plain ValueError.
    with pytest.raises(DataError, match="at least 2 samples"):
        explained_variance(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError, match="equal length") as err:
        explained_variance(np.zeros(3), np.zeros(4))
    assert not isinstance(err.value, DataError)


def test_explained_variance_affine_invariance():
    rng = np.random.default_rng(8)
    pred = rng.standard_normal(20)
    y = rng.standard_normal(20)
    base = explained_variance(pred, y)
    for a, b in ((2.0, 3.0), (-1.5, 0.0), (0.1, -4.0)):
        assert explained_variance(a * pred + b, a * y + b) == pytest.approx(base, rel=1e-12)


def test_explained_variance_errors():
    with pytest.raises(DataError):
        explained_variance([1.0, 2.0], [3.0, 3.0])
    with pytest.raises(ValueError):
        explained_variance([1.0], [1.0])


# ---------------------------------------------------------------------------
# pseudo explained variance


def test_pseudo_ev_perfectly_related_scores():
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    assert pseudo_explained_variance(2.0 * labels + 0.5, labels) == pytest.approx(1.0, rel=1e-12)


def test_pseudo_ev_constant_scores_zero():
    assert pseudo_explained_variance([1.0, 1.0, 1.0, 1.0], [1, -1, 1, -1]) == 0.0


def test_pseudo_ev_symmetric_scores_zero():
    assert pseudo_explained_variance([1.0, 1.0, -1.0, -1.0], [1, -1, 1, -1]) == 0.0


def test_pseudo_ev_bounded():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        value = pseudo_explained_variance(rng.standard_normal(n), random_labels(rng, n))
        assert 0.0 <= value <= 1.0


def test_pseudo_ev_single_class_raises():
    with pytest.raises(DataError):
        pseudo_explained_variance([0.1, 0.2], [1, 1])
