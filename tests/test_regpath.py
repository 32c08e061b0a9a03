import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mixedmtl import modelselect, regpath
from mixedmtl import (
    CoefficientMatrix,
    DataError,
    Hyperparameters,
    LambdaSequence,
    MtlProblem,
    SimulationSpec,
    SolverError,
    SolverOptions,
    TaskDataset,
    TaskKind,
    cross_validate,
    fista_fit,
    full_objective,
    lam_max,
    lambda_sequence,
    path_options,
    reg_path,
    run_benchmark,
    sigmoid,
    simulate,
    smooth_gradient,
)
from mixedmtl.core import _batch_gradient, _batch_objective, _n_features, _row_norms
from mixedmtl.modelselect import _cross_validate
from mixedmtl.regpath import NONZERO_ROW_THRESHOLD
from mixedmtl.solver import _fit_result

from util import random_labels, random_mixed_problem


# ---------------------------------------------------------------------------
# lam_max


def test_lam_max_single_regression_task():
    problem = MtlProblem((TaskDataset([[1.0], [2.0]], [2.0, 4.0], "regression", "r"),))
    assert lam_max(problem) == pytest.approx(5.0, abs=1e-15)


def test_lam_max_mixed_tasks_row_norm():
    clf = TaskDataset([[1.0], [-1.0]], [1.0, -1.0], "classification", "c")
    reg = TaskDataset([[1.0], [2.0]], [2.0, 4.0], "regression", "r")
    problem = MtlProblem((clf, reg))
    assert lam_max(problem) == pytest.approx(np.sqrt(26.0), rel=1e-14)


def test_lam_max_orthogonal_outcomes():
    X = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 1.0])  # orthogonal to the only feature column
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    assert lam_max(problem) == 0.0


def test_lam_max_equals_gradient_row_norm_at_zero():
    rng = np.random.default_rng(0)
    for _ in range(5):
        problem = random_mixed_problem(rng)
        gW, _ = smooth_gradient(problem, CoefficientMatrix.zeros(problem.p, problem.t))
        assert lam_max(problem) == pytest.approx(
            float(np.max(np.linalg.norm(gW, axis=1))), rel=1e-14, abs=1e-15
        )


def test_lam_max_alignment_between_task_kinds():
    # A regression task whose outcomes equal the classification labels has
    # the same (1/N) X^T y cross products, hence equal matrix columns.
    rng = np.random.default_rng(1)
    X = rng.standard_normal((25, 6))
    y = random_labels(rng, 25)
    problem = MtlProblem(
        (
            TaskDataset(X, y, "classification", "c"),
            TaskDataset(X, y.astype(float), "regression", "r"),
        )
    )
    gW, _ = smooth_gradient(problem, CoefficientMatrix.zeros(6, 2))
    npt.assert_allclose(gW[:, 0], gW[:, 1], rtol=0, atol=1e-12)


def test_lam_max_with_intercepts():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 4))
    y_reg = rng.standard_normal(30) + 5.0  # strong offset
    y_clf = np.r_[np.ones(20), -np.ones(10)]
    problem = MtlProblem(
        (
            TaskDataset(X, y_clf, "classification", "c"),
            TaskDataset(X, y_reg, "regression", "r"),
        )
    )
    # Residuals after fitting the intercept-only model: centered outcomes for
    # regression, log-odds-weighted labels for classification.
    b = np.log(20.0 / 10.0)
    col_clf = 2.0 * X.T @ (y_clf * sigmoid(-y_clf * b)) / 30.0
    col_reg = X.T @ (y_reg - y_reg.mean()) / 30.0
    expected = float(np.max(np.linalg.norm(np.c_[col_clf, col_reg], axis=1)))
    assert lam_max(problem, fit_intercept=True) == pytest.approx(expected, rel=1e-12)


def test_lam_max_overflow_is_a_data_error():
    # X^T y overflows: one DataError, and no numpy warning before it (the
    # suite turns a RuntimeWarning into a failure).
    X = np.array([[1e160], [2e160]])
    problem = MtlProblem((TaskDataset(X, [1e160, -3e160], "regression", "r"),))
    for fit_intercept in (False, True):
        with pytest.raises(DataError, match="overflow"):
            lam_max(problem, fit_intercept=fit_intercept)
        with pytest.raises(DataError, match="overflow"):
            cross_validate(problem, k=2, opts=path_options(fit_intercept), n_lambda=3)


def test_lam_max_intercept_needs_both_classes():
    X = np.ones((3, 2))
    problem = MtlProblem((TaskDataset(X, np.ones(3), "classification", "c"),))
    with pytest.raises(DataError):
        lam_max(problem, fit_intercept=True)


# ---------------------------------------------------------------------------
# lambda sequence


def test_lambda_sequence_examples():
    seq = lambda_sequence(1.0, ratio=0.01, n=3)
    npt.assert_allclose(seq.values, [1.0, 0.1, 0.01], rtol=1e-12)

    seq = lambda_sequence(2.0, ratio=0.5, n=2)
    npt.assert_allclose(seq.values, [2.0, 1.0], rtol=1e-15)

    seq = lambda_sequence(5.0, ratio=0.01, n=5)
    assert seq.values[0] == 5.0
    assert seq.values[-1] == pytest.approx(0.05, rel=1e-15)
    npt.assert_allclose(np.diff(np.log(seq.values)), np.log(0.01) / 4.0, rtol=1e-12)


def test_lambda_sequence_log_affine():
    seq = lambda_sequence(3.7, ratio=0.02, n=40)
    logs = np.log(seq.values)
    slope = (logs[-1] - logs[0]) / (seq.length - 1)
    npt.assert_allclose(np.diff(logs), slope, rtol=1e-12)
    assert seq.length == 40


def test_lambda_sequence_errors():
    with pytest.raises(DataError):
        lambda_sequence(0.0)
    with pytest.raises(DataError):
        lambda_sequence(-1.0)
    with pytest.raises(ValueError):
        lambda_sequence(1.0, ratio=1.5)
    with pytest.raises(ValueError):
        lambda_sequence(1.0, n=1)


@pytest.mark.parametrize("name, call", [
    ("values", lambda: LambdaSequence(values=np.array([np.inf, 1.0]), ratio=0.5)),
    ("lam_max_val", lambda: lambda_sequence(np.inf)),
    ("n", lambda: lambda_sequence(1.0, 0.1, n=2.5)),
], ids=["LambdaSequence-inf", "lambda_sequence-inf", "lambda_sequence-n"])
def test_lambda_sequence_names_the_argument_it_rejects(name, call):
    # An infinite penalty and a fractional point count are rejected where
    # they are passed, not at the first fit or by truncation.
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def test_lambda_sequence_type_validation():
    with pytest.raises(ValueError):
        LambdaSequence(values=np.array([1.0, 2.0]), ratio=0.5)  # increasing
    with pytest.raises(ValueError):
        LambdaSequence(values=np.array([1.0, -0.5]), ratio=0.5)  # nonpositive
    with pytest.raises(ValueError):
        LambdaSequence(values=np.array([1.0, 0.5]), ratio=1.0)  # ratio must be < 1
    single = LambdaSequence(values=np.array([2.0]), ratio=1.0)  # degenerate is allowed
    assert single.length == 1


# ---------------------------------------------------------------------------
# path fitting


def _small_sim(seed=3):
    spec = SimulationSpec(
        t_classification=2, t_regression=2, p=30, n_per_task=25,
        sparsity=0.8, noise_scale=0.5, seed=seed,
    )
    return simulate(spec)


def test_path_head_is_zero_and_threshold_is_sharp():
    sim = _small_sim()
    top = lam_max(sim.train)
    seq = lambda_sequence(top, ratio=0.01, n=10)
    path = reg_path(sim.train, seq)
    assert path.nonzero_rows[0] == 0
    assert np.max(np.linalg.norm(path.fits[0].coef.W, axis=1)) <= 1e-10

    below = fista_fit(sim.train, Hyperparameters(0.95 * top))
    assert np.max(np.linalg.norm(below.coef.W, axis=1)) > 1e-6


def test_path_regression_fixture():
    # Frozen run of the default-configured path on a fixed instance.
    sim = _small_sim(seed=3)
    top = lam_max(sim.train)
    assert top == pytest.approx(3.0660656506288007, rel=1e-12)
    sequence = lambda_sequence(top, ratio=0.01, n=30)
    path = reg_path(sim.train, sequence)
    assert path.nonzero_rows.tolist() == [
        0, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 8, 12, 13, 15,
        16, 17, 19, 21, 23, 23, 23, 24, 26, 26, 27, 27, 27, 27, 27,
    ]
    assert path.nonzero_rows[-1] >= path.nonzero_rows[0]
    # The default path selects the rows of the converged path.
    converged = reg_path(sim.train, sequence, opts=SolverOptions(max_iter=100000, tol=1e-15))
    assert path.nonzero_rows.tolist() == converged.nonzero_rows.tolist()


def test_warm_start_dominates_cold_start():
    # Compared at convergence; the 100-iteration path default leaves
    # dense-end fits unconverged, where the comparison is noise.
    sim = _small_sim()
    opts = SolverOptions(max_iter=1000, tol=1e-10)
    top = lam_max(sim.train)
    seq = lambda_sequence(top, ratio=0.01, n=12)
    path = reg_path(sim.train, seq, opts=opts)
    for lam, fit in zip(seq.values, path.fits):
        hyper = Hyperparameters(lam)
        cold = fista_fit(sim.train, hyper, opts)
        warm_obj = full_objective(sim.train, fit.coef, hyper)
        cold_obj = full_objective(sim.train, cold.coef, hyper)
        assert warm_obj <= cold_obj + 1e-6


def test_single_point_path_equals_direct_fit():
    rng = np.random.default_rng(4)
    problem = random_mixed_problem(rng, p=6, t=2, c=1, n_lo=8)
    lam = 0.4 * lam_max(problem)
    seq = LambdaSequence(values=np.array([lam]), ratio=1.0)
    path = reg_path(problem, seq)
    direct = fista_fit(problem, Hyperparameters(lam), path_options())
    npt.assert_array_equal(path.fits[0].coef.W, direct.coef.W)


@pytest.mark.parametrize("fit_intercept", [False, True])
def test_path_prefixes_are_shorter_paths_bit_for_bit(fit_intercept):
    # Each point starts from the last one's fits: a scratch array of one
    # point that overwrote an earlier point's fit would break a prefix.
    rng = np.random.default_rng(31)
    opts = SolverOptions(max_iter=300, tol=1e-10, fit_intercept=fit_intercept)
    for t in (1, 2, 4):
        problem = random_mixed_problem(rng, p=12, t=t, n_lo=10)
        seq = lambda_sequence(lam_max(problem, fit_intercept=fit_intercept), 0.02, 6)
        full = reg_path(problem, seq, alpha=0.1, opts=opts)
        for k in range(1, seq.length):
            prefix = reg_path(problem, LambdaSequence(seq.values[:k], seq.ratio), alpha=0.1, opts=opts)
            npt.assert_array_equal(prefix.nonzero_rows, full.nonzero_rows[:k])
            for short, long in zip(prefix.fits, full.fits):
                assert short.coef.W.tobytes() == long.coef.W.tobytes()
                if fit_intercept:
                    assert short.coef.intercepts.tobytes() == long.coef.intercepts.tobytes()
                assert short.objective_trace.tobytes() == long.objective_trace.tobytes()
                assert (short.final_L, short.iterations, short.converged) == (
                    long.final_L, long.iterations, long.converged)


def _same_fit(a, b):
    assert np.array_equal(a.coef.W, b.coef.W)
    assert (a.coef.intercepts is None) == (b.coef.intercepts is None)
    if a.coef.intercepts is not None:
        assert np.array_equal(a.coef.intercepts, b.coef.intercepts)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert (a.final_L, a.iterations, a.converged) == (b.final_L, b.iterations, b.converged)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), weights=st.booleans(),
       tiny=st.booleans())
def test_kept_path_reads_every_fit_of_the_dense_path(seed, fit_intercept, weights, tiny):
    # reg_path keeps each point as its nonzero rows and builds a fit when
    # it is read: every fit equals the dense batch _path leaves at that
    # point, with +0.0 in its zero rows.  A tiny problem has only
    # regression tasks, with outcomes scaled by 1e-9, so its nonzero rows
    # lie far below NONZERO_ROW_THRESHOLD: the store keeps every nonzero
    # row, not only the rows it counts.
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng, c=0 if tiny else None, n_lo=4)
    if tiny:
        problem = MtlProblem(tuple(TaskDataset(task.X, 1e-9 * task.y, "regression", task.name)
                                   for task in problem.tasks))
    opts = path_options(fit_intercept)
    alpha, beta = (0.1, 0.05) if weights else (0.0, 0.0)
    sequence = lambda_sequence(lam_max(problem, fit_intercept=fit_intercept), 0.02, 6)
    path = reg_path(problem, sequence, alpha, beta, opts)

    W, S = regpath._start(problem, 1, fit_intercept)
    points = regpath._path(problem._blocks, sequence.values[:, None], alpha, beta, opts, W, S)
    dense = [_fit_result(W.copy(), problem.p, fits, 0) for fits in points]
    reads = list(path.fits)
    assert len(path.fits) == len(reads) == len(dense) == sequence.length
    for fit, expected in zip(reads, dense):
        _same_fit(fit, expected)
        zero_rows = fit.coef.W[~fit.coef.W.any(axis=1)]
        assert not np.signbit(zero_rows).any()
    if tiny:
        assert reads[-1].coef.W.any() and not path.nonzero_rows.any()

    for i in range(-len(reads), len(reads)):
        _same_fit(path.fits[i], reads[i])
    for part in (slice(1, -1), slice(None, None, -2), slice(4, 100)):
        sliced = path.fits[part]
        assert isinstance(sliced, tuple) and len(sliced) == len(reads[part])
        for fit, expected in zip(sliced, reads[part]):
            _same_fit(fit, expected)
    with pytest.raises(IndexError):
        path.fits[len(reads)]
    counts = [np.sum(np.linalg.norm(fit.coef.W, axis=1) > NONZERO_ROW_THRESHOLD) for fit in dense]
    assert path.nonzero_rows.tolist() == counts


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), per_task=st.booleans(),
       one_se=st.booleans())
def test_cross_validation_reads_its_fits_from_the_kept_path(seed, fit_intercept, per_task,
                                                            one_se):
    # Cross-validation keeps the full-data member's points of its batched
    # path in the kept-path type: each result's fit, joint or per task,
    # equals that member's fit in the dense batch _path leaves at the
    # selected point, with +0.0 for every zero coefficient (a per-task
    # fit's row can be zero where another task's is not).
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng, t=int(rng.integers(1, 4)), n_lo=8, n_hi=16)
    # Every training split keeps both classes when each class has two samples.
    assume(all(min(np.sum(task.y > 0), np.sum(task.y < 0)) >= 2
               for task in problem.tasks if task.kind is TaskKind.CLASSIFICATION))
    k = int(rng.integers(2, 4))
    alpha, beta = (0.1, 0.05) if rng.integers(0, 2) else (0.0, 0.0)
    batches = []  # the dense batch and its per-fit lists at each point

    def recording(blocks, lam, alpha, beta, opts, W, accelerated, work=None, S=None):
        fits = proximal_loop(blocks, lam, alpha, beta, opts, W, accelerated, work, S)
        batches.append((W.copy(), fits))
        return fits

    proximal_loop = regpath._proximal_loop
    with mock.patch.object(regpath, "_proximal_loop", recording):
        results = _cross_validate(problem, alpha, beta, k, seed % 1000,
                                  path_options(fit_intercept), 6, 0.05, one_se, per_task)
    units = problem.t if per_task else 1
    assert len(results) == units and len(batches) == 6
    for u, result in enumerate(results):
        j = int(np.flatnonzero(result.sequence.values == result.best_lambda)[0])
        W, fits = batches[j]
        _same_fit(result.fit, _fit_result(W, problem.p, fits, k * units + u))
        assert result.fit.objective_trace.tobytes() == np.array(fits[0][k * units + u]).tobytes()
        zeros = result.fit.coef.W[result.fit.coef.W == 0.0]
        assert not np.signbit(zeros).any()


def test_a_kept_path_costs_its_nonzero_rows():
    # A wide, sparse path holds each point's nonzero rows once reg_path
    # returns, not one dense p x t matrix per point.
    spec = SimulationSpec(t_classification=2, t_regression=2, p=2000, n_per_task=100,
                          sparsity=0.995, noise_scale=0.5, seed=0)
    problem = simulate(spec).train
    sequence = lambda_sequence(lam_max(problem), ratio=0.05, n=30)
    tracemalloc.start()
    try:
        path = reg_path(problem, sequence)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    dense = sequence.length * problem.p * problem.t * 8
    assert retained < dense / 4, (retained, dense, path.nonzero_rows.tolist())


def test_path_reports_offending_lambda():
    X = np.array([[1.0], [2.0]])
    y = np.array([1e200, -1e200])
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    seq = LambdaSequence(values=np.array([2.0, 1.0]), ratio=0.5)
    with pytest.raises(SolverError, match="lambda=2.0"):
        with np.errstate(over="ignore"):
            reg_path(problem, seq)


def test_path_with_intercepts_zero_head():
    sim = _small_sim(seed=6)
    opts = SolverOptions(max_iter=100, tol=1e-6, fit_intercept=True)
    top = lam_max(sim.train, fit_intercept=True)
    path = reg_path(sim.train, lambda_sequence(top, ratio=0.1, n=5), opts=opts)
    assert path.nonzero_rows[0] == 0
    assert path.fits[0].coef.intercepts is not None


def _offset_problem(seed):
    """Two classification and two regression tasks whose features have mean
    0.5 and whose regression outcomes are shifted by 5: intercepts far from 0."""
    rng = np.random.default_rng(seed)
    w = np.r_[np.ones(3), np.zeros(27)]
    tasks = []
    for i, kind in enumerate(["classification"] * 2 + ["regression"] * 2):
        X = rng.standard_normal((40, 30)) + 0.5
        s = X @ w + rng.standard_normal(40)
        y = np.where(s > np.median(s), 1.0, -1.0) if kind == "classification" else s + 5.0
        tasks.append(TaskDataset(X, y, kind, f"task{i}"))
    return MtlProblem(tuple(tasks))


def test_path_with_intercepts_starts_at_the_null_model():
    # lam_max is taken at the null model (W = 0, each task's intercept-only
    # fit), and so a path starts there: at lam_max its head stays exactly
    # zero, for reg_path and for cross-validation's full-data fit.  From zero
    # intercepts the head kept a row of norm up to about 1e-3.
    for seed in range(4):
        problem = _offset_problem(seed)
        opts = path_options(fit_intercept=True)
        top = lam_max(problem, fit_intercept=True)
        head = reg_path(problem, lambda_sequence(top, ratio=0.01, n=10), opts=opts).fits[0]
        assert not head.coef.W.any(), seed
        fit = cross_validate(problem, k=3, seed=seed, opts=opts, n_lambda=1).fit
        assert not fit.coef.W.any(), seed


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), 1e308])
def test_entry_points_reject_unusable_penalty_weights(name, value):
    # Every entry point checks alpha and beta before fitting, as
    # Hyperparameters does for fista_fit; at 1e308 the gradient's factor
    # 2 * alpha (2 * beta) would overflow.
    problem = _small_sim().train
    weight = {name: value}
    sequence = lambda_sequence(lam_max(problem), ratio=0.1, n=3)
    for call in (
        lambda: fista_fit(problem, Hyperparameters(0.1, **weight)),
        lambda: reg_path(problem, sequence, **weight),
        lambda: cross_validate(problem, k=3, n_lambda=3, **weight),
        lambda: run_benchmark(SimulationSpec(p=20), ratios=(0.5,), seeds=(1,), n_lambda=3,
                              **weight),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call()


# ---------------------------------------------------------------------------
# working sets


def _recorded_points(run, divisor, strong=None):
    """Run run() with the path's cap divisor set to divisor (and its strong
    rule replaced by strong, when given).  Returns, per point of every path
    it runs, each fit's full objective F + lam ||w||_{2,1} and the largest
    full-row KKT violations relative to lam from a fresh gradient: on its
    zero rows max(||g_j|| - lam, 0), on its nonzero rows
    ||g_j + lam w_j / ||w_j|| ||; and the numbers of gathered solves and
    of all solves."""
    points, path, gathered, solves = [], regpath._path, [], []
    feature_subset, proximal_loop = regpath._feature_subset, regpath._proximal_loop

    def recording(blocks, lams, alpha, beta, opts, W, S=None, norms=None):
        p = _n_features(blocks)
        for lam, fits in zip(lams, path(blocks, lams, alpha, beta, opts, W, S, norms)):
            row_norms = _row_norms(W[..., :p])
            objective = _batch_objective(blocks, W, alpha, beta) + lam * row_norms.sum(axis=1)
            grad = _batch_gradient(blocks, W, alpha, beta)[..., :p]
            zero = row_norms == 0.0
            unit = W[..., :p] / np.where(zero, 1.0, row_norms)[:, None, :]
            violation = np.where(zero, np.maximum(_row_norms(grad) - lam[:, None], 0.0),
                                 _row_norms(grad + lam[:, None, None] * unit))
            points.append((objective, np.where(zero, violation, 0.0).max(axis=1) / lam,
                           np.where(zero, 0.0, violation).max(axis=1) / lam))
            yield fits

    def counted(blocks, rows):
        gathered.append(len(rows))
        return feature_subset(blocks, rows)

    def solving(*args):
        solves.append(True)
        return proximal_loop(*args)

    with mock.patch.object(regpath, "_path", recording), \
            mock.patch.object(modelselect, "_path", recording), \
            mock.patch.object(regpath, "_feature_subset", counted), \
            mock.patch.object(regpath, "_proximal_loop", solving), \
            mock.patch.object(regpath, "_GATHER_DIVISOR", divisor), \
            mock.patch.object(regpath, "_strong_rows", strong or regpath._strong_rows):
        run()
    return points, len(gathered), len(solves)


def _working_set_case(seed, fit_intercept, weights, run):
    """A random mixed problem with 64 to 96 features and a call of reg_path
    or of joint or per-task cross-validation on it, under tight options."""
    rng = np.random.default_rng(seed)
    problem = random_mixed_problem(rng, p=int(rng.integers(64, 97)), t=int(rng.integers(1, 4)),
                                   n_lo=12, n_hi=30)
    # Every training split keeps both classes when each class has three samples.
    assume(all(min(np.sum(task.y > 0), np.sum(task.y < 0)) >= 3
               for task in problem.tasks if task.kind is TaskKind.CLASSIFICATION))
    alpha, beta = (0.1, 0.05) if weights else (0.0, 0.0)
    opts = SolverOptions(max_iter=20000, tol=1e-14, fit_intercept=fit_intercept)
    ratio, n = (0.3, 8) if rng.integers(0, 2) else (0.05, 6)
    if run == "path":
        sequence = lambda_sequence(lam_max(problem, fit_intercept), ratio, n)
        return lambda: reg_path(problem, sequence, alpha, beta, opts)
    return lambda: _cross_validate(problem, alpha, beta, 3, seed % 1000, opts, n, ratio, False,
                                   run == "per_task")


def _check_against_the_full_layout(points, full):
    # Criterion 5's tolerance on every fit's full objective at every point,
    # and a fresh full-row KKT check: no zero row violates, and the nonzero
    # rows are as stationary as the full layout's.
    assert len(points) == len(full)
    for (objective, zero_rows, nonzero_rows), (expected, _, full_rows) in zip(points, full):
        assert np.abs(objective - expected).max() <= 1e-8
        assert zero_rows.max() <= 1e-12
        assert nonzero_rows.max() <= max(1e-5, 10.0 * full_rows.max())


@settings(max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), weights=st.booleans(),
       run=st.sampled_from(["path", "joint", "per_task"]), divisor=st.sampled_from([2, 32]))
def test_working_set_path_matches_the_full_layout(seed, fit_intercept, weights, run, divisor):
    # A path whose points are solved on gathered working sets fits what the
    # path forced onto the full layout fits (a cap divisor above p leaves no
    # set under the cap).  Divisor 2 gathers sets of up to half of p, so
    # most points take a working set; 32 is the path's own cap.
    call = _working_set_case(seed, fit_intercept, weights, run)
    full, none, _ = _recorded_points(call, 10**9)
    points, gathered, _ = _recorded_points(call, divisor)
    # Cross-validation's folds can put more than p // 32 rows in a head's set.
    assert none == 0 and (gathered >= 1 or divisor == 32)
    _check_against_the_full_layout(points, full)


@settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fit_intercept=st.booleans(), weights=st.booleans(),
       run=st.sampled_from(["path", "joint", "per_task"]))
def test_kkt_violators_join_the_working_set(seed, fit_intercept, weights, run):
    # With a strong rule that selects nothing, a set holds only the active
    # rows (and the row of largest gradient norm), so rows enter only as
    # KKT violators, each joining after a solve that left it out: a point
    # is solved again, and the path still fits the full layout's points.
    call = _working_set_case(seed, fit_intercept, weights, run)
    full, _, _ = _recorded_points(call, 10**9)
    points, _, solves = _recorded_points(call, 2, lambda norms, lam, previous:
                                         np.zeros(norms.shape[1], dtype=bool))
    assert solves > len(points)  # some point was solved again
    _check_against_the_full_layout(points, full)


def test_a_re_solved_point_continues_its_trace():
    # A point solved again reports one trace, the first solve's and then
    # the re-solve's, and its final L and converged flag are the re-solve's.
    problem = simulate(SimulationSpec(t_classification=2, t_regression=2, p=96, n_per_task=40,
                                      sparsity=0.9, seed=4)).train
    sequence = lambda_sequence(lam_max(problem), 0.2, 6)
    solves = []
    proximal_loop = regpath._proximal_loop

    def recording(*args):
        fits = proximal_loop(*args)
        solves.append(fits)
        return fits

    with mock.patch.object(regpath, "_proximal_loop", recording), \
            mock.patch.object(regpath, "_GATHER_DIVISOR", 2), \
            mock.patch.object(regpath, "_strong_rows",
                              lambda norms, lam, previous: np.zeros(norms.shape[1], dtype=bool)):
        path = reg_path(problem, sequence)
    assert len(solves) > len(path.fits)
    at = 0
    for fit in path.fits:
        trace, parts = [], 0
        while len(trace) < fit.iterations:
            trace += solves[at + parts][0][0]
            parts += 1
        assert trace == fit.objective_trace.tolist()
        assert (fit.final_L, fit.converged) == (solves[at + parts - 1][1][0],
                                                solves[at + parts - 1][2][0])
        at += parts
    assert at == len(solves)


def test_a_gathered_copy_is_at_most_a_32nd_of_x_and_ends_at_the_full_layout():
    # Each gathered stack is at most 1/32 of its block's full stack, and
    # once a point takes the full layout no later point gathers.
    problem = simulate(SimulationSpec(t_classification=2, t_regression=2, p=640, n_per_task=60,
                                      sparsity=0.99, seed=2)).train
    full = [block.X.nbytes for block in problem._blocks]
    solves = []  # per solve: gathered (True) or on the full layout
    feature_subset, proximal_loop = regpath._feature_subset, regpath._proximal_loop

    def gathering(blocks, rows):
        subset = feature_subset(blocks, rows)
        for block, nbytes in zip(subset, full):
            assert 32 * block.X.nbytes <= nbytes
        return subset

    def recording(blocks, *args):
        solves.append(blocks is not problem._blocks)
        return proximal_loop(blocks, *args)

    with mock.patch.object(regpath, "_feature_subset", gathering), \
            mock.patch.object(regpath, "_proximal_loop", recording):
        path = reg_path(problem, lambda_sequence(lam_max(problem), 0.01, 30))
    switch = solves.index(False)
    assert switch >= 3 and not any(solves[switch:])
    assert max(path.nonzero_rows) > problem.p // 32


def test_a_gathered_head_stays_exactly_zero():
    # At the head of its grid a fit is optimal at zero, with its largest
    # gradient norm equal to its penalty.  A gathered product can round
    # that norm above it, so a fit that is zero with every norm at most its
    # penalty is solved with its rows held at zero: reg_path's head and
    # cross-validation's full-data fit at lam_max are exactly zero on a
    # gathered working set too.
    rng = np.random.default_rng(11)
    with mock.patch.object(regpath, "_GATHER_DIVISOR", 2):
        for kind in ("classification", "regression"):
            for _ in range(5):
                n, p = int(rng.integers(20, 41)), int(rng.integers(64, 201))
                y = random_labels(rng, n) if kind == "classification" else rng.standard_normal(n)
                y[:2] = [1.0, -1.0]
                problem = MtlProblem((TaskDataset(rng.standard_normal((n, p)), y, kind, "t"),))
                for fit_intercept in (False, True):
                    opts = path_options(fit_intercept)
                    top = lam_max(problem, fit_intercept)
                    head = reg_path(problem, lambda_sequence(top, 0.1, 3), opts=opts).fits[0]
                    assert not head.coef.W.any()
                    for k in (3, 5):
                        seed = int(rng.integers(100))
                        fit = cross_validate(problem, k=k, seed=seed, opts=opts, n_lambda=1).fit
                        assert not fit.coef.W.any()
