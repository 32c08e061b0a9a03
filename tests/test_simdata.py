import numpy as np
import numpy.testing as npt
import pytest

from mixedmtl import (
    CoefficientMatrix,
    DataError,
    MtlProblem,
    SimulationSpec,
    TaskDataset,
    TaskKind,
    binarize_problem,
    recovery_accuracy,
    run_benchmark,
    simulate,
)


# ---------------------------------------------------------------------------
# generator


def test_default_spec_matches_protocol():
    spec = SimulationSpec(seed=1)
    assert (spec.t_classification, spec.t_regression) == (10, 10)
    assert (spec.p, spec.n_per_task) == (200, 100)
    assert (spec.sparsity, spec.noise_scale) == (0.9, 0.5)
    sim = simulate(spec)
    assert sim.train.t == 20 and sim.train.c == 10
    for task in sim.train.tasks:
        assert task.X.shape == (100, 200)
    assert np.count_nonzero(np.linalg.norm(sim.true_W, axis=1)) == 20
    npt.assert_array_equal(sim.true_support, np.arange(20))
    # rows outside the support are exactly zero
    npt.assert_array_equal(sim.true_W[20:], np.zeros((180, 20)))


def test_test_problem_mirrors_train():
    sim = simulate(SimulationSpec(t_classification=3, t_regression=2, p=15,
                                  n_per_task=12, sparsity=0.8, seed=2))
    assert sim.test.t == sim.train.t and sim.test.p == sim.train.p
    for a, b in zip(sim.train.tasks, sim.test.tasks):
        assert a.name == b.name and a.kind == b.kind
        assert (a.X != b.X).any()


def test_sparsity_is_exact():
    for sparsity, p, expect in ((0.9, 200, 20), (0.5, 11, 6), (0.75, 40, 10)):
        spec = SimulationSpec(p=p, sparsity=sparsity, n_per_task=5, seed=0)
        assert spec.support_size == expect
        sim = simulate(spec)
        assert np.count_nonzero(np.linalg.norm(sim.true_W, axis=1)) == expect


def test_noiseless_outcomes_are_exact():
    spec = SimulationSpec(t_classification=2, t_regression=2, p=10, n_per_task=8,
                          sparsity=0.5, noise_scale=0.0, seed=3)
    sim = simulate(spec)
    for i, task in enumerate(sim.train.tasks):
        scores = task.X @ sim.true_W[:, i]
        if task.kind is TaskKind.REGRESSION:
            npt.assert_array_equal(task.y, scores)
        else:
            npt.assert_array_equal(task.y, np.where(scores >= 0.0, 1.0, -1.0))


def test_simulation_determinism_and_seed_sensitivity():
    spec = SimulationSpec(t_classification=1, t_regression=1, p=12, n_per_task=9,
                          sparsity=0.5, seed=11)
    a, b = simulate(spec), simulate(spec)
    npt.assert_array_equal(a.true_W, b.true_W)
    for ta, tb in zip(a.train.tasks + a.test.tasks, b.train.tasks + b.test.tasks):
        npt.assert_array_equal(ta.X, tb.X)
        npt.assert_array_equal(ta.y, tb.y)
    c = simulate(SimulationSpec(t_classification=1, t_regression=1, p=12, n_per_task=9,
                                sparsity=0.5, seed=12))
    assert (a.train.tasks[0].X != c.train.tasks[0].X).any()
    assert a.train.tasks[0].X.shape == c.train.tasks[0].X.shape


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(sparsity=0.0)
    with pytest.raises(ValueError):
        SimulationSpec(noise_scale=-0.5)
    with pytest.raises(ValueError):
        SimulationSpec(t_classification=0, t_regression=0)


# ---------------------------------------------------------------------------
# binarization


def test_binarize_median_split():
    task = TaskDataset(np.eye(4), [1.0, 2.0, 3.0, 4.0], "regression", "r")
    out = binarize_problem(MtlProblem((task,)))
    npt.assert_array_equal(out.tasks[0].y, [-1.0, -1.0, 1.0, 1.0])
    assert out.tasks[0].kind is TaskKind.CLASSIFICATION


def test_binarize_keeps_classification_tasks():
    clf = TaskDataset(np.eye(3), [1.0, -1.0, 1.0], "classification", "c")
    out = binarize_problem(MtlProblem((clf,)))
    npt.assert_array_equal(out.tasks[0].y, clf.y)
    npt.assert_array_equal(out.tasks[0].X, clf.X)


def test_binarize_constant_outcome_raises():
    task = TaskDataset(np.eye(4), [5.0, 5.0, 5.0, 5.0], "regression", "const")
    with pytest.raises(DataError, match="const"):
        binarize_problem(MtlProblem((task,)))


def test_binarize_output_is_valid_classification_problem():
    rng = np.random.default_rng(4)
    tasks = (
        TaskDataset(rng.standard_normal((9, 3)), np.where(rng.standard_normal(9) > 0, 1.0, -1.0),
                    "classification", "c"),
        TaskDataset(rng.standard_normal((8, 3)), rng.standard_normal(8), "regression", "r"),
    )
    out = binarize_problem(MtlProblem(tasks))
    assert out.c == out.t == 2
    for task in out.tasks:
        assert set(np.unique(task.y)) <= {-1.0, 1.0}


# ---------------------------------------------------------------------------
# support recovery


def test_recovery_exact_support():
    W = np.zeros((10, 2))
    W[[1, 4, 7]] = 3.0
    assert recovery_accuracy(W, [1, 4, 7]) == 1.0


def test_recovery_disjoint_support():
    W = np.zeros((10, 2))
    W[[0, 2]] = 1.0
    assert recovery_accuracy(W, [5, 6]) == 0.0


def test_recovery_partial_overlap():
    W = np.zeros((10, 1))
    W[[0, 1, 2, 3]] = np.array([[4.0], [3.0], [2.0], [1.0]])
    assert recovery_accuracy(W, [0, 1, 8, 9]) == 0.5


def test_recovery_scale_invariant():
    rng = np.random.default_rng(5)
    W = rng.standard_normal((20, 3))
    support = [0, 3, 9, 12]
    base = recovery_accuracy(W, support)
    assert recovery_accuracy(17.5 * W, support) == base
    assert recovery_accuracy(CoefficientMatrix(W), support) == base


def test_recovery_zero_estimate_scores_zero():
    # All rows tie at norm zero; index order must not hand the estimate the
    # head-of-matrix support for free.
    assert recovery_accuracy(np.zeros((10, 2)), [0, 1, 2]) == 0.0


def test_recovery_errors():
    with pytest.raises(ValueError):
        recovery_accuracy(np.ones((3, 1)), [])
    with pytest.raises(ValueError):
        recovery_accuracy(np.ones((3, 1)), [5])


# ---------------------------------------------------------------------------
# benchmark harness


def _tiny_spec():
    return SimulationSpec(t_classification=1, t_regression=1, p=20, n_per_task=16,
                          sparsity=0.8, noise_scale=0.5, seed=0)


def test_benchmark_table_shape():
    rows = run_benchmark(
        _tiny_spec(), methods=("mtlcomb", "mtlbin"), ratios=(0.8,), seeds=(1, 2),
        k=2, n_lambda=5,
    )
    assert [(r.method, r.ratio, r.seed_count) for r in rows] == [
        ("mtlcomb", 0.8, 2), ("mtlbin", 0.8, 2),
    ]
    for row in rows:
        assert 0.0 <= row.mean_recovery <= 1.0
        assert 0.0 <= row.mean_pseudo_ev_classification <= 1.0


def test_benchmark_singletask_runs():
    rows = run_benchmark(
        _tiny_spec(), methods=("singletask",), ratios=(0.8,), seeds=(1,), k=2, n_lambda=5,
    )
    assert rows[0].method == "singletask"
    assert np.isfinite(rows[0].mean_ev_regression)


def test_benchmark_noiseless_overdetermined_recovery():
    # Frozen fixture: noiseless and overdetermined per support, the joint fit
    # recovers the support exactly on this instance.
    spec = SimulationSpec(t_classification=3, t_regression=3, p=30, n_per_task=24,
                          sparsity=0.8, noise_scale=0.0, seed=0)
    rows = run_benchmark(spec, methods=("mtlcomb",), ratios=(0.8,), seeds=(1,), k=2, n_lambda=20)
    assert rows[0].mean_recovery == 1.0


def test_benchmark_validates_inputs():
    with pytest.raises(ValueError):
        run_benchmark(_tiny_spec(), methods=("nope",), ratios=(0.5,), seeds=(1,))
    with pytest.raises(ValueError):
        run_benchmark(_tiny_spec(), methods=("mtlcomb",), ratios=(1.5,), seeds=(1,))
    with pytest.raises(ValueError):
        run_benchmark(_tiny_spec(), methods=("mtlcomb",), ratios=(0.5,), seeds=())
    # Each cell has round(ratio * p) samples per task: 0 and 2 are too few for 5 folds.
    for ratio in (0.01, 0.1):
        with pytest.raises(ValueError, match=r"ratios must give round\(ratio \* p\) >= k=5"):
            run_benchmark(_tiny_spec(), methods=("mtlcomb",), ratios=(0.8, ratio), seeds=(1,), k=5)
