"""Shared test helpers."""

import numpy as np

from mixedmtl import MtlProblem, TaskDataset, core


def random_labels(rng, n):
    y = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return y


def random_mixed_problem(rng, p=None, t=None, c=None, n_lo=3, n_hi=30):
    """Small random problem with c classification tasks followed by regression tasks."""
    p = int(p if p is not None else rng.integers(2, 21))
    t = int(t if t is not None else rng.integers(1, 7))
    c = int(c if c is not None else rng.integers(0, t + 1))
    tasks = []
    for i in range(t):
        n = int(rng.integers(n_lo, n_hi + 1))
        X = rng.standard_normal((n, p))
        if i < c:
            tasks.append(TaskDataset(X, random_labels(rng, n), "classification", f"c{i}"))
        else:
            tasks.append(TaskDataset(X, rng.standard_normal(n), "regression", f"r{i}"))
    return MtlProblem(tuple(tasks))


def pool_workers(monkeypatch, cpus):
    """Let core._map_cells see `cpus` usable CPUs; returns the worker counts of the pools it makes."""
    from concurrent import futures

    made = []

    class RecordedPool(futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            made.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordedPool)
    return made
