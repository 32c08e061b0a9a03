"""Per-call timings of the core and solver kernels on a workload's own shapes.

Each kernel is called through its public function on a (problem,
coefficients, penalty, curvature) tuple taken from the workload's own
fits.  The byte count and bandwidth are computed from array sizes, not
measured: the gradient is charged two passes over every task's X (one
for the scores X w, one for X^T r) and nothing for caches.
"""

from __future__ import annotations

import statistics
import time

from mixedmtl import (
    Hyperparameters,
    line_search,
    prox_l21,
    smooth_gradient,
    smooth_objective,
)

BATCHES = 7
MIN_BATCH_S = 0.02


def per_call_seconds(fn) -> float:
    """Median per-call time over BATCHES batches of at least MIN_BATCH_S each."""
    fn()
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= MIN_BATCH_S:
            break
        calls *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def kernel_metrics(shapes) -> dict:
    """Sum over shapes of one call's time per kernel, plus computed bytes.

    shapes: iterable of (problem, coef, lam, L).  Summing keeps the
    numbers comparable when a workload fits several shapes (the protocol
    fits t=20 joint problems and t=1 single-task problems).
    """
    objective = gradient = prox = step = 0.0
    x_bytes = 0
    for problem, coef, lam, L in shapes:
        hyper = Hyperparameters(lam)
        grad, _ = smooth_gradient(problem, coef)
        V = coef.W - grad / L
        objective += per_call_seconds(lambda: smooth_objective(problem, coef))
        gradient += per_call_seconds(lambda: smooth_gradient(problem, coef))
        prox += per_call_seconds(lambda: prox_l21(V, lam / L))
        step += per_call_seconds(lambda: line_search(problem, hyper, coef, L))
        x_bytes += sum(task.X.nbytes for task in problem.tasks)
    return {
        "core.smooth_objective_us": objective * 1e6,
        "core.smooth_gradient_us": gradient * 1e6,
        "core.x_bytes": x_bytes,
        "core.gradient_gbps_computed": 2 * x_bytes / gradient / 1e9,
        "solver.prox_l21_us": prox * 1e6,
        "solver.line_search_us": step * 1e6,
    }
