"""Accelerated proximal gradient solver with row-wise group soft thresholding.

Minimizes F(W) + lam * ||W||_{2,1} where F is the smooth mixed-task
objective from :mod:`mixedmtl.core`.  Each iteration takes a proximal
step from a search point S, the Nesterov point W + mom * (W - W_prev)
when the momentum mom is nonzero and the iterate W otherwise; the local
curvature estimate L is grown by doubling until the sufficient-decrease
condition

    F(cand) <= F(S) + <grad F(S), cand - S> + (L/2) ||cand - S||_F^2

holds, and carries over between iterations without decay.  The loop
carries F at its iterate, so a step from the iterate evaluates F only
at candidates.  A momentum step that would increase the full objective,
or a momentum point where F is non-finite, restarts the momentum (the
step is retaken from the iterate), which keeps the objective trace
non-increasing.  ``ista_fit`` is the same loop at zero momentum; it
serves as a slow-but-simple cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CoefficientMatrix,
    Hyperparameters,
    MtlProblem,
    SolverOptions,
    _smooth_gradient_raw,
    _smooth_objective_raw,
    l21_norm,
)

__all__ = ["SolverError", "FitResult", "prox_l21", "line_search", "fista_fit", "ista_fit"]

MAX_DOUBLINGS = 60
# Squared step size below which the proximal step is accepted as numerically
# null (the backtracking test is noise-dominated there).
_NULL_STEP_SQ = 1e-20


class SolverError(RuntimeError):
    """Numerical failure inside the solver."""


@dataclass(frozen=True)
class FitResult:
    """Solver output: fitted coefficients plus convergence diagnostics.

    objective_trace holds the full objective after each accepted iteration;
    converged means the relative objective change dropped below tol before
    max_iter.
    """

    coef: CoefficientMatrix
    objective_trace: np.ndarray
    final_L: float
    iterations: int
    converged: bool


def prox_l21(V: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise group soft thresholding.

    Solves min_Y 0.5 ||Y - V||_F^2 + tau * ||Y||_{2,1} row by row: each row
    is shrunk by factor (1 - tau / max(||v||, tau)), so rows with norm at
    most tau come out exactly zero.
    """
    V = np.asarray(V, dtype=float)
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return V.copy()
    norms = np.linalg.norm(V, axis=1)
    scale = 1.0 - tau / np.maximum(norms, tau)
    return scale[:, None] * V


def _backtrack(problem, hyper, Ws, bs, f_s, L_prev):
    """Grow L by doubling until sufficient decrease holds at the prox candidate.

    f_s is the smooth objective at the search point (Ws, bs), finite.
    Returns (L, W_cand, b_cand, smooth_value_at_candidate).
    """
    gW, gb = _smooth_gradient_raw(problem, Ws, bs, hyper.alpha, hyper.beta)
    L = float(L_prev)
    for _ in range(MAX_DOUBLINGS + 1):
        Wc = prox_l21(Ws - gW / L, hyper.lam / L)
        dW = Wc - Ws
        linear = float(np.vdot(gW, dW))
        step_sq = float(np.vdot(dW, dW))
        if bs is not None:
            bc = bs - gb / L
            db = bc - bs
            linear += float(np.dot(gb, db))
            step_sq += float(np.dot(db, db))
        else:
            bc = None
        f_c = _smooth_objective_raw(problem, Wc, bc, hyper.alpha, hyper.beta)
        if step_sq <= _NULL_STEP_SQ or f_c <= f_s + linear + 0.5 * L * step_sq:
            return L, Wc, bc, f_c
        L *= 2.0
    raise SolverError(
        f"line search did not reach sufficient decrease within {MAX_DOUBLINGS} "
        "doublings; the data or the gradient is ill-conditioned"
    )


def line_search(
    problem: MtlProblem,
    hyper: Hyperparameters,
    search_point: CoefficientMatrix,
    L_prev: float,
):
    """One backtracking proximal step from search_point.

    Returns (L, candidate) where candidate = prox(S - grad F(S)/L, lam/L)
    and L = L_prev * 2^k for the smallest k >= 0 passing the
    sufficient-decrease test.
    """
    if not L_prev > 0.0:
        raise ValueError("L_prev must be positive")
    Ws, bs = search_point.W, search_point.intercepts
    f_s = _smooth_objective_raw(problem, Ws, bs, hyper.alpha, hyper.beta)
    if not np.isfinite(f_s):
        raise SolverError("objective is non-finite at the search point")
    L, Wc, bc, _ = _backtrack(problem, hyper, Ws, bs, f_s, L_prev)
    return L, CoefficientMatrix(Wc, bc)


def _resolve_init(problem, opts, w_init):
    p, t = problem.p, problem.t
    if w_init is None:
        W0 = np.zeros((p, t))
        b0 = np.zeros(t) if opts.fit_intercept else None
        return W0, b0
    if w_init.W.shape != (p, t):
        raise ValueError(f"w_init shape {w_init.W.shape} does not match problem ({p}, {t})")
    W0 = w_init.W.copy()
    if opts.fit_intercept:
        b0 = w_init.intercepts.copy() if w_init.intercepts is not None else np.zeros(t)
    else:
        if w_init.intercepts is not None:
            raise ValueError("w_init carries intercepts but fit_intercept is off")
        b0 = None
    return W0, b0


def _proximal_loop(problem, hyper, opts, w_init, accelerated):
    W, b = _resolve_init(problem, opts, w_init)
    W_prev, b_prev = W, b
    f = _smooth_objective_raw(problem, W, b, hyper.alpha, hyper.beta)
    obj_prev = f + hyper.lam * l21_norm(W)
    if not np.isfinite(obj_prev):
        raise SolverError("objective is non-finite at the initial point")

    L = opts.L0
    t_prev = t_cur = 1.0
    trace = []
    converged = False

    while len(trace) < opts.max_iter:
        mom = (t_prev - 1.0) / t_cur
        if mom != 0.0:
            Ws = W + mom * (W - W_prev)
            bs = b + mom * (b - b_prev) if b is not None else None
            f_s = _smooth_objective_raw(problem, Ws, bs, hyper.alpha, hyper.beta)
        else:
            Ws, bs, f_s = W, b, f
        obj = math.inf
        if np.isfinite(f_s):
            L, Wc, bc, f_c = _backtrack(problem, hyper, Ws, bs, f_s, L)
            obj = f_c + hyper.lam * l21_norm(Wc)
        if obj > obj_prev and mom != 0.0:
            # Momentum overshoot: restart, so the step is retaken from the
            # iterate.  A sufficient-decrease step from the iterate cannot
            # increase the objective, so monotonicity is preserved.
            t_prev = t_cur = 1.0
            continue
        if obj > obj_prev:
            # Only floating-point noise can land here; keep the iterate.
            converged = True
            break
        if not np.isfinite(obj):
            raise SolverError(f"objective became non-finite at iteration {len(trace) + 1}")

        W_prev, b_prev = W, b
        W, b, f = Wc, bc, f_c
        trace.append(obj)

        if abs(obj - obj_prev) <= opts.tol * max(1.0, abs(obj_prev)):
            converged = True
            break
        obj_prev = obj
        if accelerated:
            t_prev, t_cur = t_cur, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_cur * t_cur))

    return FitResult(
        coef=CoefficientMatrix(W, b),
        objective_trace=np.array(trace, dtype=float),
        final_L=L,
        iterations=len(trace),
        converged=converged,
    )


def fista_fit(
    problem: MtlProblem,
    hyper: Hyperparameters,
    opts: Optional[SolverOptions] = None,
    w_init: Optional[CoefficientMatrix] = None,
) -> FitResult:
    """Fit the coefficient matrix by accelerated proximal gradient descent.

    w_init defaults to all zeros (with zero intercepts when enabled).
    Deterministic: identical inputs give bit-identical results.
    """
    opts = opts or SolverOptions()
    return _proximal_loop(problem, hyper, opts, w_init, accelerated=True)


def ista_fit(
    problem: MtlProblem,
    hyper: Hyperparameters,
    opts: Optional[SolverOptions] = None,
    w_init: Optional[CoefficientMatrix] = None,
) -> FitResult:
    """Plain proximal gradient: fista_fit's loop at zero momentum; monotone
    trace, same fixed points."""
    opts = opts or SolverOptions()
    return _proximal_loop(problem, hyper, opts, w_init, accelerated=False)
