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

The loop fits a batch of B members in lockstep, each with its own lam,
L, momentum, restart and stopping test; a stopped member is frozen.
Each turn evaluates F or its gradient once for all members, one
X_i @ (p x B) product per task, on the problem's rows or on per-member
row weights (a ``core._layout`` with rows: cross-validation's k folds
and the full-data fit).  ``fista_fit`` and ``ista_fit`` are the batch of
one.
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
    _batch_gradient,
    _batch_objective,
    _member_dots,
    _members,
    _row_norms,
)

__all__ = ["SolverError", "FitResult", "prox_l21", "line_search", "fista_fit", "ista_fit"]

MAX_DOUBLINGS = 60
# Squared step size below which the proximal step is accepted as numerically
# null (the backtracking test is noise-dominated there).
_NULL_STEP_SQ = 1e-20
_TINY = np.nextafter(0.0, 1.0)


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
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    return _prox_batch(np.asarray(V, dtype=float).T[None], np.array([tau]))[0][0].T


def _prox_batch(V, tau):
    """prox_l21 of each member of a batch V (B, t, p), at tau[m] for member
    m.  Also returns the result's row norms (B, p), max(||v|| - tau, 0) as
    the shrink factor times ||v||, so a penalty needs no second pass."""
    tau = tau[:, None, None]
    norms = _row_norms(V)[:, None]
    # The floor keeps a zero row at zero at tau = 0 too (0 / floor = 0).
    scale = 1.0 - tau / np.maximum(norms, np.maximum(tau, _TINY))
    return scale * V, (scale * norms)[:, 0]


def _backtrack(blocks, lam, alpha, beta, Ws, bs, f_s, L, pending):
    """Grow each pending member's L by doubling until sufficient decrease
    holds at its prox candidate; the others keep L.

    f_s (F at the search point (Ws, bs)), L and pending are lists.
    Returns (L, W_cand, b_cand, F at the candidate, the candidate's
    row-norm sum), the last two as lists, all from the last trial: a
    member that passed earlier kept its L, so every later trial
    recomputed its candidate bit for bit.
    """
    gW, gb = _batch_gradient(blocks, Ws, bs, alpha, beta)
    for _ in range(MAX_DOUBLINGS + 1):
        L_arr = np.array(L)
        Wy, norms = _prox_batch(Ws - gW / L_arr[:, None, None], lam / L_arr)
        dW = Wy - Ws
        linear = _member_dots(gW, dW)
        step_sq = _member_dots(dW, dW)
        by = None
        if bs is not None:
            by = bs - gb / L_arr[:, None]
            db = by - bs
            linear += _member_dots(gb, db)
            step_sq += _member_dots(db, db)
        f_y = _batch_objective(blocks, Wy, by, alpha, beta)
        pending = [
            pend and not (sq <= _NULL_STEP_SQ or fy <= fs + lin + 0.5 * Lm * sq)
            for pend, fy, fs, lin, sq, Lm in zip(
                pending, f_y.tolist(), f_s, linear.tolist(), step_sq.tolist(), L
            )
        ]
        if not any(pending):
            # Only pending members double L, and a member's arithmetic reads
            # only its own slice, so this trial repeats each earlier acceptance.
            return L, Wy, by, f_y.tolist(), norms.sum(axis=1).tolist()
        L = [2.0 * Lm if pend else Lm for Lm, pend in zip(L, pending)]
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
    Ws, bs = _members(search_point.W, search_point.intercepts)
    f_s = _batch_objective(problem._blocks, Ws, bs, hyper.alpha, hyper.beta)
    if not np.isfinite(f_s[0]):
        raise SolverError("objective is non-finite at the search point")
    L, Wc, bc, _, _ = _backtrack(
        problem._blocks, np.array([hyper.lam]), hyper.alpha, hyper.beta, Ws, bs, [f_s[0]],
        [float(L_prev)], [True],
    )
    return L[0], CoefficientMatrix(Wc[0].T.copy(), None if bc is None else bc[0])


def _resolve_init(problem, opts, w_init):
    """The start of a single fit as a batch of one."""
    p, t = problem.p, problem.t
    w_init = w_init or CoefficientMatrix.zeros(p, t, opts.fit_intercept)
    if w_init.W.shape != (p, t):
        raise ValueError(f"w_init shape {w_init.W.shape} does not match problem ({p}, {t})")
    b0 = w_init.intercepts
    if b0 is not None and not opts.fit_intercept:
        raise ValueError("w_init carries intercepts but fit_intercept is off")
    if opts.fit_intercept:
        b0 = np.zeros((1, t)) if b0 is None else b0[None].copy()
    return w_init.W.T.copy()[None], b0


def _proximal_loop(blocks, lam, alpha, beta, opts, W, b, accelerated):
    """Fit B members from the batch (W, b) of shapes (B, t, p) and (B, t)
    (or None), member m at penalty lam[m], on a core._layout of B members
    (problem._blocks for one).  Returns the fitted batch and one FitResult
    per member.  Per-member scalars are Python floats; arrays hold all
    members."""
    B = W.shape[0]
    lam = np.asarray(lam, dtype=float)
    lam_m = lam.tolist()
    W_prev, b_prev = W, b
    f = _batch_objective(blocks, W, b, alpha, beta)
    obj_prev = (f + lam * _row_norms(W).sum(axis=1)).tolist()
    if not all(map(math.isfinite, obj_prev)):
        raise SolverError("objective is non-finite at the initial point")

    f = f.tolist()
    L = [opts.L0] * B
    t_prev = [1.0] * B
    t_cur = [1.0] * B
    traces = [[] for _ in range(B)]
    converged = [False] * B
    active = [True] * B

    while any(active):
        mom = [(tp - 1.0) / tc if on else 0.0 for tp, tc, on in zip(t_prev, t_cur, active)]
        if any(mom):
            m = np.array(mom)
            Ws = W - W_prev
            Ws *= m[:, None, None]
            Ws += W
            bs = b + m[:, None] * (b - b_prev) if b is not None else None
            f_m = _batch_objective(blocks, Ws, bs, alpha, beta).tolist()
            f_s = [fm if mo != 0.0 else fi for fm, mo, fi in zip(f_m, mom, f)]
        else:
            Ws, bs, f_s = W, b, f
        pending = [on and math.isfinite(fs) for on, fs in zip(active, f_s)]
        if any(pending):
            L, Wc, bc, f_c, penalty = _backtrack(
                blocks, lam, alpha, beta, Ws, bs, f_s, L, pending
            )
        step = [False] * B
        for i in range(B):
            if not active[i]:
                continue
            obj = f_c[i] + lam_m[i] * penalty[i] if pending[i] else math.inf
            if obj > obj_prev[i]:
                # Momentum overshoot restarts (the step is retaken from the
                # iterate, where sufficient decrease cannot increase the
                # objective); without momentum only floating-point noise
                # lands here, and the member keeps its iterate.
                if mom[i] != 0.0:
                    t_prev[i] = t_cur[i] = 1.0
                else:
                    converged[i], active[i] = True, False
                continue
            if not math.isfinite(obj):
                raise SolverError(
                    f"objective became non-finite at iteration {len(traces[i]) + 1}"
                )
            step[i] = True
            traces[i].append(obj)
            if abs(obj - obj_prev[i]) <= opts.tol * max(1.0, abs(obj_prev[i])):
                converged[i] = True
            active[i] = not converged[i] and len(traces[i]) < opts.max_iter
            obj_prev[i] = obj
            if accelerated:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_cur[i] * t_cur[i]))
                t_prev[i], t_cur[i] = t_cur[i], t_next

        if any(step):
            # The stepping members move on; the others keep their iterate.
            # (Their W_prev goes unused: one that stays active restarted.)
            W_prev, W, b_prev, b = W, Wc, b, bc
            f = [fc if moved else fi for fc, moved, fi in zip(f_c, step, f)]
            if not all(step):
                kept = np.logical_not(step)
                np.copyto(W, W_prev, where=kept[:, None, None])
                if b is not None:
                    np.copyto(b, b_prev, where=kept[:, None])

    fits = [
        FitResult(
            coef=CoefficientMatrix(W[m].T.copy(), None if b is None else b[m]),
            objective_trace=np.array(traces[m], dtype=float),
            final_L=L[m],
            iterations=len(traces[m]),
            converged=converged[m],
        )
        for m in range(B)
    ]
    return W, b, fits


def _single_fit(problem, hyper, opts, w_init, accelerated) -> FitResult:
    W, b = _resolve_init(problem, opts, w_init)
    lam, alpha, beta = [hyper.lam], hyper.alpha, hyper.beta
    _, _, fits = _proximal_loop(problem._blocks, lam, alpha, beta, opts, W, b, accelerated)
    return fits[0]


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
    return _single_fit(problem, hyper, opts or SolverOptions(), w_init, accelerated=True)


def ista_fit(
    problem: MtlProblem,
    hyper: Hyperparameters,
    opts: Optional[SolverOptions] = None,
    w_init: Optional[CoefficientMatrix] = None,
) -> FitResult:
    """Plain proximal gradient: fista_fit's loop at zero momentum; monotone
    trace, same fixed points."""
    return _single_fit(problem, hyper, opts or SolverOptions(), w_init, accelerated=False)
