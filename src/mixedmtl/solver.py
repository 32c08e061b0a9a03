"""Accelerated proximal gradient solver with row-wise group soft thresholding.

Minimizes F(W) + lam * ||W||_{2,1} where F is the smooth mixed-task
objective from :mod:`mixedmtl.core`.  Each iteration takes a proximal
step from a search point S, the Nesterov point W + mom * (W - W_prev)
when the momentum mom is nonzero and the iterate W otherwise; the local
curvature estimate L is grown by doubling until the sufficient-decrease
condition

    F(cand) <= F(S) + <grad F(S), cand - S> + (L/2) ||cand - S||_F^2

holds, and carries over between iterations.  After eight turns in a row
whose step passed at its first trial, a fit halves its L before the next
step, so L stays L0 * 2**k and g / L and lam / L scale exactly.  The loop
carries F at its iterate, so a step from the iterate evaluates F only
at candidates.  A momentum step that would increase the full objective,
or a momentum point where F is non-finite, restarts the momentum (the
step is retaken from the iterate), which keeps the objective trace
non-increasing.  ``ista_fit`` is the same loop at zero momentum; it
serves as a slow-but-simple cross-check.

The loop fits a batch of fits in lockstep, each with its own lam, L,
momentum, restart and stopping test; a stopped fit is frozen.  The fits
belong to B members, each on the problem's rows or on its own row
weights (a ``core._layout`` with rows: cross-validation's k folds and
the full-data fit), and a fit owns either all t columns of its member
(the joint fit) or one of them (a single-task fit, B * t fits).  Each
turn evaluates F or its gradient once for all fits, one batched product
per block of the layout (a run of tasks of one kind and sample count).
With single-task fits, tasks whose fits have all stopped leave the
batch: on the turns where a task finishes, each block is cut to its
tasks still running (views when they form one span, else a gather).
``fista_fit`` and ``ista_fit`` are the batch of one.  The loop fits the
caller's arrays in place (a task cut from the batch is written back at
once, the rest at the end) and returns only per-fit lists; a FitResult
is built from the arrays only for a fit that is read.

A turn allocates no array the size of the batch: the loop steps in a
_Workspace (the momentum point, the gradient, one array for S - g / L
and then the step, the prox's row norms and shrink factors, and a spare
candidate), made once per path or single fit, and a narrowed batch uses
views of its first entries.  The spare rotates with the iterates:
candidate -> iterate -> previous iterate -> next candidate.  The
iterates are the loop's own copies, so the caller's arrays are the
output and never scratch.
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
    _task_subset,
)

__all__ = ["SolverError", "FitResult", "prox_l21", "line_search", "fista_fit", "ista_fit"]

MAX_DOUBLINGS = 60
# A fit whose step passed at its first trial this many turns in a row
# tries half its L on the next turn.
_EASY_TURNS = 8
# Squared step size below which the proximal step is accepted as numerically
# null (the backtracking test is noise-dominated there).
_NULL_STEP_SQ = 1e-20
_TINY = np.nextafter(0.0, 1.0)


class SolverError(RuntimeError):
    """Numerical failure inside the solver; fit is the position of the
    failing fit in its batch."""

    def __init__(self, message, fit=0):
        super().__init__(message)
        self.fit = fit


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


def _fit_result(W, b, fits, i) -> FitResult:
    """Fit i of a fitted batch (W, b), with _proximal_loop's per-fit lists
    fits, as a FitResult."""
    traces, L, converged = fits
    return FitResult(
        coef=CoefficientMatrix(W[i].T.copy(), None if b is None else b[i]),
        objective_trace=np.array(traces[i], dtype=float),
        final_L=L[i],
        iterations=len(traces[i]),
        converged=converged[i],
    )


def prox_l21(V: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise group soft thresholding.

    Solves min_Y 0.5 ||Y - V||_F^2 + tau * ||Y||_{2,1} row by row: each row
    is shrunk by factor (1 - tau / max(||v||, tau)), so rows with norm at
    most tau come out exactly zero.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    return _prox_batch(np.asarray(V, dtype=float).T[None], np.array([tau]))[0][0].T


def _prox_batch(V, tau, out=None, norms=None, scale=None):
    """prox_l21 of each fit of a batch V (fits, t_fit, p), at tau[m] for fit
    m.  Also returns the result's row norms (fits, p), max(||v|| - tau, 0)
    as the shrink factor times ||v||, so a penalty needs no second pass.
    The result, its row norms and the shrink factors (fits, 1, p) are
    written into out, norms and scale when given (out holds the squares
    of V on the way when t_fit > 1); V is left as it is."""
    tau = tau[:, None, None]
    norms = _row_norms(V, norms, out)[:, None]
    # The floor keeps a zero row at zero at tau = 0 too (0 / floor = 0).
    scale = np.maximum(norms, np.maximum(tau, _TINY), out=scale)
    np.divide(tau, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return np.multiply(scale, V, out=out), np.multiply(scale, norms, out=norms)[:, 0]


def _task_fits(B, tasks):
    """The positions of the fits of the tasks flagged in tasks in a batch
    of single-task fits, B members per task, member-major."""
    return (np.arange(B)[:, None] * len(tasks) + np.flatnonzero(tasks)).ravel()


@dataclass(eq=False)
class _Workspace:
    """The scratch arrays of proximal steps on a batch of fits (fits,
    t_fit, p): the momentum point, the spare candidate (the loop rotates
    it with its iterates), the gradient, the step array (first
    S - grad / L, then the step cand - S), and the prox's row norms
    (fits, p) and shrink factors (fits, 1, p)."""

    search: np.ndarray
    cand: np.ndarray
    grad: np.ndarray
    step: np.ndarray
    norms: np.ndarray
    scale: np.ndarray

    @classmethod
    def like(cls, W):
        fits, _, p = W.shape
        return cls(*(np.empty(W.shape) for _ in range(4)), np.empty((fits, p)), np.empty((fits, 1, p)))

    def head(self, fits):
        """The workspace of a batch cut to fits fits: views of the first
        fits entries of these arrays."""
        return _Workspace(**{name: array[:fits] for name, array in vars(self).items()})


def _backtrack(blocks, lam, alpha, beta, Ws, bs, f_s, L, pending, work):
    """Grow each pending fit's L by doubling until sufficient decrease
    holds at its prox candidate; the others keep L.

    f_s (F at the search point (Ws, bs)), L and pending are lists; work
    is a _Workspace whose arrays, but for search, do not overlap Ws.
    Returns (L, W_cand,
    b_cand, F at the candidate, the candidate's row-norm sum), the last
    two as lists, all from the last trial (W_cand is work.cand): a fit
    that passed earlier kept its L, so every later trial recomputed its
    candidate bit for bit.
    """
    gW, gb = _batch_gradient(blocks, Ws, bs, alpha, beta, work.grad)
    V, Wy = work.step, work.cand
    for _ in range(MAX_DOUBLINGS + 1):
        L_arr = np.array(L)
        np.divide(gW, L_arr[:, None, None], out=V)
        np.subtract(Ws, V, out=V)
        _, norms = _prox_batch(V, lam / L_arr, Wy, work.norms, work.scale)
        dW = np.subtract(Wy, Ws, out=V)
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
            # Only pending fits double L, and a fit's arithmetic reads only
            # its own slice, so this trial repeats each earlier acceptance.
            return L, Wy, by, f_y.tolist(), norms.sum(axis=1).tolist()
        L = [2.0 * Lm if pend else Lm for Lm, pend in zip(L, pending)]
    raise SolverError(
        f"line search did not reach sufficient decrease within {MAX_DOUBLINGS} "
        "doublings; the data or the gradient is ill-conditioned",
        pending.index(True),
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
        [float(L_prev)], [True], _Workspace.like(Ws),
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


def _proximal_loop(blocks, lam, alpha, beta, opts, W, b, accelerated, work=None):
    """Fit the batch of fits (W, b), shapes (fits, t_fit, p) and
    (fits, t_fit) (or None), fit m at penalty lam[m], on a core._layout of
    their B members (problem._blocks for one): B joint fits (t_fit = t) or
    B * t single-task fits (t_fit = 1, member-major).  The fits are
    written into W and b in place, and only there: the caller's arrays
    are the output, never scratch.  work is a _Workspace for W's shape
    (a new one when None; a path passes one to each of its points).
    Returns each fit's objective trace, final L and converged flag as
    three lists (_fit_result reads one fit).
    Per-fit scalars are Python floats; the working arrays hold all fits of
    the tasks still running."""
    n_fits, B = W.shape[0], blocks[0][4].shape[0]
    W_out, b_out = W, b
    lam = np.asarray(lam, dtype=float)
    lam_m = lam.tolist()
    # Copies: the rotation turns each iterate array into a later candidate.
    W, W_prev = W.copy(), W.copy()
    work = _Workspace.like(W) if work is None else work
    b_prev = b
    f = _batch_objective(blocks, W, b, alpha, beta)
    obj_prev = (f + lam * _row_norms(W, work.norms, work.step).sum(axis=1)).tolist()
    finite = list(map(math.isfinite, obj_prev))
    if not all(finite):
        raise SolverError("objective is non-finite at the initial point", finite.index(False))

    f = f.tolist()
    L = [opts.L0] * n_fits
    easy = [0] * n_fits  # turns in a row whose step passed at its first trial
    t_prev = [1.0] * n_fits
    t_cur = [1.0] * n_fits
    traces = all_traces = [[] for _ in range(n_fits)]  # narrowing keeps each fit's list
    converged = [False] * n_fits
    active = [True] * n_fits
    live = list(range(n_fits))  # the fit at each position of the batch
    final_L, final_converged = [None] * n_fits, [None] * n_fits

    def write_back(positions, W, b, L, converged):
        """Write the fits at positions of the batch (W, b) into the
        caller's arrays, and their final L and converged flags into the
        output.  The batch is passed in: a name of the loop read from here
        would be a cell variable, slower to reach in every turn."""
        ids = [live[i] for i in positions]
        W_out[ids] = W[positions]
        if b is not None:
            b_out[ids] = b[positions]
        for fit, i in zip(ids, positions):
            final_L[fit], final_converged[fit] = L[i], converged[i]

    while any(active):
        mom = [(tp - 1.0) / tc if on else 0.0 for tp, tc, on in zip(t_prev, t_cur, active)]
        if any(mom):
            m = np.array(mom)
            Ws = np.subtract(W, W_prev, out=work.search)
            Ws *= m[:, None, None]
            Ws += W
            bs = b + m[:, None] * (b - b_prev) if b is not None else None
            f_m = _batch_objective(blocks, Ws, bs, alpha, beta).tolist()
            f_s = [fm if mo != 0.0 else fi for fm, mo, fi in zip(f_m, mom, f)]
        else:
            Ws, bs, f_s = W, b, f
        pending = [on and math.isfinite(fs) for on, fs in zip(active, f_s)]
        if any(pending):
            given = [0.5 * Lm if pend and run == _EASY_TURNS else Lm
                     for Lm, run, pend in zip(L, easy, pending)]
            try:
                L, Wc, bc, f_c, penalty = _backtrack(
                    blocks, lam, alpha, beta, Ws, bs, f_s, given, pending, work
                )
            except SolverError as err:
                raise SolverError(str(err), live[err.fit]) from None
            easy = [(run % _EASY_TURNS + 1 if Lm == Lg else 0) if pend else run
                    for run, Lm, Lg, pend in zip(easy, L, given, pending)]
        step = [False] * len(live)
        stopped = False
        for i in range(len(live)):
            if not active[i]:
                continue
            obj = f_c[i] + lam_m[i] * penalty[i] if pending[i] else math.inf
            if obj > obj_prev[i]:
                # Momentum overshoot restarts (the step is retaken from the
                # iterate, where sufficient decrease cannot increase the
                # objective); without momentum only floating-point noise
                # lands here, and the fit keeps its iterate.
                if mom[i] != 0.0:
                    t_prev[i] = t_cur[i] = 1.0
                else:
                    converged[i], active[i] = True, False
                    stopped = True
                continue
            if not math.isfinite(obj):
                raise SolverError(
                    f"objective became non-finite at iteration {len(traces[i]) + 1}", live[i]
                )
            step[i] = True
            traces[i].append(obj)
            if abs(obj - obj_prev[i]) <= opts.tol * max(1.0, abs(obj_prev[i])):
                converged[i] = True
            active[i] = not converged[i] and len(traces[i]) < opts.max_iter
            stopped = stopped or not active[i]
            obj_prev[i] = obj
            if accelerated:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_cur[i] * t_cur[i]))
                t_prev[i], t_cur[i] = t_cur[i], t_next

        if any(step):
            # The stepping fits move on; the others keep their iterate.
            # (Their W_prev goes unused: one that stays active restarted.)
            W_prev, W, work.cand, b_prev, b = W, Wc, W_prev, b, bc
            f = [fc if moved else fi for fc, moved, fi in zip(f_c, step, f)]
            if not all(step):
                kept = np.logical_not(step)
                np.copyto(W, W_prev, where=kept[:, None, None])
                if b is not None:
                    np.copyto(b, b_prev, where=kept[:, None])

        if stopped and len(live) > B and any(active):
            running = np.array(active).reshape(B, -1).any(axis=0)
            if not running.all():
                # Tasks whose fits have all stopped leave the batch.
                write_back(_task_fits(B, ~running), W, b, L, converged)
                blocks, sel = _task_subset(blocks, running), _task_fits(B, running)
                lam, W, W_prev = lam[sel], W[sel], W_prev[sel]
                work = work.head(len(sel))
                if b is not None:
                    b, b_prev = b[sel], b_prev[sel]
                per_fit = (lam_m, f, L, easy, t_prev, t_cur, traces, converged, active,
                           obj_prev, live)
                lam_m, f, L, easy, t_prev, t_cur, traces, converged, active, obj_prev, live = (
                    [x[i] for i in sel] for x in per_fit
                )

    write_back(np.arange(len(live)), W, b, L, converged)
    return all_traces, final_L, final_converged


def _single_fit(problem, hyper, opts, w_init, accelerated) -> FitResult:
    W, b = _resolve_init(problem, opts, w_init)
    lam, alpha, beta = [hyper.lam], hyper.alpha, hyper.beta
    fits = _proximal_loop(problem._blocks, lam, alpha, beta, opts, W, b, accelerated)
    return _fit_result(W, b, fits, 0)


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
