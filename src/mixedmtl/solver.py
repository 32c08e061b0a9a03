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
step, so L stays L0 * 2**k and g / L and lam / L scale exactly.

Only candidates are scored afresh.  The loop carries the scores s(W)
(core._scores) of its iterate and previous iterate with them, and takes
F and its gradient from given scores (core._objective_from,
core._gradient_from).  Scores are linear in a fit, so the momentum
point's are s(W) + mom * (s(W) - s(W_prev)), formed like the point: the
objective at a momentum point takes no product with X, and a gradient
takes only its product X^T R.  Each line-search trial scores its
candidate afresh, and an accepted candidate's scores become the
iterate's, so an iterate's scores are always a fresh product and
rounding cannot drift.  The caller may hold the scores of its start, as
a path does from point to point; else the loop scores its start.  A
momentum step that would increase the full objective, or a momentum
point where F is non-finite, restarts the momentum (the step is retaken
from the iterate), which keeps the objective trace non-increasing.
``ista_fit`` is the same loop at zero momentum; it serves as a
slow-but-simple cross-check.

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
tasks still running (views when they form one span, else a gather), and
the carried scores to those tasks' entries.  ``fista_fit`` and
``ista_fit`` are the batch of one.  The loop fits the caller's array in
place, and the caller's scores with it (a task cut from the batch is
written back at once, the rest at the end), and returns only per-fit
lists; a FitResult is built from the array only for a fit that is read.
With intercepts the batch is (fits, t_fit, p + 1), each task's
intercept last (core._members): the prox and the row-norm penalty take
the first p coefficients, and the intercepts take the plain gradient
step.

A turn allocates no array the size of the batch, with intercepts or
without (an alpha or beta term makes its own): the loop steps in a
_Workspace (the momentum point, the gradient, one array for S - g / L
and then the step, the prox's row norms and shrink factors, a spare
candidate, and the scores of the iterate, the previous iterate, the
candidate and the momentum point, one flat array each), made once per
path or single fit, and a narrowed batch uses views of its first
entries.  The spare and the scores rotate with the iterates: candidate
-> iterate -> previous iterate -> next candidate.  The iterates are the
loop's own copies, so the caller's arrays are the output and never
scratch.
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
    _by_entry,
    _gradient_from,
    _member_dots,
    _members,
    _n_features,
    _n_members,
    _objective_from,
    _row_norms,
    _scores,
    _split,
    _task_sizes,
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


def _fit_result(W, p, fits, i) -> FitResult:
    """Fit i of a fitted batch W on p features, with _proximal_loop's
    per-fit lists fits, as a FitResult."""
    traces, L, converged = fits[:3]
    return FitResult(
        coef=CoefficientMatrix(*_split(W[i], p)),
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
    t_fit, p), or (fits, t_fit, p + 1) with intercepts: the momentum
    point, a spare candidate (the loop rotates it with its iterates), the
    gradient, the step array (first S - grad / L, then the step cand - S),
    all shaped like the batch, the prox's row norms (fits, p) and shrink
    factors (fits, 1, p), and scores (4, B, entries): the scores
    (core._scores) of the iterate, the previous iterate, the candidate and
    the momentum point."""

    search: np.ndarray
    cand: np.ndarray
    grad: np.ndarray
    step: np.ndarray
    norms: np.ndarray
    scale: np.ndarray
    scores: np.ndarray

    @classmethod
    def like(cls, W, blocks):
        fits, p, B = W.shape[0], _n_features(blocks), _n_members(blocks)
        return cls(*(np.empty(W.shape) for _ in range(4)), np.empty((fits, p)),
                   np.empty((fits, 1, p)), np.empty((4, B, _task_sizes(blocks).sum())))

    def head(self, fits, entries):
        """The workspace of a batch cut to fits fits with entries scores per
        member: views of the first entries of these arrays."""
        arrays = {name: array[:fits] for name, array in vars(self).items()}
        return _Workspace(**arrays | {"scores": self.scores[..., :entries]})


def _backtrack(blocks, lam, alpha, beta, Ws, Ss, f_s, L, pending, work, Wy, Sy):
    """Grow each pending fit's L by doubling until sufficient decrease
    holds at its prox candidate; the others keep L.  The prox and the
    row-norm penalty take the coefficients; intercepts take the plain
    gradient step.

    Ss are the scores of the search point Ws and f_s (F there), L and
    pending are lists; work is a _Workspace whose arrays, but for search,
    do not overlap Ws.  Each trial writes its candidate into Wy and the
    candidate's fresh scores into Sy.  Returns (L, F at the candidate, the
    candidate's row-norm sum) as lists, all from the last trial: a fit
    that passed earlier kept its L, so every later trial recomputed its
    candidate bit for bit.
    """
    p = _n_features(blocks)
    gW = _gradient_from(blocks, Ws, Ss, alpha, beta, work.grad)
    V = work.step
    for _ in range(MAX_DOUBLINGS + 1):
        L_arr = np.array(L)
        np.divide(gW, L_arr[:, None, None], out=V)
        np.subtract(Ws, V, out=V)
        _, norms = _prox_batch(V[..., :p], lam / L_arr, Wy[..., :p], work.norms, work.scale)
        Wy[..., p:] = V[..., p:]
        dW = np.subtract(Wy, Ws, out=V)
        linear = _member_dots(gW, dW)
        step_sq = _member_dots(dW, dW)
        f_y = _objective_from(blocks, Wy, _scores(blocks, Wy, Sy), alpha, beta)
        pending = [
            pend and not (sq <= _NULL_STEP_SQ or fy <= fs + lin + 0.5 * Lm * sq)
            for pend, fy, fs, lin, sq, Lm in zip(
                pending, f_y.tolist(), f_s, linear.tolist(), step_sq.tolist(), L
            )
        ]
        if not any(pending):
            # Only pending fits double L, and a fit's arithmetic reads only
            # its own slice, so this trial repeats each earlier acceptance.
            return L, f_y.tolist(), norms.sum(axis=1).tolist()
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
    blocks, Ws = problem._blocks, _members(search_point.W, search_point.intercepts)
    work, Ss = _Workspace.like(Ws, blocks), _scores(blocks, Ws)
    f_s = _objective_from(blocks, Ws, Ss, hyper.alpha, hyper.beta)
    if not np.isfinite(f_s[0]):
        raise SolverError("objective is non-finite at the search point")
    L, _, _ = _backtrack(blocks, np.array([hyper.lam]), hyper.alpha, hyper.beta, Ws, Ss,
                         [f_s[0]], [float(L_prev)], [True], work, work.cand, work.scores[2])
    return L[0], CoefficientMatrix(*_split(work.cand[0], problem.p))


def _resolve_init(problem, opts, w_init):
    """The start of a single fit as a batch of one (core._members): w_init,
    zero where it carries no intercepts, or all zeros without it."""
    p, t = problem.p, problem.t
    W = np.zeros((1, t, p + 1 if opts.fit_intercept else p))
    if w_init:
        if w_init.W.shape != (p, t):
            raise ValueError(f"w_init shape {w_init.W.shape} does not match problem ({p}, {t})")
        start = _members(w_init.W, w_init.intercepts)
        if start.shape[2] > W.shape[2]:
            raise ValueError("w_init carries intercepts but fit_intercept is off")
        W[..., : start.shape[2]] = start
    return W


def _proximal_loop(blocks, lam, alpha, beta, opts, W, accelerated, work=None, S=None):
    """Fit the batch of fits W, shape (fits, t_fit, p), or (fits, t_fit,
    p + 1) with each task's intercept last, fit m at penalty lam[m], on a
    core._layout of their B members (problem._blocks for one): B joint
    fits (t_fit = t) or B * t single-task fits (t_fit = 1, member-major).
    The fits are written into W in place, and only there: the caller's
    array is the output, never scratch.  work is a _Workspace for W's
    shape (a new one when None; a path passes one to each of its points).
    S is the caller's (B, entries) array of W's scores (core._scores),
    written in place with W: a path point starts from the scores, and so
    from the F, that its predecessor ended with.  Without S the loop
    scores W itself.  Returns each fit's objective trace, final L and
    converged flag as three lists (_fit_result reads one fit).
    Per-fit scalars are Python floats; the working arrays hold all fits of
    the tasks still running."""
    n_fits, B, p = W.shape[0], _n_members(blocks), _n_features(blocks)
    lam = np.asarray(lam, dtype=float)
    lam_m = lam.tolist()
    work = _Workspace.like(W, blocks) if work is None else work
    # Copies: the rotation turns each iterate array into a later candidate.
    W_out, W, W_prev, W_cand = W, W.copy(), W.copy(), work.cand
    S_out = _scores(blocks, W) if S is None else S
    (S, S_prev, S_cand, S_search), at = work.scores, np.arange(S_out.shape[1])
    S[...] = S_prev[...] = S_out
    f = _objective_from(blocks, W, S, alpha, beta)
    norms = _row_norms(W[..., :p], work.norms, work.step[..., :p])
    obj_prev = (f + lam * norms.sum(axis=1)).tolist()
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

    def write_back(positions, entries, W, S, L, converged):
        """Write the fits at positions of the batch W, and their entries of
        its scores S (at[entries] of the caller's), into the caller's
        arrays, and their final L and converged flags into the output.
        The batch is passed in: a name of the loop read from here would be
        a cell variable, slower to reach in every turn."""
        ids = [live[i] for i in positions]
        W_out[ids] = W[positions]
        S_out[:, at[entries]] = S[:, entries]
        for fit, i in zip(ids, positions):
            final_L[fit], final_converged[fit] = L[i], converged[i]

    while any(active):
        mom = [(tp - 1.0) / tc if on else 0.0 for tp, tc, on in zip(t_prev, t_cur, active)]
        if any(mom):
            # Scores are linear in a fit: the momentum point's are the same
            # combination of the iterates' scores.
            m = np.array(mom)
            Ws = np.subtract(W, W_prev, out=work.search)
            Ws *= m[:, None, None]
            Ws += W
            Ss = np.subtract(S, S_prev, out=S_search)
            Ss *= _by_entry(blocks, m)
            Ss += S
            f_m = _objective_from(blocks, Ws, Ss, alpha, beta).tolist()
            f_s = [fm if mo != 0.0 else fi for fm, mo, fi in zip(f_m, mom, f)]
        else:
            Ws, Ss, f_s = W, S, f
        pending = [on and math.isfinite(fs) for on, fs in zip(active, f_s)]
        if any(pending):
            given = [0.5 * Lm if pend and run == _EASY_TURNS else Lm
                     for Lm, run, pend in zip(L, easy, pending)]
            try:
                L, f_c, penalty = _backtrack(blocks, lam, alpha, beta, Ws, Ss, f_s, given,
                                             pending, work, W_cand, S_cand)
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
            # The stepping fits move on, with their candidates' scores; the
            # others keep their iterate and its scores.  (Their W_prev goes
            # unused: one that stays active restarted.)
            W_prev, W, W_cand = W, W_cand, W_prev
            S_prev, S, S_cand = S, S_cand, S_prev
            f = [fc if moved else fi for fc, moved, fi in zip(f_c, step, f)]
            if not all(step):
                kept = np.logical_not(step)
                np.copyto(W, W_prev, where=kept[:, None, None])
                np.copyto(S, S_prev, where=_by_entry(blocks, kept))

        if stopped and len(live) > B and any(active):
            running = np.array(active).reshape(B, -1).any(axis=0)
            if not running.all():
                # Tasks whose fits have all stopped leave the batch.
                keep = np.repeat(running, _task_sizes(blocks))
                write_back(_task_fits(B, ~running), ~keep, W, S, L, converged)
                blocks, sel = _task_subset(blocks, running), _task_fits(B, running)
                lam, W, W_prev = lam[sel], W[sel], W_prev[sel]
                # compress keeps C order (S[:, keep] would not), so the losses do.
                S, S_prev, at = S.compress(keep, 1), S_prev.compress(keep, 1), at[keep]
                work = work.head(len(sel), len(at))
                W_cand, (S_cand, S_search) = work.cand, work.scores[2:]
                per_fit = (lam_m, f, L, easy, t_prev, t_cur, traces, converged, active,
                           obj_prev, live)
                lam_m, f, L, easy, t_prev, t_cur, traces, converged, active, obj_prev, live = (
                    [x[i] for i in sel] for x in per_fit
                )

    write_back(np.arange(len(live)), slice(None), W, S, L, converged)
    return all_traces, final_L, final_converged


def _single_fit(problem, hyper, opts, w_init, accelerated) -> FitResult:
    W = _resolve_init(problem, opts, w_init)
    lam, alpha, beta = [hyper.lam], hyper.alpha, hyper.beta
    fits = _proximal_loop(problem._blocks, lam, alpha, beta, opts, W, accelerated)
    return _fit_result(W, problem.p, fits, 0)


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
