"""Command-line front end.

Every subcommand writes its outputs into --out-dir with fixed file names
and echoes its full resolved configuration (defaults included) to
runlog.json in the same directory, so identical command lines reproduce
byte-identical output trees.

A numeric flag is the library parameter of the same name (--n-per-task is
SimulationSpec's n_per_task): _add_flags declares it with the library's
default and type, and _call passes it to the library by that name.  The
flags whose names differ from their parameter's are passed explicitly.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Errors are reported on stderr as one line: "<category>: <message>" with
category in {usage-error, data-error, numerical-error}.  A command that
does not return 0 leaves no --out-dir directory that it made: main
removes the topmost one that did not exist before the command ran.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import shutil
import sys
from functools import partial

import numpy as np

from . import __version__
from .core import (
    DataError,
    Hyperparameters,
    SolverOptions,
    TaskKind,
    full_objective,
    standardize,
)
from .modelio import (
    ModelFile,
    format_float,
    load_model,
    load_problem,
    model_predictions,
    read_task_csv,
    save_model,
    write_csv,
    write_json,
    write_task_files,
)
from .modelselect import auc, cross_validate, explained_variance
from .regpath import lam_max, lambda_sequence, path_options, reg_path
from .simdata import SimulationSpec, run_benchmark, simulate
from .simdata import _benchmark_grid
from .solver import SolverError, fista_fit

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_runlog(args, manifest=None) -> None:
    """runlog.json in --out-dir: the command and every parsed flag, plus the
    manifest's fit_intercept and standardize options when one was loaded."""
    config = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    if manifest is not None:
        config |= {"fit_intercept": manifest.fit_intercept, "standardize": manifest.standardize}
    doc = {"command": args.command, "config": config, "version": __version__}
    write_json(os.path.join(args.out_dir, "runlog.json"), doc)


def _load_fit_inputs(manifest_path):
    """Load, optionally standardize, and report the pieces fit-like commands need."""
    problem, feature_names, manifest = load_problem(manifest_path)
    record = None
    if manifest.standardize:
        problem, record = standardize(problem, standardize_regression_outcomes=True)
    return problem, feature_names, manifest, record


def _call(call, args, *positional, **explicit):
    """call(*positional, **explicit), with every parsed flag whose dest is one
    of call's other parameters passed by that name."""
    params = inspect.signature(call).parameters
    flags = {name: value for name, value in vars(args).items() if name in params}
    return call(*positional, **{**flags, **explicit})


def _solver_options(args, fit_intercept: bool) -> SolverOptions:
    return _call(SolverOptions, args, L0=args.l0, fit_intercept=fit_intercept)


def cmd_simulate(args) -> int:
    out_dir = _ensure_out_dir(args.out_dir)
    spec = _call(SimulationSpec, args)
    sim = simulate(spec)
    width = len(str(spec.p))
    feature_names = [f"x{j + 1:0{width}d}" for j in range(spec.p)]

    files = []
    manifests = []
    for split, problem in (("train", sim.train), ("test", sim.test)):
        split_dir = _ensure_out_dir(os.path.join(out_dir, split))
        entries = []
        for task in problem.tasks:
            file_name = f"{task.name}.csv"
            files.append(
                (os.path.join(split_dir, file_name), feature_names + ["y"], task.X, task.y)
            )
            entries.append(
                {
                    "name": task.name,
                    "kind": task.kind.value,
                    "data_path": file_name,
                    "outcome_column": "y",
                }
            )
        manifest = {"standardize": False, "fit_intercept": False, "tasks": entries}
        manifests.append((os.path.join(split_dir, "manifest.json"), manifest))
    # The task files first, so that no manifest names a file not yet written.
    write_task_files(files)
    for path, manifest in manifests:
        write_json(path, manifest)

    write_csv(
        os.path.join(out_dir, "true_support.csv"),
        ["feature", "row"],
        [[feature_names[j], str(j)] for j in sim.true_support],
    )
    _write_runlog(args)
    return 0


def cmd_fit(args) -> int:
    problem, feature_names, manifest, record = _load_fit_inputs(args.manifest)
    opts = _solver_options(args, manifest.fit_intercept)
    hyper = _call(Hyperparameters, args)
    result = fista_fit(problem, hyper, opts)
    model = ModelFile(
        feature_names=feature_names,
        task_names=[task.name for task in problem.tasks],
        task_kinds=[task.kind for task in problem.tasks],
        coef=result.coef,
        standardization=record,
        standardize_outcomes=manifest.standardize,
        lam=hyper.lam,
        alpha=hyper.alpha,
        beta=hyper.beta,
        seed=None,
    )
    save_model(model, os.path.join(_ensure_out_dir(args.out_dir), "model.json"))
    _write_runlog(args, manifest)
    return 0


def cmd_path(args) -> int:
    problem, feature_names, manifest, _ = _load_fit_inputs(args.manifest)
    opts = _solver_options(args, manifest.fit_intercept)
    top = lam_max(problem, fit_intercept=opts.fit_intercept)
    sequence = _call(lambda_sequence, args, top, n=args.n_lambda)
    path = _call(reg_path, args, problem, sequence, opts=opts)

    # Each fit is built when it is read, so one loop writes its path.csv
    # row and its coefficient file.
    out_dir = _ensure_out_dir(args.out_dir)
    if args.save_coefficients:
        coef_dir = _ensure_out_dir(os.path.join(out_dir, "coefficients"))
        task_names = [task.name for task in problem.tasks]
    rows = []
    for idx, (lam, fit, nonzero) in enumerate(zip(sequence.values, path.fits, path.nonzero_rows)):
        objective = full_objective(problem, fit.coef, _call(Hyperparameters, args, lam))
        rows.append([lam, objective, str(int(nonzero))])
        if args.save_coefficients:
            coef_rows = [
                [name] + list(fit.coef.W[j]) for j, name in enumerate(feature_names)
            ]
            if fit.coef.intercepts is not None:
                coef_rows.append(["(intercept)"] + list(fit.coef.intercepts))
            write_csv(
                os.path.join(coef_dir, f"lambda_{idx:04d}.csv"),
                ["feature"] + task_names,
                coef_rows,
            )
    write_csv(os.path.join(out_dir, "path.csv"), ["lambda", "objective", "nonzero_rows"], rows)
    _write_runlog(args, manifest)
    return 0


def cmd_cv(args) -> int:
    problem, _, manifest, _ = _load_fit_inputs(args.manifest)
    opts = _solver_options(args, manifest.fit_intercept)
    result = _call(cross_validate, args, problem, opts=opts)
    out_dir = _ensure_out_dir(args.out_dir)
    write_csv(
        os.path.join(out_dir, "cv.csv"),
        ["lambda", "mean_error", "se_error"],
        list(zip(result.sequence.values, result.mean_cv_error, result.se_cv_error)),
    )
    with open(os.path.join(out_dir, "best_lambda.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_float(result.best_lambda) + "\n")
    _write_runlog(args, manifest)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    task_idx = model.task_index(args.task)
    header, values = read_task_csv(args.data)
    present = set(header)
    missing = [name for name in model.feature_names if name not in present]
    if missing:
        raise DataError(f"data file {args.data!r} is missing feature columns {missing[:5]}")
    column_of = {name: i for i, name in enumerate(header)}
    X = values[:, [column_of[name] for name in model.feature_names]]
    columns = model_predictions(model, X, task_idx)
    names = list(columns)
    write_csv(
        os.path.join(_ensure_out_dir(args.out_dir), "predictions.csv"),
        names,
        list(zip(*[columns[name] for name in names])),
    )
    _write_runlog(args)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    # Evaluation applies the model's stored standardization to raw inputs;
    # the manifest's own standardize flag is deliberately ignored here.
    problem, feature_names, _ = load_problem(args.manifest)
    if list(feature_names) != list(model.feature_names):
        raise DataError("evaluation data features do not match the model's features")
    rows = []
    for task in problem.tasks:
        idx = model.task_index(task.name)
        if model.task_kinds[idx] is not task.kind:
            raise DataError(f"task {task.name!r}: kind differs between model and data")
        columns = model_predictions(model, task.X, idx)
        try:
            if task.kind is TaskKind.CLASSIFICATION:
                metric = ["auc", auc(columns["score"], task.y)]
            else:
                metric = ["explained_variance", explained_variance(columns["prediction"], task.y)]
        except DataError as err:
            raise DataError(f"task {task.name!r}: {err}") from None
        rows.append([task.name, task.kind.value] + metric)
    out_dir = _ensure_out_dir(args.out_dir)
    write_csv(os.path.join(out_dir, "eval.csv"), ["task", "kind", "metric", "value"], rows)
    _write_runlog(args)
    return 0


def _bench_grid(args) -> tuple:
    """The spec (run_benchmark sets each cell's n_per_task and seed) and the
    --methods, --ratios and --seeds lists, checked by run_benchmark's check."""
    try:
        ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as err:
        raise UsageError(f"could not parse --ratios/--seeds: {err}") from None
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    spec = _call(SimulationSpec, args)
    try:
        return (spec, *_benchmark_grid(spec, methods, ratios, seeds, args.k, args.n_lambda))
    except ValueError as err:
        raise UsageError(f"--{err}") from None


def cmd_bench(args) -> int:
    spec, methods, ratios, seeds = _bench_grid(args)
    out_dir = _ensure_out_dir(args.out_dir)  # before the grid runs: an unusable one fails at once
    rows = _call(run_benchmark, args, spec, methods=methods, ratios=ratios, seeds=seeds)
    write_csv(
        os.path.join(out_dir, "benchmark.csv"),
        [
            "method",
            "ratio",
            "seed-count",
            "mean_recovery",
            "mean_ev_regression",
            "mean_pseudo_ev_classification",
        ],
        [dataclasses.astuple(row) for row in rows],
    )
    _write_runlog(args)
    return 0


def _add_flags(sub, source, *names) -> None:
    """Declare --name (dashes for underscores, dest name) for each of names,
    with the default, and its type, of source's parameter of that name, or
    of its attribute when source is an options object."""
    for name in names:
        if callable(source):
            default = inspect.signature(source).parameters[name].default
        else:
            default = getattr(source, name)
        sub.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _add_solver_flags(sub, opts: SolverOptions) -> None:
    """--alpha and --beta, and the flags of opts, the options the command fits with."""
    _add_flags(sub, Hyperparameters, "alpha", "beta")
    _add_flags(sub, opts, "max_iter", "tol")
    sub.add_argument("--l0", type=float, default=opts.L0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedmtl",
        description="Joint sparse multi-task learning for mixed regression and "
        "classification tasks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    spec_flags = ("t_classification", "t_regression", "p", "sparsity", "noise_scale")
    sub = commands.add_parser("simulate", help="generate a synthetic mixed-task dataset")
    _add_flags(sub, SimulationSpec, *spec_flags, "n_per_task", "seed")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_simulate)

    sub = commands.add_parser("fit", help="fit a model at a fixed penalty")
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_solver_flags(sub, SolverOptions())
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_fit)

    sub = commands.add_parser("path", help="fit the full regularization path")
    sub.add_argument("--manifest", required=True)
    _add_flags(sub, lambda_sequence, "ratio")
    sub.add_argument("--n-lambda", type=int, default=100)
    _add_solver_flags(sub, path_options())
    sub.add_argument("--save-coefficients", action="store_true")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_path)

    sub = commands.add_parser("cv", help="select the penalty by cross-validation")
    sub.add_argument("--manifest", required=True)
    _add_flags(sub, cross_validate, "k", "seed", "ratio", "n_lambda")
    _add_solver_flags(sub, path_options())
    sub.add_argument("--one-se", action="store_true")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_cv)

    sub = commands.add_parser("predict", help="score new data with a fitted model")
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--task", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_predict)

    sub = commands.add_parser("eval", help="evaluate a fitted model on a manifest")
    sub.add_argument("--model", required=True)
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_eval)

    sub = commands.add_parser("bench", help="run the simulation benchmark")
    _add_flags(sub, SimulationSpec, *spec_flags)
    for name in ("methods", "ratios", "seeds"):
        default = inspect.signature(run_benchmark).parameters[name].default
        sub.add_argument("--" + name, default=",".join(map(str, default)))
    _add_flags(sub, run_benchmark, "k", "n_lambda", "lambda_ratio", "alpha", "beta")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_bench)

    return parser


def _check_flag_ranges(args) -> None:
    """Reject out-of-range flag values as usage errors, before any file is read.

    Most ranges are checked by the library itself: the call that takes a
    flag's value is made with it, and its message is reported with the flag
    in place of the parameter name.  --k has cross_validate's range;
    --n-lambda has lambda_sequence's for the path and also takes a one-point
    grid for cross-validation (cv, bench).  Every --seed takes
    SimulationSpec's seed range.  bench's lists are checked by cmd_bench,
    also before its --out-dir exists.
    """
    # Flag dest -> (the call, its parameter); library defaults fill in the
    # rest, except that the simulation checks see --t-classification too.
    t_classification = getattr(args, "t_classification", SimulationSpec.t_classification)
    spec = partial(SimulationSpec, t_classification=t_classification)
    checks = {
        "lam": (Hyperparameters, "lam"),
        "alpha": (partial(Hyperparameters, 0.0), "alpha"),
        "beta": (partial(Hyperparameters, 0.0), "beta"),
        "max_iter": (SolverOptions, "max_iter"),
        "tol": (SolverOptions, "tol"),
        "l0": (SolverOptions, "L0"),
        "ratio": (partial(lambda_sequence, 1.0), "ratio"),
        "lambda_ratio": (partial(lambda_sequence, 1.0), "ratio"),
        **{field.name: (spec, field.name) for field in dataclasses.fields(SimulationSpec)},
    }
    for dest, (check, param) in checks.items():
        if dest not in vars(args):
            continue
        flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
        try:
            check(**{param: getattr(args, dest)})
        except ValueError as err:
            message = str(err)
            if message.startswith(param + " "):
                raise UsageError(flag + message[len(param):]) from None
            raise UsageError(f"{flag}: {message}") from None
    if getattr(args, "k", 2) < 2:
        raise UsageError(f"--k must be >= 2, got {args.k}")
    min_points = 2 if args.command == "path" else 1
    if getattr(args, "n_lambda", min_points) < min_points:
        raise UsageError(f"--n-lambda must be >= {min_points}, got {args.n_lambda}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return int(exit_info.code or 0)
    # The topmost directory of --out-dir that does not exist yet goes, with
    # all in it, unless the command returns 0 (whatever else ends it).
    made, path, code = None, os.path.abspath(args.out_dir), None
    while not os.path.lexists(path):
        made, path = path, os.path.dirname(path)
    try:
        _check_flag_ranges(args)
        # The solver reports a non-finite objective as a SolverError, so
        # numpy's overflow warnings would only precede that one line.
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.func(args)
        return code
    except UsageError as err:
        print(f"usage-error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data-error: {err}", file=sys.stderr)
        return 3
    except SolverError as err:
        print(f"numerical-error: {err}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as err:
        print(f"data-error: {err}", file=sys.stderr)
        return 3
    finally:
        if code != 0 and made is not None:
            shutil.rmtree(made, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
