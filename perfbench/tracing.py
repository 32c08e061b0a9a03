"""Record-only spans around the public functions of each mixedmtl layer.

Wrappers are installed at the module attribute through which the calling
layer looks a function up (``mixedmtl.regpath.fista_fit`` is what
``reg_path`` calls), so the program runs unchanged and only the timing
and a few counters taken from arguments and results are recorded.
Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np


def _count_fit(tracer, args, kwargs, result):
    tracer.counts["solver.fits"] += 1
    tracer.counts["solver.iterations"] += result.iterations
    tracer.counts["solver.unconverged"] += not result.converged


def _count_path(tracer, args, kwargs, result):
    problem = args[0]
    tracer.counts["regpath.points"] += len(result.fits)
    tracer.active_shares.extend((result.nonzero_rows / problem.p).tolist())


def _count_cv(tracer, args, kwargs, result):
    tracer.counts["modelselect.folds"] += result.folds


def _count_read(tracer, args, kwargs, result):
    tracer.counts["modelio.cells_read"] += result[1].size


def _count_write_csv(tracer, args, kwargs, result):
    path, header, rows = args
    tracer.counts["modelio.cells_written"] += len(header) * len(rows)
    tracer.counts["modelio.bytes_written"] += os.path.getsize(path)


def _count_save_model(tracer, args, kwargs, result):
    tracer.counts["modelio.bytes_written"] += os.path.getsize(args[1])


# (module, attribute, span name, counter hook).  The span name's prefix is
# the layer the callee belongs to.
TARGETS = (
    ("mixedmtl.regpath", "fista_fit", "solver.fista_fit", _count_fit),
    ("mixedmtl.cli", "fista_fit", "solver.fista_fit", _count_fit),
    ("mixedmtl.regpath", "lam_max", "regpath.lam_max", None),
    ("mixedmtl.modelselect", "lam_max", "regpath.lam_max", None),
    ("mixedmtl.regpath", "reg_path", "regpath.reg_path", _count_path),
    ("mixedmtl.modelselect", "reg_path", "regpath.reg_path", _count_path),
    ("mixedmtl.simdata", "reg_path", "regpath.reg_path", _count_path),
    ("mixedmtl.simdata", "cross_validate", "modelselect.cross_validate", _count_cv),
    ("mixedmtl.cli", "cross_validate", "modelselect.cross_validate", _count_cv),
    ("mixedmtl.simdata", "run_benchmark", "simdata.run_benchmark", None),
    ("mixedmtl.simdata", "simulate", "simdata.simulate", None),
    ("mixedmtl.cli", "simulate", "simdata.simulate", None),
    ("mixedmtl.cli", "load_problem", "modelio.load_problem", None),
    ("mixedmtl.modelio", "read_task_csv", "modelio.read_task_csv", _count_read),
    ("mixedmtl.cli", "read_task_csv", "modelio.read_task_csv", _count_read),
    ("mixedmtl.cli", "write_csv", "modelio.write_csv", _count_write_csv),
    ("mixedmtl.cli", "save_model", "modelio.save_model", _count_save_model),
    ("mixedmtl.cli", "load_model", "modelio.load_model", None),
)

CLI_COMMANDS = ("simulate", "cv", "fit", "eval", "predict")


class Tracer:
    """Spans (name, start, end, parent index) and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active_shares = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, hook in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self):
        """Total span time per span name and self time per layer.

        A span's self time is its duration minus the durations of its
        direct children; a layer's self time sums that over its spans.
        """
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        total = defaultdict(float)
        self_time = defaultdict(float)
        for (name, _, _, _), duration, children in zip(self.spans, durations, child_time):
            total[name] += duration
            self_time[name.split(".")[0]] += duration - children
        return total, self_time

    def layer_metrics(self):
        """Per-layer times and rates of this trace (counters are separate)."""
        total, self_time = self.totals()
        counts = self.counts
        iterations = counts["solver.iterations"]
        read_s = total["modelio.read_task_csv"]
        write_s = total["modelio.write_csv"]
        metrics = {
            "solver.fista_fit_s": total["solver.fista_fit"],
            "solver.us_per_iter": (
                total["solver.fista_fit"] / iterations * 1e6 if iterations else 0.0
            ),
            "regpath.reg_path_s": total["regpath.reg_path"],
            "regpath.self_s": self_time["regpath"],
            "regpath.lam_max_s": total["regpath.lam_max"],
            "modelselect.cross_validate_s": total["modelselect.cross_validate"],
            "modelselect.self_s": self_time["modelselect"],
            "simdata.simulate_s": total["simdata.simulate"],
            "simdata.self_s": self_time["simdata"],
            "modelio.load_problem_s": total["modelio.load_problem"],
            "modelio.read_task_csv_s": read_s,
            "modelio.read_mcells_per_s": (
                counts["modelio.cells_read"] / read_s / 1e6 if read_s else 0.0
            ),
            "modelio.write_csv_s": write_s,
            "modelio.write_mcells_per_s": (
                counts["modelio.cells_written"] / write_s / 1e6 if write_s else 0.0
            ),
            "modelio.save_model_s": total["modelio.save_model"],
            "modelio.load_model_s": total["modelio.load_model"],
            "cli.self_s": self_time["cli"],
        }
        for command in CLI_COMMANDS:
            metrics[f"cli.{command}_s"] = total[f"cli.{command}"]
        return metrics

    def counters(self):
        """Counters that must repeat exactly for the same inputs."""
        names = (
            "solver.fits",
            "solver.iterations",
            "solver.unconverged",
            "regpath.points",
            "modelselect.folds",
            "modelio.cells_read",
            "modelio.cells_written",
            "modelio.bytes_written",
        )
        counters = {name: int(self.counts[name]) for name in names}
        shares = self.active_shares
        counters["regpath.active_rows_mean"] = float(np.mean(shares)) if shares else 0.0
        return counters
