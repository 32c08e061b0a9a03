"""Manifest/CSV ingestion and the versioned model file.

A task manifest is a JSON document with a task list and two global
options::

    {
      "standardize": false,
      "fit_intercept": false,
      "tasks": [
        {"name": "diagnosis", "kind": "classification",
         "data_path": "diagnosis.csv", "outcome_column": "y"},
        ...
      ]
    }

Data paths are resolved relative to the manifest's directory.  Each data
file is a headered CSV; the outcome column is extracted and every other
column must be numeric.  Feature columns are matched across tasks by
name and reordered to a canonical (sorted) order, so column permutations
in the files do not change the loaded problem.  Classification outcomes
may be given as -1/+1 or 0/1; 0/1 is remapped on load.  Missing values
are rejected.

Model files are canonical JSON (sorted keys, repr-exact floats), so
save -> load -> save is byte-identical.

Two calls do their CSV work file by file on worker processes:
load_problem reads and gathers each data file, and write_task_files
(simulate's task files) builds and writes each file.  Both use
core._map_cells, one worker forked per usable CPU, when the CSV text
involved exceeds _POOL_MIN_BYTES (3 MB: the bytes of the files read, or
the cells written at 21 bytes each), and run in this process below it,
one file at a time, with no option for either.  The bytes written, the
arrays loaded with their memory layout, and the error raised (the first
in manifest order) are the same either way, and every worker has exited
when the call returns.  On workers every file is read before the first
error is raised; in this process the read stops at the first bad file.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CoefficientMatrix,
    DataError,
    Hyperparameters,
    MtlProblem,
    StandardizationRecord,
    TaskDataset,
    TaskKind,
    TaskStandardization,
    _map_cells,
    _outputs,
    predict,
)

__all__ = [
    "MODEL_FORMAT_VERSION",
    "ManifestTask",
    "TaskManifest",
    "ModelFile",
    "parse_manifest",
    "read_task_csv",
    "load_problem",
    "save_model",
    "load_model",
    "model_scores",
    "model_predictions",
    "format_float",
    "write_csv",
    "write_task_files",
    "write_json",
]

MODEL_FORMAT_VERSION = 1


_FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    """17 significant digits: enough for exact float round trips."""
    return _FLOAT_FORMAT % float(value)


def write_csv(path, header, rows) -> None:
    """Write a CSV with Unix newlines and round-trip-exact numbers.

    rows is a 2-d array or a sequence of equal-length rows.  A column holds
    text (str) throughout or numbers throughout, as its first row shows;
    numbers are written as format_float writes them.  Each row is one
    %-operation with a row format built once per file.
    """
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    lines = [",".join(header)]
    if rows:
        is_text = [isinstance(cell, str) for cell in rows[0]]
        text_columns = [c for c, text in enumerate(is_text) if text]
        if any(not isinstance(row[c], str) for row in rows for c in text_columns):
            raise TypeError("a column that is text in the first row holds a non-text cell")
        row_format = ",".join("%s" if text else _FLOAT_FORMAT for text in is_text)
        lines.extend(row_format % tuple(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# A batch of CSV files is read or written on forked workers only above this
# many bytes of CSV text.  The first pool of a command costs about 30 ms
# (15-20 ms to import the pool modules, about 10 ms to fork two workers,
# map and join them), and one process reads CSV at about 45 MB/s and
# writes it at about 30 MB/s (two cores, Python 3.11, numpy 2.4).  Half of
# the work on a second CPU saves those 30 ms, and the transfer of the
# arrays to and from the workers, from about 3 MB on.
_POOL_MIN_BYTES = 3_000_000
# The bytes a written number is counted at: "%.17g" of a standard normal
# draw and its comma.
_CELL_BYTES = 21


def _map_files(run, jobs, nbytes):
    """map(run, jobs): as a list from core._map_cells's workers when the CSV
    text involved, nbytes, exceeds _POOL_MIN_BYTES, else lazily, here."""
    if nbytes > _POOL_MIN_BYTES:
        return _map_cells(run, jobs)
    return map(run, jobs)


def _write_task_file(job) -> None:
    path, header, X, y = job
    write_csv(path, header, np.column_stack([X, y]))


def write_task_files(files) -> None:
    """write_csv(path, header, rows) for each (path, header, X, y) in files,
    the rows being X's with y as a last column.

    The rows are built where the file is written.  Above _POOL_MIN_BYTES
    of text, counted from the cells of X and y, the files are written on
    forked workers; the bytes are the same either way.
    """
    cells = sum(X.size + y.size for _, _, X, y in files)
    for _ in _map_files(_write_task_file, files, cells * _CELL_BYTES):
        pass


def write_json(path, doc) -> None:
    """Write doc as canonical JSON: sorted keys, two-space indent, repr-exact
    floats, a final newline; a non-finite float raises ValueError."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


@dataclass(frozen=True)
class ManifestTask:
    name: str
    kind: TaskKind
    data_path: str
    outcome_column: str


@dataclass(frozen=True)
class TaskManifest:
    tasks: tuple
    standardize: bool = False
    fit_intercept: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise DataError("manifest task names must be unique")


def _read_json(path, what):
    """The JSON document in the file path; a missing file, bytes that are
    not UTF-8 and text that is not JSON raise a DataError that names the
    file as what (a manifest, a model file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} {path!r} does not exist") from None
    except UnicodeDecodeError as err:
        raise DataError(f"{what} {path!r} is not valid UTF-8: {err}") from None
    except json.JSONDecodeError as err:
        raise DataError(f"{what} {path!r} is not valid JSON: {err}") from None


def parse_manifest(path) -> TaskManifest:
    raw = _read_json(path, "manifest")
    if not isinstance(raw, dict) or not isinstance(raw.get("tasks"), list):
        raise DataError(f"manifest {path!r} must be an object with a 'tasks' list")
    tasks = []
    for entry in raw["tasks"]:
        if not isinstance(entry, dict):
            raise DataError(f"manifest task entry must be an object, got {entry!r}")
        missing = {"name", "kind", "data_path", "outcome_column"} - set(entry)
        if missing:
            raise DataError(f"manifest task entry is missing {sorted(missing)}")
        try:
            kind = TaskKind(entry["kind"])
        except ValueError:
            raise DataError(
                f"task {entry['name']!r}: kind must be 'classification' or 'regression', "
                f"got {entry['kind']!r}"
            ) from None
        tasks.append(
            ManifestTask(
                name=str(entry["name"]),
                kind=kind,
                data_path=str(entry["data_path"]),
                outcome_column=str(entry["outcome_column"]),
            )
        )
    if not tasks:
        raise DataError(f"manifest {path!r} lists no tasks")
    options = {key: raw.get(key, False) for key in ("standardize", "fit_intercept")}
    for key, value in options.items():
        if not isinstance(value, bool):
            raise DataError(f"manifest {path!r}: {key!r} must be true or false, got {value!r}")
    return TaskManifest(tasks=tuple(tasks), **options)


def read_task_csv(path):
    """Read a headered numeric CSV; returns (header, values).

    Rejects duplicated header names, ragged rows, missing values, and
    non-numeric or non-finite cells.  A UTF-8 byte-order mark at the
    start of the file is dropped.

    Without a quote character a CSV record is a line and a cell is the
    text between commas, so the body is parsed by one np.loadtxt call,
    then checked once for shape and finiteness.  numpy's parser takes a
    subset of the cells float() takes (not "1_0" or non-ASCII digits) and
    gives the same values.  A file it does not take cleanly goes to
    _scan_task_csv, which loads it as before or names its first bad cell.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise DataError(f"data file {path!r} does not exist") from None
    except UnicodeDecodeError as err:
        raise DataError(f"data file {path!r} is not valid UTF-8: {err}") from None
    if '"' in text:
        return _scan_task_csv(path, text)
    # csv ends a record at "\r\n", "\r" or "\n" and drops empty records.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [line for line in lines if line]
    header = _checked_header(path, lines[0].split(",") if lines else [], len(lines))
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return _scan_task_csv(path, text)
    if values.shape != (len(lines) - 1, len(header)) or not np.isfinite(values).all():
        return _scan_task_csv(path, text)
    return header, values


def _checked_header(path, first_row, n_rows) -> list:
    """The stripped header cells of a file's first of n_rows non-empty rows;
    rejects an empty file, duplicated names, and a header without rows."""
    if n_rows == 0:
        raise DataError(f"data file {path!r} is empty")
    header = [cell.strip() for cell in first_row]
    if len(set(header)) != len(header):
        duplicates = sorted({name for name in header if header.count(name) > 1})
        raise DataError(f"data file {path!r} has duplicated columns: {duplicates}")
    if n_rows < 2:
        raise DataError(f"data file {path!r} has a header but no rows")
    return header


def _scan_task_csv(path, text):
    """read_task_csv cell by cell: csv.reader rows and float() per cell."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    except csv.Error as err:
        raise DataError(f"data file {path!r}: {err}") from None
    header = _checked_header(path, rows[0] if rows else [], len(rows))
    values = np.empty((len(rows) - 1, len(header)))
    for r, cells in enumerate(rows[1:]):
        if len(cells) != len(header):
            raise DataError(
                f"data file {path!r}, row {r + 2}: {len(cells)} cells for "
                f"{len(header)} columns"
            )
        for c, cell in enumerate(cells):
            cell = cell.strip()
            if cell == "":
                raise DataError(
                    f"data file {path!r}, row {r + 2}, column {header[c]!r}: missing "
                    "value (impute before loading)"
                )
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"data file {path!r}, row {r + 2}, column {header[c]!r}: "
                    f"non-numeric cell {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(
                    f"data file {path!r}, row {r + 2}, column {header[c]!r}: "
                    f"non-finite value {cell!r}"
                )
            values[r, c] = value
    return header, values


def _remap_labels(y: np.ndarray, task_name: str) -> np.ndarray:
    values = set(np.unique(y).tolist())
    if values <= {-1.0, 1.0}:
        return y
    if values <= {0.0, 1.0}:
        return 2.0 * y - 1.0
    raise DataError(
        f"task {task_name!r}: classification outcomes must be in {{-1,+1}} or {{0,1}}, "
        f"got values {sorted(values)[:5]}"
    )


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:  # read_task_csv reports it
        return 0


def _read_task(job):
    """One data file read for load_problem: (header, columns), or the error raised.

    columns holds the feature columns in sorted name order, then the
    outcome column, as one gather, which is column-major; it is None when
    the header lacks the outcome column.  The error is returned, not
    raised, so that the caller raises the first one in manifest order.
    """
    path, outcome_column = job
    try:
        header, values = read_task_csv(path)
    except Exception as err:  # any of them: the caller re-raises it in order
        return err
    if outcome_column not in header:
        return header, None
    column_of = {name: i for i, name in enumerate(header)}
    order = sorted(name for name in header if name != outcome_column) + [outcome_column]
    return header, values[:, [column_of[name] for name in order]]


def load_problem(manifest_path):
    """Load a manifest and its data files.

    Returns (problem, feature_names, manifest).  Tasks are reordered
    classification-first (stable); feature columns are reordered to the
    canonical sorted order shared by all tasks.  The files are read
    through _map_files, then checked here in manifest order.
    """
    manifest = parse_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = [os.path.join(base, entry.data_path) for entry in manifest.tasks]
    jobs = [(path, entry.outcome_column) for path, entry in zip(paths, manifest.tasks)]
    results = _map_files(_read_task, jobs, sum(map(_file_bytes, paths)))

    canonical = None
    loaded = []
    for entry, data_path, result in zip(manifest.tasks, paths, results):
        if isinstance(result, Exception):
            raise result
        header, columns = result
        if entry.outcome_column not in header:
            raise DataError(
                f"task {entry.name!r}: outcome column {entry.outcome_column!r} not in "
                f"{data_path!r}"
            )
        feature_names = [name for name in header if name != entry.outcome_column]
        if not feature_names:
            raise DataError(f"task {entry.name!r}: no feature columns besides the outcome")
        if canonical is None:
            canonical = sorted(feature_names)
        elif sorted(feature_names) != canonical:
            extra = sorted(set(feature_names) - set(canonical))
            absent = sorted(set(canonical) - set(feature_names))
            raise DataError(
                f"task {entry.name!r}: feature set differs from the first task "
                f"(extra: {extra}, missing: {absent})"
            )
        X, y = columns[:, :-1], columns[:, -1]
        if entry.kind is TaskKind.CLASSIFICATION:
            y = _remap_labels(y, entry.name)
        loaded.append(TaskDataset(X, y, entry.kind, entry.name))

    ordered = [t for t in loaded if t.kind is TaskKind.CLASSIFICATION]
    ordered += [t for t in loaded if t.kind is TaskKind.REGRESSION]
    return MtlProblem(tuple(ordered)), list(canonical), manifest


@dataclass(frozen=True)
class ModelFile:
    """A fitted model plus everything needed to apply it to raw data."""

    feature_names: tuple
    task_names: tuple
    task_kinds: tuple
    coef: CoefficientMatrix
    standardization: Optional[StandardizationRecord]
    standardize_outcomes: bool
    lam: float
    alpha: float
    beta: float
    seed: Optional[int] = None
    version: int = MODEL_FORMAT_VERSION

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "task_names", tuple(self.task_names))
        object.__setattr__(self, "task_kinds", tuple(TaskKind(k) for k in self.task_kinds))
        p, t = self.coef.W.shape
        if len(self.feature_names) != p:
            raise DataError(f"{len(self.feature_names)} feature names for {p} rows")
        if len(self.task_names) != t or len(self.task_kinds) != t:
            raise DataError(f"task names/kinds do not match {t} columns")
        if self.standardization is not None:
            records = self.standardization.tasks
            shapes = {np.shape(vector) for record in records for vector in
                      (record.feature_mean, record.feature_scale, record.constant_features)}
            if len(records) != t or not shapes <= {(p,)}:
                raise DataError(f"standardization does not match {p} rows and {t} columns")
        try:
            Hyperparameters(self.lam, self.alpha, self.beta)
        except ValueError as err:
            raise DataError(str(err)) from None
        if self.seed is not None and (type(self.seed) is not int or self.seed < 0):
            raise DataError(f"seed must be null or an integer >= 0, got {self.seed!r}")

    def task_index(self, name: str) -> int:
        try:
            return self.task_names.index(name)
        except ValueError:
            raise DataError(f"model has no task named {name!r}") from None


def _standardization_to_dict(record: StandardizationRecord) -> list:
    out = []
    for ts in record.tasks:
        out.append(
            {
                "feature_mean": ts.feature_mean.tolist(),
                "feature_scale": ts.feature_scale.tolist(),
                "constant_features": [bool(v) for v in ts.constant_features],
                "outcome_mean": ts.outcome_mean,
                "outcome_scale": ts.outcome_scale,
            }
        )
    return out


def _standardization_from_dict(items) -> StandardizationRecord:
    tasks = []
    for item in items:
        mean, scale = (None if item[key] is None else float(item[key])
                       for key in ("outcome_mean", "outcome_scale"))
        if (mean is None) != (scale is None):
            raise DataError("outcome_mean and outcome_scale must both be numbers or both be null")
        tasks.append(
            TaskStandardization(
                feature_mean=np.array(item["feature_mean"], dtype=float),
                feature_scale=np.array(item["feature_scale"], dtype=float),
                constant_features=np.array(item["constant_features"], dtype=bool),
                outcome_mean=mean,
                outcome_scale=scale,
            )
        )
    return StandardizationRecord(tuple(tasks))


def save_model(model: ModelFile, path) -> None:
    doc = {
        "format_version": model.version,
        "feature_names": list(model.feature_names),
        "tasks": [
            {"name": name, "kind": kind.value}
            for name, kind in zip(model.task_names, model.task_kinds)
        ],
        "coefficients": model.coef.W.tolist(),
        "intercepts": None if model.coef.intercepts is None else model.coef.intercepts.tolist(),
        "standardization": (
            None
            if model.standardization is None
            else {
                "standardize_outcomes": model.standardize_outcomes,
                "tasks": _standardization_to_dict(model.standardization),
            }
        ),
        "hyperparameters": {"lambda": model.lam, "alpha": model.alpha, "beta": model.beta},
        "seed": model.seed,
    }
    write_json(path, doc)


def load_model(path) -> ModelFile:
    doc = _read_json(path, "model file")
    if not isinstance(doc, dict):
        raise DataError(f"model file {path!r} must hold a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(
            f"model file {path!r} has format version {doc.get('format_version')!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    try:
        std = doc["standardization"]
        record = None if std is None else _standardization_from_dict(std["tasks"])
        intercepts = doc["intercepts"]
        coef = CoefficientMatrix(
            np.array(doc["coefficients"], dtype=float),
            None if intercepts is None else np.array(intercepts, dtype=float),
        )
        return ModelFile(
            feature_names=tuple(doc["feature_names"]),
            task_names=tuple(entry["name"] for entry in doc["tasks"]),
            task_kinds=tuple(entry["kind"] for entry in doc["tasks"]),
            coef=coef,
            standardization=record,
            standardize_outcomes=std is not None and bool(std["standardize_outcomes"]),
            lam=float(doc["hyperparameters"]["lambda"]),
            alpha=float(doc["hyperparameters"]["alpha"]),
            beta=float(doc["hyperparameters"]["beta"]),
            seed=doc["seed"],
            version=int(doc["format_version"]),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as err:  # a missing or bad field
        raise DataError(f"model file {path!r} is malformed ({type(err).__name__}: {err})") from None


def model_scores(model: ModelFile, X: np.ndarray, task_index: int) -> np.ndarray:
    """Linear scores of one task column on raw features.

    The model's stored standardization (if any) is applied to X first, so
    raw and pre-standardized inputs give identical scores.  The scores are
    core.predict's, bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise DataError(
            f"expected {len(model.feature_names)} feature columns, got shape {X.shape}"
        )
    if model.standardization is not None:
        X = model.standardization.tasks[task_index].transform_features(X)
    intercepts = model.coef.intercepts
    intercept = 0.0 if intercepts is None else intercepts[task_index]
    kind = model.task_kinds[task_index]
    return predict(X, model.coef.W[:, task_index], kind, intercept, output="score")


def model_predictions(model: ModelFile, X: np.ndarray, task_index: int) -> dict:
    """Column name -> vector for a prediction report on one task (regression
    predictions on the raw outcome scale)."""
    scores = model_scores(model, X, task_index)
    kind = model.task_kinds[task_index]
    if kind is TaskKind.CLASSIFICATION:
        outputs = ("score", "probability", "label")
        return {output: _outputs(scores, kind, output) for output in outputs}
    prediction = scores
    if model.standardization is not None:
        prediction = model.standardization.tasks[task_index].inverse_outcome(scores)
    return {"score": scores, "prediction": prediction}
