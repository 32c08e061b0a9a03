import csv
import functools
import inspect
import json
import multiprocessing
import os
import re
import shutil
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixedmtl import (
    CoefficientMatrix,
    DataError,
    Hyperparameters,
    MtlProblem,
    ModelFile,
    SimulationSpec,
    SolverOptions,
    TaskDataset,
    TaskKind,
    auc,
    cross_validate,
    explained_variance,
    load_model,
    load_problem,
    model_predictions,
    model_scores,
    predict,
    run_benchmark,
    save_model,
    sigmoid,
    simulate,
    standardize,
)
from mixedmtl import cli, core, lam_max, lambda_sequence, modelio, path_options, reg_path, regpath
from mixedmtl.cli import build_parser, main
from mixedmtl.modelio import format_float, parse_manifest, read_task_csv, write_csv
from util import pool_workers


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _manifest(tmp_path, tasks, standardize=False, fit_intercept=False, name="manifest.json"):
    doc = {"standardize": standardize, "fit_intercept": fit_intercept, "tasks": tasks}
    path = tmp_path / name
    _write(path, json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# CSV primitives


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
    path = tmp_path / "round.csv"
    write_csv(path, ["a", "b", "c"], [list(row) for row in values])
    header, loaded = read_task_csv(path)
    assert header == ["a", "b", "c"]
    npt.assert_array_equal(loaded, values)


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def test_read_task_csv_errors(tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        read_task_csv(tmp_path / "missing.csv")

    path = tmp_path / "bad.csv"
    _write(path, "")
    with pytest.raises(DataError, match="empty"):
        read_task_csv(path)

    _write(path, "a,b,a\n1,2,3\n")
    with pytest.raises(DataError, match="duplicated"):
        read_task_csv(path)

    _write(path, "a,b\n1\n")
    with pytest.raises(DataError, match="2 columns|columns"):
        read_task_csv(path)

    _write(path, "a,b\n1,\n")
    with pytest.raises(DataError, match="missing value"):
        read_task_csv(path)

    _write(path, "a,b\n1,x\n")
    with pytest.raises(DataError, match="non-numeric"):
        read_task_csv(path)

    _write(path, "a,b\n1,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        read_task_csv(path)

    _write(path, "a,b\n")
    with pytest.raises(DataError, match="no rows"):
        read_task_csv(path)


def test_oversized_quoted_cell_is_a_data_error(tmp_path, capsys):
    # csv's default field limit is 131072 characters.
    data = tmp_path / "big.csv"
    _write(data, 'f1,y\n"' + "1" * 140_000 + '",1\n2,3\n')
    with pytest.raises(DataError, match="big.csv.*field larger than field limit"):
        read_task_csv(data)
    man = _manifest(
        tmp_path,
        [{"name": "t", "kind": "regression", "data_path": "big.csv", "outcome_column": "y"}],
    )
    assert main(["fit", "--manifest", str(man), "--lambda", "1",
                 "--out-dir", str(tmp_path / "f")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data-error: data file ") and "big.csv" in err


def test_read_task_csv_error_messages_name_the_first_bad_cell(tmp_path):
    path = str(tmp_path / "deep.csv")
    good = "".join(f"{r}.5,-{r},{r}e-3\n" for r in range(6))

    def message(body):
        _write(path, "a, b ,c\n" + good + body + good)
        with pytest.raises(DataError) as info:
            read_task_csv(path)
        return str(info.value)

    where = f"data file {path!r}, row 8"
    assert message("1,  ,3\n") == (
        f"{where}, column 'b': missing value (impute before loading)"
    )
    assert message("1,2, 3x \n") == f"{where}, column 'c': non-numeric cell '3x'"
    assert message(" -inf ,2,3\n") == f"{where}, column 'a': non-finite value '-inf'"
    assert message("1,2\n") == f"{where}: 2 cells for 3 columns"
    # The first bad cell in row order is reported, whatever comes after it.
    assert message("1,nan,3\n1,2\n") == f"{where}, column 'b': non-finite value 'nan'"
    assert message("1,2,3,4\n1,x,3\n") == f"{where}: 4 cells for 3 columns"


def test_read_task_csv_edge_cells(tmp_path):
    path = tmp_path / "edge.csv"
    # Quoted cells, underscores and non-ASCII digits load as float() reads them.
    _write(path, 'a,"b"\n1_0,"2"\n\u0661,3\x1c\n')
    header, values = read_task_csv(path)
    assert header == ["a", "b"]
    npt.assert_array_equal(values, [[10.0, 2.0], [1.0, 3.0]])
    # Only "\r" and "\n" end a record; other line breaks are cell text.
    for cell in ("1\x1c2", "1\x0b2", "1\u20282"):
        _write(path, f"a\n{cell}\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_task_csv(path)
    # A UTF-8 byte-order mark, as spreadsheet tools write, is not part of the
    # first column's name, in either parser.
    for body in ("y,f1\n1,2\n", 'y,"f1"\n1,2\n'):
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        header, values = read_task_csv(path)
        assert header == ["y", "f1"]
        npt.assert_array_equal(values, [[1.0, 2.0]])


def _oracle_read_task_csv(path):
    """csv.reader rows and float(cell.strip()) per cell, in row order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"data file {path!r} is empty")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        duplicates = sorted({name for name in header if header.count(name) > 1})
        raise DataError(f"data file {path!r} has duplicated columns: {duplicates}")
    if len(rows) < 2:
        raise DataError(f"data file {path!r} has a header but no rows")
    out = []
    for r, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(header):
            raise DataError(
                f"data file {path!r}, row {r}: {len(cells)} cells for {len(header)} columns"
            )
        out.append([])
        for name, cell in zip(header, cells):
            cell = cell.strip()
            where = f"data file {path!r}, row {r}, column {name!r}"
            if not cell:
                raise DataError(f"{where}: missing value (impute before loading)")
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{where}: non-numeric cell {cell!r}") from None
            if not np.isfinite(value):
                raise DataError(f"{where}: non-finite value {cell!r}")
            out[-1].append(value)
    return header, np.array(out, dtype=float).reshape(len(rows) - 1, len(header))


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(format_float),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([".5", "5.", "-0", "+1e-3", "1E5", "1_0", "\u0661"]),
)
_BAD_TEXT = st.sampled_from(
    ["", "nan", "inf", "-Infinity", "1e500", "#", "#1", "x", "0x10", "1 2", "1\x00", "1\x1c2",
     "1\u20282"]
)
# About one cell in thirty is bad, so about half of the files load.
_CELL_TEXT = st.sampled_from([_NUMBER_TEXT] * 29 + [_BAD_TEXT]).flatmap(lambda cells: cells)
_PADDING = st.sampled_from(["", "", "", " ", "\t", "\u2003", "\x1c"])


@st.composite
def _csv_texts(draw):
    """CSV texts mixing valid and bad cells, padding, quotes, line endings,
    blank lines, ragged rows and duplicated header names."""
    n_cols = draw(st.integers(1, 4))
    header = draw(st.permutations(["a", "b", "c", " d", "e "]))[:n_cols]
    if n_cols > 1 and draw(st.integers(0, 9)) == 0:
        header[-1] = header[0]
    quote_rate = draw(st.sampled_from([0, 0, 4]))
    if quote_rate:
        header = [f'"{name}"' if draw(st.booleans()) else name for name in header]
    rows = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        width = n_cols + draw(st.sampled_from([0] * 15 + [-1, 1]))
        cells = []
        for _ in range(width):
            cell = draw(_PADDING) + draw(_CELL_TEXT) + draw(_PADDING)
            if quote_rate and draw(st.integers(0, quote_rate)) == 0:
                cell = '"' + cell + draw(st.sampled_from(["", "\n", "\r\n"])) + '"'
            cells.append(cell)
        rows.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from(["", " "])))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows),
                            max_size=len(rows)))
    text = "".join(row + end for row, end in zip(rows, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_csv_texts())
def test_read_task_csv_matches_cell_by_cell_oracle(tmp_path_factory, text):
    path = str(tmp_path_factory.getbasetemp() / "oracle.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        expected = _oracle_read_task_csv(path)
    except DataError as err:
        with pytest.raises(DataError) as info:
            read_task_csv(path)
        assert str(info.value) == str(err)
        return
    header, values = read_task_csv(path)
    assert header == expected[0]
    assert values.shape == expected[1].shape
    assert values.tobytes() == expected[1].tobytes()


def test_write_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "pinned.csv"
    write_csv(path, ["name", "int", "float", "np"], [
        ["a", 1, 0.1, np.float64(1.0 / 3.0)],
        ["b", -7, 2.5, np.float64(123456789.125)],
        ["c", 2**53 + 1, 1e-7, np.float64(1e16)],
    ])
    assert path.read_bytes() == (
        b"name,int,float,np\n"
        b"a,1,0.10000000000000001,0.33333333333333331\n"
        b"b,-7,2.5,123456789.125\n"
        b"c,9007199254740992,9.9999999999999995e-08,10000000000000000\n"
    )
    write_csv(path, ["v", "w"], np.array([[-0.0, 5e-324], [1e300, 0.1]]))
    assert path.read_bytes() == (
        b"v,w\n-0,4.9406564584124654e-324\n1.0000000000000001e+300,0.10000000000000001\n"
    )
    write_csv(path, ["only"], [])
    assert path.read_bytes() == b"only\n"
    with pytest.raises(TypeError):
        write_csv(path, ["name"], [["a"], [0.5]])


def test_cli_simulate_csv_matches_per_cell_rendering(tmp_path):
    out = tmp_path / "sim"
    assert _run(["simulate", "--p", 12, "--t-classification", 1, "--t-regression", 2,
                 "--n-per-task", 15, "--seed", 4, "--out-dir", out]) == 0
    sim = simulate(SimulationSpec(t_classification=1, t_regression=2, p=12, n_per_task=15,
                                  seed=4))
    header = ",".join([f"x{j + 1:02d}" for j in range(12)] + ["y"])
    for split, problem in (("train", sim.train), ("test", sim.test)):
        for task in problem.tasks:
            lines = [header] + [
                ",".join(format_float(v) for v in list(task.X[r]) + [task.y[r]])
                for r in range(task.n_samples)
            ]
            expected = "\n".join(lines) + "\n"
            assert (out / split / f"{task.name}.csv").read_text() == expected


# ---------------------------------------------------------------------------
# manifest loading


def test_load_problem_basic(tmp_path):
    _write(tmp_path / "c.csv", "f1,f2,y\n1,2,1\n3,4,0\n")
    _write(tmp_path / "r.csv", "f1,f2,y\n1,2,0.5\n3,4,1.5\n")
    manifest = _manifest(
        tmp_path,
        [
            {"name": "reg", "kind": "regression", "data_path": "r.csv", "outcome_column": "y"},
            {"name": "clf", "kind": "classification", "data_path": "c.csv", "outcome_column": "y"},
        ],
    )
    problem, features, options = load_problem(manifest)
    assert features == ["f1", "f2"]  # p = header count - 1
    assert problem.p == 2
    # classification first, 0/1 labels remapped
    assert problem.tasks[0].name == "clf"
    npt.assert_array_equal(problem.tasks[0].y, [1.0, -1.0])
    assert problem.tasks[1].kind is TaskKind.REGRESSION
    assert options.standardize is False


def test_load_problem_column_permutation_invariant(tmp_path):
    _write(tmp_path / "a.csv", "f1,f2,y\n1,2,0.1\n3,4,0.2\n")
    _write(tmp_path / "b.csv", "y,f2,f1\n0.1,2,1\n0.2,4,3\n")
    man_a = _manifest(
        tmp_path,
        [{"name": "t", "kind": "regression", "data_path": "a.csv", "outcome_column": "y"}],
        name="ma.json",
    )
    man_b = _manifest(
        tmp_path,
        [{"name": "t", "kind": "regression", "data_path": "b.csv", "outcome_column": "y"}],
        name="mb.json",
    )
    pa, fa, _ = load_problem(man_a)
    pb, fb, _ = load_problem(man_b)
    assert fa == fb
    npt.assert_array_equal(pa.tasks[0].X, pb.tasks[0].X)
    npt.assert_array_equal(pa.tasks[0].y, pb.tasks[0].y)


def test_load_problem_errors(tmp_path):
    _write(tmp_path / "a.csv", "f1,f2,y\n1,2,0.1\n")
    _write(tmp_path / "short.csv", "f1,y\n1,0.1\n")
    _write(tmp_path / "badlab.csv", "f1,f2,y\n1,2,3\n3,4,1\n")

    with pytest.raises(DataError, match="does not exist"):
        load_problem(tmp_path / "nope.json")

    man = _manifest(
        tmp_path,
        [{"name": "t", "kind": "regression", "data_path": "gone.csv", "outcome_column": "y"}],
        name="m1.json",
    )
    with pytest.raises(DataError, match="does not exist"):
        load_problem(man)

    man = _manifest(
        tmp_path,
        [{"name": "t", "kind": "regression", "data_path": "a.csv", "outcome_column": "z"}],
        name="m2.json",
    )
    with pytest.raises(DataError, match="outcome column"):
        load_problem(man)

    man = _manifest(
        tmp_path,
        [
            {"name": "t1", "kind": "regression", "data_path": "a.csv", "outcome_column": "y"},
            {"name": "t2", "kind": "regression", "data_path": "short.csv", "outcome_column": "y"},
        ],
        name="m3.json",
    )
    with pytest.raises(DataError, match="feature set differs"):
        load_problem(man)

    man = _manifest(
        tmp_path,
        [{"name": "t", "kind": "classification", "data_path": "badlab.csv", "outcome_column": "y"}],
        name="m4.json",
    )
    with pytest.raises(DataError, match="classification outcomes"):
        load_problem(man)

    man = _manifest(
        tmp_path,
        [
            {"name": "t", "kind": "regression", "data_path": "a.csv", "outcome_column": "y"},
            {"name": "t", "kind": "regression", "data_path": "a.csv", "outcome_column": "y"},
        ],
        name="m5.json",
    )
    with pytest.raises(DataError, match="unique"):
        load_problem(man)

    man = _manifest(
        tmp_path,
        [{"name": "t", "kind": "ordinal", "data_path": "a.csv", "outcome_column": "y"}],
        name="m6.json",
    )
    with pytest.raises(DataError, match="kind"):
        load_problem(man)

    _write(tmp_path / "m7.json", "{not json")
    with pytest.raises(DataError, match="JSON"):
        load_problem(tmp_path / "m7.json")


# ---------------------------------------------------------------------------
# model file


def _small_model(with_standardization=False):
    rng = np.random.default_rng(1)
    W = rng.standard_normal((3, 2))
    record = None
    if with_standardization:
        X = rng.standard_normal((10, 3)) * 2.0 + 1.0
        problem = MtlProblem(
            (
                TaskDataset(X, np.where(rng.standard_normal(10) > 0, 1.0, -1.0),
                            "classification", "c"),
                TaskDataset(X + 0.5, rng.standard_normal(10), "regression", "r"),
            )
        )
        _, record = standardize(problem, standardize_regression_outcomes=True)
    return ModelFile(
        feature_names=("f1", "f2", "f3"),
        task_names=("c", "r"),
        task_kinds=("classification", "regression"),
        coef=CoefficientMatrix(W, rng.standard_normal(2)),
        standardization=record,
        standardize_outcomes=with_standardization,
        lam=0.25,
        alpha=0.0,
        beta=0.1,
        seed=None,
    )


@pytest.mark.parametrize("with_standardization", [False, True])
def test_model_save_load_save_byte_identical(tmp_path, with_standardization):
    model = _small_model(with_standardization)
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_round_trip_predictions(tmp_path):
    model = _small_model(True)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 3))
    path = tmp_path / "m.json"
    save_model(model, path)
    again = load_model(path)
    for idx in range(2):
        npt.assert_array_equal(model_scores(model, X, idx), model_scores(again, X, idx))


@pytest.mark.parametrize("with_standardization", [False, True])
def test_model_predictions_keep_the_score_to_output_mapping(with_standardization):
    model = _small_model(with_standardization)
    X = np.random.default_rng(3).standard_normal((40, 3)) * 3.0
    for idx in range(2):
        scores = model_scores(model, X, idx)
        columns = model_predictions(model, X, idx)
        assert columns["score"].tobytes() == scores.tobytes()
        if idx == 0:  # classification
            assert list(columns) == ["score", "probability", "label"]
            assert columns["probability"].tobytes() == sigmoid(scores).tobytes()
            labels = np.where(scores >= 0.0, 1.0, -1.0)
            assert columns["label"].tobytes() == labels.tobytes()
        else:
            assert list(columns) == ["score", "prediction"]
    zero = ModelFile(("f1",), ("c",), ("classification",),
                     CoefficientMatrix(np.zeros((1, 1))), None, False, 1.0, 0.0, 0.0)
    columns = model_predictions(zero, np.array([[-1.0], [2.0]]), 0)
    npt.assert_array_equal(columns["probability"], [0.5, 0.5])
    npt.assert_array_equal(columns["label"], [1.0, 1.0])


def test_model_scores_are_core_predict_scores_bit_for_bit():
    # A one-row X: X @ W[:, 0] on the strided column and X @ w on a
    # contiguous copy round differently here (seen with OpenBLAS 0.3.31).
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1, 35))
    W = rng.standard_normal((35, 2))
    for intercepts in (None, np.array([0.25, -1.5])):
        model = ModelFile([f"f{j}" for j in range(35)], ("c", "r"),
                          ("classification", "regression"), CoefficientMatrix(W, intercepts),
                          None, False, 1.0, 0.0, 0.0)
        for i, kind in enumerate(model.task_kinds):
            b_i = 0.0 if intercepts is None else intercepts[i]
            expected = predict(X, W[:, i], kind, b_i, output="score")
            assert model_scores(model, X, i).tobytes() == expected.tobytes()


def test_model_load_rejects_unknown_version(tmp_path):
    model = _small_model()
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    _write(path, json.dumps(doc))
    with pytest.raises(DataError, match="format version"):
        load_model(path)


def test_malformed_json_is_a_data_error(tmp_path, capsys):
    model = tmp_path / "m.json"
    save_model(_small_model(), model)
    doc = json.loads(model.read_text())
    del doc["standardization"]
    _write(model, json.dumps(doc))
    with pytest.raises(DataError, match="malformed"):
        load_model(model)
    listed = tmp_path / "listed.json"
    _write(listed, "[1, 2]")
    with pytest.raises(DataError, match="JSON object"):
        load_model(listed)
    manifest = tmp_path / "manifest.json"
    for doc in ({"tasks": [1]}, {"tasks": 5}, [{"tasks": []}]):
        _write(manifest, json.dumps(doc))
        with pytest.raises(DataError):
            parse_manifest(manifest)

    data = tmp_path / "d.csv"
    _write(data, "f1,f2,f3\n1,2,3\n")
    for path in (model, listed):
        assert _run(["predict", "--model", path, "--data", data, "--task", "c",
                     "--out-dir", tmp_path / "p"]) == 3
        assert capsys.readouterr().err.startswith("data-error: model file")
    assert _run(["fit", "--manifest", manifest, "--lambda", 1, "--out-dir", tmp_path / "f"]) == 3
    assert capsys.readouterr().err.startswith("data-error: manifest")


def _spoiled(path):
    """Put a 0xff byte, which is not UTF-8, after the first 11 bytes of the
    file path; returns the path as a str."""
    raw = path.read_bytes()
    path.write_bytes(raw[:11] + b"\xff" + raw[11:])
    return str(path)


def test_readers_name_a_file_that_is_not_utf8(tmp_path):
    # A bare UnicodeDecodeError named no file.
    model, manifest, data = tmp_path / "m.json", tmp_path / "manifest.json", tmp_path / "d.csv"
    save_model(_small_model(), model)
    _write(manifest, json.dumps({"tasks": []}))
    _write(data, "f1,f2\n1,2\n")
    for read, path in ((load_model, model), (parse_manifest, manifest), (read_task_csv, data)):
        path = _spoiled(path)
        with pytest.raises(DataError, match=re.escape(f"{path!r} is not valid UTF-8")):
            read(path)


def test_cli_names_an_input_file_that_is_not_utf8(tmp_path, capsys):
    sim = _simulate_dir(tmp_path)
    fit = tmp_path / "fit"
    assert _run(["fit", "--manifest", sim / "train" / "manifest.json", "--lambda", 1,
                 "--out-dir", fit]) == 0
    capsys.readouterr()
    fit_argv = ["fit", "--manifest", "{}/manifest.json", "--lambda", 1]
    predict_argv = ["predict", "--model", "{}/model.json", "--data", "{}/clf01.csv",
                    "--task", "clf01"]
    for i, (spoiled, argv) in enumerate([
        ("manifest.json", fit_argv),
        ("reg01.csv", fit_argv),
        ("model.json", predict_argv),
        ("clf01.csv", predict_argv),
    ]):
        case, out = tmp_path / f"case{i}", tmp_path / f"out{i}"
        shutil.copytree(sim / "train", case)
        shutil.copy(fit / "model.json", case)
        path = _spoiled(case / spoiled)
        assert _run([str(arg).format(case) for arg in argv] + ["--out-dir", out]) == 3, spoiled
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data-error: "), spoiled
        assert f"{path!r} is not valid UTF-8" in err[0], spoiled
        assert not out.exists(), spoiled


# A JSON document's field, its bad value, and the error load_model names.
_BAD_MODEL_VALUES = {
    "nan_lambda": ("lambda", float("nan"), "DataError: lam must be a nonnegative real"),
    "negative_lambda": ("lambda", -1.0, "DataError: lam must be a nonnegative real"),
    "infinite_alpha": ("alpha", float("inf"), "DataError: alpha must be a nonnegative real"),
    "nan_beta": ("beta", float("nan"), "DataError: beta must be a nonnegative real"),
    "text_seed": ("seed", "abc", "DataError: seed must be null or an integer >= 0"),
    "fractional_seed": ("seed", -3.5, "DataError: seed must be null or an integer >= 0"),
    "negative_seed": ("seed", -1, "DataError: seed must be null or an integer >= 0"),
    "boolean_seed": ("seed", True, "DataError: seed must be null or an integer >= 0"),
}


@pytest.mark.parametrize("case", ["ragged_coefficients", "text_lambda", "unknown_kind",
                                  *_BAD_MODEL_VALUES])
def test_model_with_a_bad_value_is_a_malformed_file(tmp_path, capsys, case):
    model = tmp_path / "m.json"
    save_model(_small_model(), model)
    doc = json.loads(model.read_text())
    error = "ValueError: "
    if case == "ragged_coefficients":
        doc["coefficients"][0] = doc["coefficients"][0][:-1]
    elif case == "text_lambda":
        doc["hyperparameters"]["lambda"] = "strong"
    elif case == "unknown_kind":
        doc["tasks"][0]["kind"] = "ranking"
    else:
        field, value, error = _BAD_MODEL_VALUES[case]
        (doc if field == "seed" else doc["hyperparameters"])[field] = value
    _write(model, json.dumps(doc))
    with pytest.raises(DataError, match=r"model file .*m\.json.* is malformed \(" + error):
        load_model(model)
    data = tmp_path / "d.csv"
    _write(data, "f1,f2,f3\n1,2,3\n")
    assert _run(["predict", "--model", model, "--data", data, "--task", "c",
                 "--out-dir", tmp_path / "p"]) == 3
    assert capsys.readouterr().err.startswith("data-error: model file")


def _eval_manifest(tmp_path, c_labels, r_outcomes):
    # Tasks c and r on features f1..f3, as in _small_model.
    rng = np.random.default_rng(8)
    for name, outcomes in (("c", c_labels), ("r", r_outcomes)):
        write_csv(str(tmp_path / f"{name}.csv"), ["f1", "f2", "f3", "y"],
                  [list(rng.standard_normal(3)) + [y] for y in outcomes])
    return _manifest(tmp_path, [
        {"name": "c", "kind": "classification", "data_path": "c.csv", "outcome_column": "y"},
        {"name": "r", "kind": "regression", "data_path": "r.csv", "outcome_column": "y"},
    ])


@pytest.mark.parametrize("case", ["no_task_records", "long_feature_mean", "short_constant_flags"])
def test_model_with_a_bad_standardization_is_a_malformed_file(tmp_path, capsys, case):
    model = tmp_path / "m.json"
    save_model(_small_model(with_standardization=True), model)
    doc = json.loads(model.read_text())
    records = doc["standardization"]["tasks"]
    if case == "no_task_records":
        records.clear()
    elif case == "long_feature_mean":
        records[1]["feature_mean"].append(0.0)
    else:
        records[0]["constant_features"].pop()
    _write(model, json.dumps(doc))
    with pytest.raises(DataError, match=r"model file .*m\.json.* is malformed \(DataError: "):
        load_model(model)
    data = tmp_path / "d.csv"
    _write(data, "f1,f2,f3\n1,2,3\n")
    manifest = _eval_manifest(tmp_path, [1.0, -1.0, 1.0], [0.5, -0.5, 1.5])
    for args in (["predict", "--data", data, "--task", "c"], ["eval", "--manifest", manifest]):
        assert _run(args + ["--model", model, "--out-dir", tmp_path / "o"]) == 3
        assert capsys.readouterr().err.startswith("data-error: model file")


@pytest.mark.parametrize("case", ["null_scale", "null_mean", "text_mean", "list_scale"])
def test_model_with_a_bad_outcome_transform_is_a_malformed_file(tmp_path, capsys, case):
    model = tmp_path / "m.json"
    save_model(_small_model(with_standardization=True), model)
    doc = json.loads(model.read_text())
    record = doc["standardization"]["tasks"][1]  # the regression task r
    assert record["outcome_mean"] is not None and record["outcome_scale"] is not None
    if case == "null_scale":
        record["outcome_scale"] = None
    elif case == "null_mean":
        record["outcome_mean"] = None
    elif case == "text_mean":
        record["outcome_mean"] = "centre"
    else:
        record["outcome_scale"] = [1.0]
    _write(model, json.dumps(doc))
    with pytest.raises(DataError, match=r"model file .*m\.json.* is malformed \("):
        load_model(model)
    data = tmp_path / "d.csv"
    _write(data, "f1,f2,f3\n1,2,3\n")
    manifest = _eval_manifest(tmp_path, [1.0, -1.0, 1.0], [0.5, -0.5, 1.5])
    for args in (["predict", "--data", data, "--task", "r"], ["eval", "--manifest", manifest]):
        assert _run(args + ["--model", model, "--out-dir", tmp_path / "o"]) == 3
        assert capsys.readouterr().err.startswith("data-error: model file")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["one_row_regression", "one_class_classification"])
def test_cli_eval_names_the_task_a_metric_cannot_score(tmp_path, capsys, case):
    model = tmp_path / "m.json"
    save_model(_small_model(), model)
    if case == "one_row_regression":
        manifest, task, reason = _eval_manifest(tmp_path, [1.0, -1.0], [0.5]), "r", "2 samples"
    else:
        manifest, task, reason = _eval_manifest(tmp_path, [1.0, 1.0], [0.5, -0.5]), "c", "AUC"
    assert _run(["eval", "--model", model, "--manifest", manifest,
                 "--out-dir", tmp_path / "e"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data-error: task {task!r}: ") and reason in err, err


@pytest.mark.parametrize("key", ["standardize", "fit_intercept"])
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_manifest_options_must_be_json_booleans(tmp_path, capsys, key, value):
    _write(tmp_path / "a.csv", "f1,y\n1,0.5\n2,-0.5\n")
    tasks = [{"name": "t", "kind": "regression", "data_path": "a.csv", "outcome_column": "y"}]
    man = _manifest(tmp_path, tasks, **{key: value})
    with pytest.raises(DataError, match=f"'{key}' must be true or false, got {value!r}"):
        parse_manifest(man)
    out = tmp_path / "fit"
    assert _run(["fit", "--manifest", man, "--lambda", 0.1, "--out-dir", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data-error: manifest") and repr(key) in err, err
    assert not (out / "model.json").exists()
    # JSON true and false, and an absent key, are the accepted spellings.
    for flag in (True, False):
        assert getattr(parse_manifest(_manifest(tmp_path, tasks, **{key: flag})), key) is flag
    _write(tmp_path / "bare.json", json.dumps({"tasks": tasks}))
    assert getattr(parse_manifest(tmp_path / "bare.json"), key) is False


def test_model_standardization_applies_at_predict_time():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 4)) * 3.0 + 2.0
    y = rng.standard_normal(30)
    problem = MtlProblem((TaskDataset(X, y, "regression", "r"),))
    std_problem, record = standardize(problem, standardize_regression_outcomes=True)
    W = rng.standard_normal((4, 1))
    model = ModelFile(
        feature_names=("a", "b", "c", "d"),
        task_names=("r",),
        task_kinds=("regression",),
        coef=CoefficientMatrix(W),
        standardization=record,
        standardize_outcomes=True,
        lam=0.1, alpha=0.0, beta=0.0,
    )
    raw_scores = model_scores(model, X, 0)
    npt.assert_allclose(raw_scores, std_problem.tasks[0].X @ W[:, 0], atol=1e-10)


# ---------------------------------------------------------------------------
# CLI


def _run(args):
    return main([str(a) for a in args])


def _simulate_dir(tmp_path, name="sim", seed=3):
    out = tmp_path / name
    code = _run([
        "simulate", "--p", 25, "--t-classification", 2, "--t-regression", 2,
        "--n-per-task", 40, "--seed", seed, "--out-dir", out,
    ])
    assert code == 0
    return out


def test_cli_simulate_outputs(tmp_path):
    out = _simulate_dir(tmp_path)
    assert (out / "true_support.csv").exists()
    assert (out / "runlog.json").exists()
    problem, features, _ = load_problem(out / "train" / "manifest.json")
    assert problem.t == 4 and problem.p == 25
    assert len(features) == 25
    test_problem, _, _ = load_problem(out / "test" / "manifest.json")
    assert test_problem.t == 4
    runlog = json.loads((out / "runlog.json").read_text())
    assert runlog["command"] == "simulate"
    assert runlog["config"]["seed"] == 3


def test_cli_fit_at_lam_max_gives_zero_model(tmp_path):
    sim = _simulate_dir(tmp_path)
    path_dir = tmp_path / "path"
    assert _run([
        "path", "--manifest", sim / "train" / "manifest.json",
        "--n-lambda", 2, "--ratio", 0.5, "--out-dir", path_dir,
    ]) == 0
    lines = (path_dir / "path.csv").read_text().splitlines()
    assert lines[0] == "lambda,objective,nonzero_rows"
    lam_top = lines[1].split(",")[0]
    assert lines[1].split(",")[2] == "0"

    fit_dir = tmp_path / "fit"
    assert _run([
        "fit", "--manifest", sim / "train" / "manifest.json",
        "--lambda", lam_top, "--out-dir", fit_dir,
    ]) == 0
    model = load_model(fit_dir / "model.json")
    npt.assert_array_equal(model.coef.W, np.zeros((25, 4)))


def test_cli_cv_fit_eval_pipeline(tmp_path):
    sim = _simulate_dir(tmp_path)
    cv_dir = tmp_path / "cv"
    assert _run([
        "cv", "--manifest", sim / "train" / "manifest.json",
        "--k", 3, "--seed", 0, "--n-lambda", 15, "--out-dir", cv_dir,
    ]) == 0
    best = (cv_dir / "best_lambda.txt").read_text().strip()
    cv_lines = (cv_dir / "cv.csv").read_text().splitlines()
    assert cv_lines[0] == "lambda,mean_error,se_error"
    assert len(cv_lines) == 16

    fit_dir = tmp_path / "fit"
    assert _run([
        "fit", "--manifest", sim / "train" / "manifest.json",
        "--lambda", best, "--out-dir", fit_dir,
    ]) == 0

    eval_dir = tmp_path / "eval"
    assert _run([
        "eval", "--model", fit_dir / "model.json",
        "--manifest", sim / "test" / "manifest.json", "--out-dir", eval_dir,
    ]) == 0
    rows = [line.split(",") for line in (eval_dir / "eval.csv").read_text().splitlines()[1:]]
    by_metric = {}
    for name, kind, metric, value in rows:
        by_metric.setdefault(metric, []).append(float(value))
    assert all(v > 0.5 for v in by_metric["auc"])  # strong simulated signal
    assert all(np.isfinite(v) for v in by_metric["explained_variance"])


def test_cli_predict_zero_model_gives_half_probability(tmp_path):
    sim = _simulate_dir(tmp_path)
    path_dir = tmp_path / "p"
    _run(["path", "--manifest", sim / "train" / "manifest.json",
          "--n-lambda", 2, "--ratio", 0.5, "--out-dir", path_dir])
    lam_top = (path_dir / "path.csv").read_text().splitlines()[1].split(",")[0]
    fit_dir = tmp_path / "fit"
    _run(["fit", "--manifest", sim / "train" / "manifest.json",
          "--lambda", lam_top, "--out-dir", fit_dir])
    pred_dir = tmp_path / "pred"
    assert _run([
        "predict", "--model", fit_dir / "model.json",
        "--data", sim / "test" / "clf01.csv", "--task", "clf01", "--out-dir", pred_dir,
    ]) == 0
    lines = (pred_dir / "predictions.csv").read_text().splitlines()
    assert lines[0] == "score,probability,label"
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert probs and all(p == 0.5 for p in probs)


def test_cli_predict_data_errors(tmp_path):
    sim = _simulate_dir(tmp_path)
    path_dir = tmp_path / "p"
    _run(["path", "--manifest", sim / "train" / "manifest.json",
          "--n-lambda", 2, "--ratio", 0.5, "--out-dir", path_dir])
    lam_top = (path_dir / "path.csv").read_text().splitlines()[1].split(",")[0]
    fit_dir = tmp_path / "fit"
    _run(["fit", "--manifest", sim / "train" / "manifest.json",
          "--lambda", lam_top, "--out-dir", fit_dir])

    # unknown task name
    assert _run(["predict", "--model", fit_dir / "model.json",
                 "--data", sim / "test" / "clf01.csv", "--task", "nope",
                 "--out-dir", tmp_path / "o1"]) == 3

    # data file missing model features
    _write(tmp_path / "narrow.csv", "x01,y\n1,0.5\n")
    assert _run(["predict", "--model", fit_dir / "model.json",
                 "--data", tmp_path / "narrow.csv", "--task", "clf01",
                 "--out-dir", tmp_path / "o2"]) == 3


def test_cli_eval_standardized_model_on_raw_data(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 3)) * 5.0 + 3.0
    w = np.array([1.0, -2.0, 0.5])
    y = X @ w + 0.1 * rng.standard_normal(40)
    labels = np.where(X @ w - np.mean(X @ w) > 0, 1.0, -1.0)

    def write_task(path, outcomes):
        write_csv(path, ["f1", "f2", "f3", "y"],
                  [list(X[r]) + [outcomes[r]] for r in range(40)])

    write_task(tmp_path / "r.csv", y)
    write_task(tmp_path / "c.csv", labels)
    manifest = _manifest(
        tmp_path,
        [
            {"name": "c", "kind": "classification", "data_path": "c.csv", "outcome_column": "y"},
            {"name": "r", "kind": "regression", "data_path": "r.csv", "outcome_column": "y"},
        ],
        standardize=True,
    )
    fit_dir = tmp_path / "fit"
    assert _run(["fit", "--manifest", manifest, "--lambda", 0.01, "--out-dir", fit_dir]) == 0
    eval_dir = tmp_path / "eval"
    assert _run(["eval", "--model", fit_dir / "model.json", "--manifest", manifest,
                 "--out-dir", eval_dir]) == 0

    # Independent evaluation on pre-standardized data must agree to 1e-10.
    model = load_model(fit_dir / "model.json")
    problem, _, _ = load_problem(manifest)
    std_problem, record = standardize(problem, standardize_regression_outcomes=True)
    reported = {
        line.split(",")[0]: float(line.split(",")[3])
        for line in (eval_dir / "eval.csv").read_text().splitlines()[1:]
    }
    clf_idx, reg_idx = 0, 1
    scores_std = std_problem.tasks[clf_idx].X @ model.coef.W[:, clf_idx]
    assert reported["c"] == pytest.approx(auc(scores_std, std_problem.tasks[clf_idx].y), abs=1e-10)
    pred_std = std_problem.tasks[reg_idx].X @ model.coef.W[:, reg_idx]
    assert reported["r"] == pytest.approx(
        explained_variance(pred_std, std_problem.tasks[reg_idx].y), abs=1e-10
    )


def test_cli_pipeline_with_intercepts_and_standardization(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 4)) * 2.0 + 7.0  # offset features need the intercept
    w = np.array([1.5, -1.0, 0.0, 0.0])
    y = X @ w + 4.0 + 0.2 * rng.standard_normal(50)
    labels = np.where(X @ w - np.median(X @ w) > 0, 1.0, -1.0)

    def dump(path, outcome):
        write_csv(path, ["f1", "f2", "f3", "f4", "y"],
                  [list(X[r]) + [outcome[r]] for r in range(50)])

    dump(tmp_path / "c.csv", labels)
    dump(tmp_path / "r.csv", y)
    manifest = _manifest(
        tmp_path,
        [
            {"name": "c", "kind": "classification", "data_path": "c.csv", "outcome_column": "y"},
            {"name": "r", "kind": "regression", "data_path": "r.csv", "outcome_column": "y"},
        ],
        standardize=True,
        fit_intercept=True,
    )
    cv_dir = tmp_path / "cv"
    assert _run(["cv", "--manifest", manifest, "--k", 4, "--seed", 0,
                 "--n-lambda", 12, "--out-dir", cv_dir]) == 0
    best = (cv_dir / "best_lambda.txt").read_text().strip()
    fit_dir = tmp_path / "fit"
    assert _run(["fit", "--manifest", manifest, "--lambda", best,
                 "--out-dir", fit_dir]) == 0
    model = load_model(fit_dir / "model.json")
    assert model.coef.intercepts is not None and model.standardization is not None

    eval_dir = tmp_path / "eval"
    assert _run(["eval", "--model", fit_dir / "model.json", "--manifest", manifest,
                 "--out-dir", eval_dir]) == 0
    metrics = {
        line.split(",")[0]: float(line.split(",")[3])
        for line in (eval_dir / "eval.csv").read_text().splitlines()[1:]
    }
    assert metrics["c"] > 0.9  # in-sample, strong signal
    assert metrics["r"] > 0.9

    # raw-scale regression predictions must sit near the raw outcomes
    pred_dir = tmp_path / "pred"
    assert _run(["predict", "--model", fit_dir / "model.json", "--data",
                 tmp_path / "r.csv", "--task", "r", "--out-dir", pred_dir]) == 0
    lines = (pred_dir / "predictions.csv").read_text().splitlines()
    assert lines[0] == "score,prediction"
    preds = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert explained_variance(preds, y) > 0.9


def test_cli_full_pipeline_is_byte_identical(tmp_path):
    def pipeline(root):
        sim = root / "sim"
        _run(["simulate", "--p", 20, "--t-classification", 1, "--t-regression", 1,
              "--n-per-task", 30, "--seed", 9, "--out-dir", sim])
        cv_dir = root / "cv"
        _run(["cv", "--manifest", sim / "train" / "manifest.json", "--k", 3,
              "--seed", 1, "--n-lambda", 8, "--out-dir", cv_dir])
        best = (cv_dir / "best_lambda.txt").read_text().strip()
        fit_dir = root / "fit"
        _run(["fit", "--manifest", sim / "train" / "manifest.json", "--lambda", best,
              "--out-dir", fit_dir])
        eval_dir = root / "eval"
        _run(["eval", "--model", fit_dir / "model.json",
              "--manifest", sim / "test" / "manifest.json", "--out-dir", eval_dir])
        return root

    a = pipeline(tmp_path / "a")
    b = pipeline(tmp_path / "b")
    files_a = sorted(
        os.path.relpath(os.path.join(d, f), a)
        for d, _, fs in os.walk(a) for f in fs
    )
    files_b = sorted(
        os.path.relpath(os.path.join(d, f), b)
        for d, _, fs in os.walk(b) for f in fs
    )
    assert files_a == files_b
    for rel in files_a:
        if rel.endswith("runlog.json"):
            continue  # contains the differing --out-dir paths
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


# ---------------------------------------------------------------------------
# CSV files on worker processes


def _pool_calls(monkeypatch, pooled):
    """Read and write every CSV batch on a two-worker pool (pooled) or in this
    process; returns the worker counts of the pools made."""
    monkeypatch.setattr(modelio, "_POOL_MIN_BYTES", 0 if pooled else float("inf"))
    return pool_workers(monkeypatch, 2)


def _tree(root):
    """Relative path -> bytes of every file under root."""
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, root)] = fh.read()
    return files


def test_pooled_csv_writes_are_byte_identical(tmp_path, monkeypatch):
    trees = {}
    for pooled in (False, True):
        made = _pool_calls(monkeypatch, pooled)
        out = tmp_path / "o"
        sim = _simulate_dir(out)
        assert _run(["path", "--manifest", sim / "train" / "manifest.json", "--n-lambda", 3,
                     "--save-coefficients", "--out-dir", out / "path"]) == 0
        # simulate's task files and the path's read; coefficient files are
        # written here
        assert made == ([2, 2] if pooled else [])
        assert multiprocessing.active_children() == []
        trees[pooled] = _tree(out)
        monkeypatch.undo()
        shutil.rmtree(out)
    # simulate: 2 splits of 4 tasks and a manifest, the support and a runlog;
    # path: its table, 3 coefficient files and a runlog
    assert len(trees[True]) == 2 * (4 + 1) + 2 + 1 + 3 + 1
    assert trees[True] == trees[False]


def test_pooled_load_problem_equals_in_process_load(tmp_path, monkeypatch):
    sim = _simulate_dir(tmp_path)
    # Columns out of order, and a classification task after a regression one.
    rng = np.random.default_rng(5)
    write_csv(tmp_path / "extra.csv", ["y"] + [f"x{j:02d}" for j in range(25, 0, -1)],
              np.column_stack([rng.integers(0, 2, 7), rng.standard_normal((7, 25))]))
    man = _manifest(tmp_path, [
        {"name": "reg01", "kind": "regression", "data_path": str(sim / "train" / "reg01.csv"),
         "outcome_column": "y"},
        {"name": "clf01", "kind": "classification",
         "data_path": str(sim / "train" / "clf01.csv"), "outcome_column": "y"},
        {"name": "extra", "kind": "classification", "data_path": "extra.csv",
         "outcome_column": "y"},
        {"name": "clf02", "kind": "classification",
         "data_path": str(sim / "train" / "clf02.csv"), "outcome_column": "y"},
    ])
    loaded = {}
    for pooled in (False, True):
        made = _pool_calls(monkeypatch, pooled)
        loaded[pooled] = load_problem(man)
        assert made == ([2] if pooled else [])
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
    (serial, names, _), (pooled, pooled_names, _) = loaded[False], loaded[True]
    assert pooled_names == names
    assert [t.name for t in pooled.tasks] == ["clf01", "extra", "clf02", "reg01"]
    for a, b in zip(serial.tasks, pooled.tasks):
        assert (a.name, a.kind) == (b.name, b.kind)
        assert a.X.tobytes("A") == b.X.tobytes("A") and a.y.tobytes() == b.y.tobytes()
        assert a.X.strides == b.X.strides and a.X.flags.f_contiguous
    assert [s.strides for s in pooled._stacks] == [s.strides for s in serial._stacks]


@pytest.mark.parametrize("case", ["second_of_two_malformed", "outcome_before_malformed"])
def test_pooled_load_problem_raises_the_first_error_in_manifest_order(
    tmp_path, monkeypatch, case
):
    good = "f1,f2,y\n1,2,0.5\n3,4,1.5\n"
    files = [good, good, good, good]
    if case == "second_of_two_malformed":
        files[1] = "f1,f2,y\n1,2,0.5\n3,oops,1.5\n"
        files[3] = "f1,f2,y\n1,2\n"
        message = "row 3, column 'f2': non-numeric cell 'oops'"
    else:
        files[0] = "f1,f2,z\n1,2,0.5\n3,4,1.5\n"
        files[2] = "f1,f2,y\n1,2,\n"
        message = "task 't0': outcome column 'y' not in"
    for i, text in enumerate(files):
        _write(tmp_path / f"t{i}.csv", text)
    man = _manifest(tmp_path, [
        {"name": f"t{i}", "kind": "regression", "data_path": f"t{i}.csv", "outcome_column": "y"}
        for i in range(len(files))
    ])
    for pooled in (False, True):
        made = _pool_calls(monkeypatch, pooled)
        read = []
        if not pooled:
            # In this process the read stops at the first bad file.
            monkeypatch.setattr(
                modelio, "read_task_csv", lambda path: read.append(path) or read_task_csv(path)
            )
        with pytest.raises(DataError, match=message):
            load_problem(man)
        assert made == ([2] if pooled else [])
        assert len(read) == (0 if pooled else 2 if case == "second_of_two_malformed" else 1)
        assert multiprocessing.active_children() == []
        monkeypatch.undo()


def _load_arrays(manifest_path):
    problem, names, _ = load_problem(manifest_path)
    return names, [(t.name, t.X.tobytes("A"), t.X.strides, t.y.tobytes()) for t in problem.tasks]


def test_pooled_load_problem_runs_in_process_inside_a_daemonic_worker(tmp_path, monkeypatch):
    sim = _simulate_dir(tmp_path)
    man = sim / "train" / "manifest.json"
    expected = _load_arrays(man)
    made = _pool_calls(monkeypatch, True)
    # A multiprocessing.Pool worker is daemonic and may not fork workers of its
    # own; the patches above reach it through the fork.
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        assert pool.apply(_load_arrays, (man,)) == expected
    finally:
        pool.close()
        pool.join()
    assert made == []
    assert multiprocessing.active_children() == []


def test_simulate_writes_no_manifest_when_a_task_file_fails(tmp_path, monkeypatch, capsys):
    real_write_csv = modelio.write_csv

    def failing_write_csv(path, header, rows):
        if os.path.basename(path) == "reg01.csv" and "test" in str(path):
            raise OSError(28, "No space left on device")
        real_write_csv(path, header, rows)

    monkeypatch.setattr(modelio, "write_csv", failing_write_csv)
    out = tmp_path / "sim"
    assert _run(["simulate", "--p", 5, "--t-classification", 1, "--t-regression", 1,
                 "--n-per-task", 10, "--out-dir", out]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert not (out / "train" / "manifest.json").exists()
    assert not (out / "test" / "manifest.json").exists()
    assert not out.exists()


def test_path_leaves_no_out_dir_when_a_coefficient_file_fails(tmp_path, monkeypatch, capsys):
    # Every command's --out-dir follows one rule: a directory the failed
    # command made is removed, with all in it; one that existed stays.
    sim = _simulate_dir(tmp_path)
    real_write_csv = cli.write_csv

    def failing_write_csv(path, header, rows):
        if os.path.basename(path) == "lambda_0002.csv":
            raise failure
        real_write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", failing_write_csv)
    argv = ["path", "--manifest", sim / "train" / "manifest.json", "--n-lambda", 4,
            "--save-coefficients", "--out-dir"]
    out = tmp_path / "made" / "path"
    failure = OSError(28, "No space left on device")
    assert _run(argv + [out]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert not (tmp_path / "made").exists()
    failure = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        _run(argv + [out])
    assert not (tmp_path / "made").exists()
    failure = OSError(28, "No space left on device")
    (tmp_path / "kept").mkdir()
    assert _run(argv + [tmp_path / "kept"]) == 3
    assert sorted(os.listdir(tmp_path / "kept" / "coefficients")) == [
        "lambda_0000.csv", "lambda_0001.csv"]


def test_cli_path_save_coefficients(tmp_path):
    rng = np.random.default_rng(7)
    # Columns out of canonical order, and the regression task listed first.
    rows_c = [[*x, y] for x, y in zip(rng.standard_normal((12, 3)), [1, -1] * 6)]
    rows_r = [[*x, y] for x, y in zip(rng.standard_normal((10, 3)), rng.standard_normal(10))]
    write_csv(tmp_path / "c.csv", ["b", "y", "a", "c"], [[r[1], r[3], r[0], r[2]] for r in rows_c])
    write_csv(tmp_path / "r.csv", ["c", "a", "b", "y"], [[r[2], r[0], r[1], r[3]] for r in rows_r])
    man = _manifest(tmp_path, [
        {"name": "reg", "kind": "regression", "data_path": "r.csv", "outcome_column": "y"},
        {"name": "clf", "kind": "classification", "data_path": "c.csv", "outcome_column": "y"},
    ], fit_intercept=True)
    argv = ["path", "--manifest", man, "--n-lambda", 4, "--ratio", 0.05, "--save-coefficients"]
    assert _run(argv + ["--out-dir", tmp_path / "o1"]) == 0
    assert _run(argv + ["--out-dir", tmp_path / "o2"]) == 0

    problem, features, _ = load_problem(man)
    assert features == ["a", "b", "c"]
    sequence = lambda_sequence(lam_max(problem, fit_intercept=True), ratio=0.05, n=4)
    path = reg_path(problem, sequence, opts=path_options(fit_intercept=True))
    coef_dir = tmp_path / "o1" / "coefficients"
    assert sorted(os.listdir(coef_dir)) == [f"lambda_{i:04d}.csv" for i in range(4)]
    for i, fit in enumerate(path.fits):
        name = f"lambda_{i:04d}.csv"
        text = (coef_dir / name).read_text()
        assert text == (tmp_path / "o2" / "coefficients" / name).read_text()
        lines = [line.split(",") for line in text.splitlines()]
        assert lines[0] == ["feature", "clf", "reg"]
        assert [line[0] for line in lines[1:]] == ["a", "b", "c", "(intercept)"]
        values = np.array([[float(cell) for cell in line[1:]] for line in lines[1:]])
        npt.assert_array_equal(values[:3], fit.coef.W)
        npt.assert_array_equal(values[3], fit.coef.intercepts)


def test_cli_path_reads_each_fit_once(tmp_path, monkeypatch):
    # A path's fits are built when read: cmd_path writes each point's
    # path.csv row and coefficient file from one read, and a zero
    # coefficient is written as 0, never -0.
    sim = _simulate_dir(tmp_path)
    reads = []
    fit_result = regpath._fit_result
    monkeypatch.setattr(regpath, "_fit_result", lambda *args: reads.append(1) or fit_result(*args))
    out = tmp_path / "path"
    assert _run([
        "path", "--manifest", sim / "train" / "manifest.json", "--n-lambda", 5,
        "--ratio", 0.05, "--save-coefficients", "--out-dir", out,
    ]) == 0
    assert len(reads) == 5
    assert len((out / "path.csv").read_text().splitlines()) == 6
    cells = [cell for name in sorted(os.listdir(out / "coefficients"))
             for line in (out / "coefficients" / name).read_text().splitlines()
             for cell in line.split(",")]
    assert "0" in cells and "-0" not in cells


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # usage: unknown flag (argparse) and bad bench method
    assert _run(["fit", "--nope"]) == 2
    assert _run(["bench", "--methods", "banana", "--out-dir", tmp_path / "b"]) == 2
    assert "usage-error" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    # an empty --methods list is a usage error too
    assert _run(["bench", "--methods", ",", "--out-dir", tmp_path / "b"]) == 2
    assert capsys.readouterr().err.startswith("usage-error: --methods must be non-empty, got []")
    assert not (tmp_path / "b").exists()

    # usage: out-of-range flag values, rejected before any file is read
    gone = tmp_path / "gone.json"
    for argv, message in [
        (["cv", "--k", 1], "--k must be >= 2, got 1"),
        (["cv", "--n-lambda", 0], "--n-lambda must be >= 1, got 0"),
        (["cv", "--alpha", -0.5], "--alpha must be a nonnegative real, got -0.5"),
        (["path", "--n-lambda", 1], "--n-lambda must be >= 2, got 1"),
        (["path", "--beta", "inf"], "--beta must be a nonnegative real, got inf"),
        (["fit", "--lambda", -1], "--lambda must be a nonnegative real, got -1.0"),
        (["fit", "--lambda", "nan"], "--lambda must be a nonnegative real, got nan"),
        (["fit", "--lambda", 1, "--alpha", -1], "--alpha must be a nonnegative real"),
        (["path", "--ratio", 1.5], "--ratio must lie in (0, 1), got 1.5"),
        (["cv", "--ratio", 0], "--ratio must lie in (0, 1), got 0.0"),
        (["fit", "--lambda", 1, "--tol", 0], "--tol must be positive"),
        (["fit", "--lambda", 1, "--max-iter", 0], "--max-iter must be >= 1"),
        (["fit", "--lambda", 1, "--l0", -1], "--l0 must be positive"),
        (["fit", "--lambda", 1, "--tol", "inf"], "--tol must be positive and finite"),
        (["path", "--l0", "inf"], "--l0 must be positive and finite"),
        (["bench", "--lambda-ratio", 2], "--lambda-ratio must lie in (0, 1), got 2.0"),
        (["simulate", "--sparsity", 1.5], "--sparsity must lie in (0, 1)"),
        (["simulate", "--p", 0], "--p must be >= 1"),
        (["simulate", "--t-classification", 0, "--t-regression", 0],
         "--t-regression: at least one task is required"),
        (["simulate", "--seed", -1], "--seed must be nonnegative"),
        (["cv", "--seed", -1], "--seed must be nonnegative"),
        (["simulate", "--noise-scale", "nan"], "--noise-scale must be nonnegative and finite"),
        (["simulate", "--noise-scale", "inf"], "--noise-scale must be nonnegative and finite"),
        (["bench", "--noise-scale", "inf"], "--noise-scale must be nonnegative and finite"),
        (["bench", "--methods", "mtlcomb,banana"], "--methods must be among"),
        (["bench", "--ratios", "0.1,1.5"], "--ratios must be non-empty and lie in (0, 1], got"),
        (["bench", "--ratios", ","], "--ratios must be non-empty"),
        (["bench", "--seeds", ""], "--seeds must be non-empty"),
        (["bench", "--seeds=-1"], "--seeds must be non-empty and nonnegative, got [-1]"),
        (["bench", "--seeds", "2,-3"], "--seeds must be non-empty and nonnegative, got [2, -3]"),
        (["bench", "--seeds", "1.5"], "could not parse --ratios/--seeds"),
        (["bench", "--p", 20, "--ratios", 0.01, "--seeds", 1],
         "--ratios must give round(ratio * p) >= k=5 at p=20, got [0.01]"),
        (["bench", "--p", 20, "--ratios", 0.1, "--k", 5],
         "--ratios must give round(ratio * p) >= k=5 at p=20, got [0.1]"),
        (["bench", "--p", 20, "--sparsity", 0.99, "--ratios", 0.5, "--seeds", 1],
         "--sparsity must give round((1 - sparsity) * p) >= 1 at p=20, got 0.99"),
    ]:
        manifest = [] if argv[0] in ("bench", "simulate") else ["--manifest", gone]
        assert _run(argv[:1] + manifest + argv[1:] + ["--out-dir", tmp_path / "u"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage-error: {message}"), (argv, err)
    for argv in (["--k", 1], ["--n-lambda", 0], ["--beta", -1]):
        assert _run(["bench", *argv, "--out-dir", tmp_path / "u"]) == 2, argv
        assert capsys.readouterr().err.startswith("usage-error: "), argv
    assert not (tmp_path / "u").exists()

    # data error: a fold leaves a task with a single class; no --out-dir is left
    single_class = ["bench", "--p", 20, "--t-classification", 1, "--t-regression", 1,
                    "--ratios", 0.25, "--k", 5, "--seeds", 1, "--n-lambda", 3,
                    "--methods", "mtlcomb", "--out-dir"]
    assert _run(single_class + [tmp_path / "d"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data-error: fold 4 leaves task 'clf01' with a single class"), err
    assert not (tmp_path / "d").exists()
    # the same in a worker pool: seed 8's cell fails at fold 0, but seed 1's comes first
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    pooled = single_class[:-1] + ["--seeds", "1,8,2", "--out-dir", tmp_path / "d"]
    assert _run(pooled) == 3
    err = capsys.readouterr().err
    assert err.startswith("data-error: fold 4 leaves task 'clf01' with a single class"), err
    assert not (tmp_path / "d").exists()
    assert multiprocessing.active_children() == []
    # every directory it made goes, leaf first; one that existed stays
    assert _run(single_class + [tmp_path / "n1" / "n2" / "n3"]) == 3
    assert capsys.readouterr().err.startswith("data-error: fold 4")
    assert not (tmp_path / "n1").exists()
    (tmp_path / "kept").mkdir()
    assert _run(single_class + [tmp_path / "kept" / "n2" / "n3"]) == 3
    assert capsys.readouterr().err.startswith("data-error: fold 4")
    assert os.listdir(tmp_path / "kept") == []
    # an --out-dir that is a file fails before any cell runs, and stays a file
    _write(tmp_path / "f", "kept\n")
    assert _run(single_class + [tmp_path / "f"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data-error: [Errno 17] File exists"), err
    assert (tmp_path / "f").read_text() == "kept\n"

    # cross-validation keeps its one-point grid
    sim = _simulate_dir(tmp_path)
    assert _run(["cv", "--manifest", sim / "train" / "manifest.json", "--k", 2,
                 "--n-lambda", 1, "--out-dir", tmp_path / "cv1"]) == 0
    assert len((tmp_path / "cv1" / "cv.csv").read_text().splitlines()) == 2
    # simulate keeps accepting a spec with no true support row
    assert _run(["simulate", "--p", 5, "--t-classification", 1, "--t-regression", 1,
                 "--n-per-task", 4, "--out-dir", tmp_path / "s5"]) == 0
    assert (tmp_path / "s5" / "true_support.csv").read_text() == "feature,row\n"

    # data error: eval data whose features or task kinds differ from the model's
    assert _run(["fit", "--manifest", sim / "train" / "manifest.json", "--lambda", 1.0,
                 "--out-dir", tmp_path / "m"]) == 0
    model = tmp_path / "m" / "model.json"
    _write(tmp_path / "other.csv", "x01,z,y\n1,2,1\n3,4,-1\n")
    clf01 = str(sim / "test" / "clf01.csv")
    for data_path, kind, message in [
        ("other.csv", "classification",
         "data-error: evaluation data features do not match the model's features"),
        (clf01, "regression", "data-error: task 'clf01': kind differs between model and data"),
    ]:
        man = _manifest(tmp_path, [{"name": "clf01", "kind": kind, "data_path": data_path,
                                    "outcome_column": "y"}], name="eval.json")
        assert _run(["eval", "--model", model, "--manifest", man,
                     "--out-dir", tmp_path / "e"]) == 3, kind
        assert capsys.readouterr().err.startswith(message), kind

    # data error: missing manifest
    assert _run(["fit", "--manifest", tmp_path / "gone.json", "--lambda", 1.0,
                 "--out-dir", tmp_path / "f"]) == 3
    assert "data-error" in capsys.readouterr().err

    # numerical error: squared loss overflows on huge outcomes
    _write(tmp_path / "huge.csv", "f1,y\n1,1e200\n2,-1e200\n")
    man = _manifest(
        tmp_path,
        [{"name": "t", "kind": "regression", "data_path": "huge.csv", "outcome_column": "y"}],
        name="huge.json",
    )
    with np.errstate(over="ignore"):
        assert _run(["fit", "--manifest", man, "--lambda", 0.1,
                     "--out-dir", tmp_path / "n"]) == 4
    assert "numerical-error" in capsys.readouterr().err

    # data error in a manifest, data file or model: no --out-dir is left
    entries = [{"name": "clf01", "kind": "classification", "data_path": clf01,
                "outcome_column": "y"}]
    bad = _manifest(tmp_path, entries, standardize="false", name="bad.json")
    train = sim / "train" / "manifest.json"
    for argv, message in [
        (["fit", "--manifest", bad, "--lambda", 1.0], "data-error: "),
        (["path", "--manifest", bad], "data-error: "),
        (["cv", "--manifest", bad], "data-error: "),
        (["eval", "--model", model, "--manifest", bad], "data-error: "),
        (["predict", "--model", model, "--data", tmp_path / "gone.csv", "--task", "clf01"],
         "data-error: "),
        (["predict", "--model", tmp_path / "gone.json", "--data", clf01, "--task", "clf01"],
         "data-error: "),
        (["cv", "--manifest", train, "--k", 50], "data-error: task 'clf01': 40 samples"),
    ]:
        assert _run(argv + ["--out-dir", tmp_path / "x"]) == 3, argv
        assert capsys.readouterr().err.startswith(message), argv
        assert not (tmp_path / "x").exists(), argv


def test_cli_numerical_error_is_its_one_stderr_line(tmp_path, capsys):
    # The squared loss overflows on huge outcomes: numpy warns of nothing,
    # and the documented error line is all the command prints.
    _write(tmp_path / "huge.csv", "f1,y\n1,1e200\n2,-1e200\n")
    man = _manifest(tmp_path, [{"name": "t", "kind": "regression", "data_path": "huge.csv",
                                "outcome_column": "y"}])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(["fit", "--manifest", man, "--lambda", 0.1,
                     "--out-dir", tmp_path / "n"]) == 4
    assert caught == []
    assert capsys.readouterr().err.splitlines() == [
        "numerical-error: objective is non-finite at the initial point"
    ]
    assert not (tmp_path / "n").exists()


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_cli_rejects_penalty_weights_whose_double_overflows(tmp_path, capsys, flag):
    # 2 * 1e308 is inf, the gradient's factor: one usage error, before any
    # file is read or --out-dir is made.
    train = _simulate_dir(tmp_path) / "train" / "manifest.json"
    capsys.readouterr()
    for argv in (["fit", "--lambda", 0.1], ["path"], ["cv"]):
        out = tmp_path / argv[0]
        assert _run(argv + ["--manifest", train, flag, "1e308", "--out-dir", out]) == 2, argv
        assert capsys.readouterr().err.splitlines() == [
            f"usage-error: {flag} must be at most half the largest float, got 1e+308"
        ], argv
        assert not out.exists(), argv


def test_cli_bench_writes_table(tmp_path):
    out = tmp_path / "bench"
    assert _run([
        "bench", "--p", 20, "--t-classification", 1, "--t-regression", 1,
        "--sparsity", 0.8, "--methods", "mtlcomb,mtlbin", "--ratios", "0.8",
        "--seeds", "1,2", "--k", 2, "--n-lambda", 5, "--out-dir", out,
    ]) == 0
    lines = (out / "benchmark.csv").read_text().splitlines()
    assert lines[0] == (
        "method,ratio,seed-count,mean_recovery,mean_ev_regression,"
        "mean_pseudo_ev_classification"
    )
    assert len(lines) == 3
    assert lines[1].startswith("mtlcomb,") and lines[2].startswith("mtlbin,")


# Per command, what its flags default from and are passed to by name: the
# library calls, and the solver options it fits with.
_FLAG_SOURCES = {
    "simulate": [SimulationSpec],
    "fit": [Hyperparameters, SolverOptions()],
    "path": [lambda_sequence, reg_path, path_options()],
    "cv": [cross_validate, path_options()],
    "predict": [],
    "eval": [],
    "bench": [SimulationSpec, run_benchmark],
}
# Flags whose name is not their parameter's, lists, switches, and files.
_EXPLICIT_FLAGS = {"l0", "methods", "ratios", "seeds", "one_se", "save_coefficients",
                   "manifest", "model", "data", "task", "out_dir"}
_REQUIRED_FLAGS = {
    "fit": ["--manifest", "m", "--lambda", "1"],
    "path": ["--manifest", "m"],
    "cv": ["--manifest", "m"],
    "predict": ["--model", "m", "--data", "d", "--task", "t"],
    "eval": ["--model", "m", "--manifest", "m"],
}


def _library_defaults(source) -> dict:
    if callable(source):
        return {name: param.default for name, param in inspect.signature(source).parameters.items()}
    return vars(source)


def test_every_cli_flag_is_a_library_parameter_with_its_default():
    # The CLI passes each flag to the library by its dest: a flag that no
    # call takes, or a parameter renamed in the library, fails here instead
    # of being ignored.
    for command, sources in _FLAG_SOURCES.items():
        argv = [command, *_REQUIRED_FLAGS.get(command, []), "--out-dir", "o"]
        parsed = vars(build_parser().parse_args(argv))
        defaults = [_library_defaults(source) for source in sources]
        for dest, value in parsed.items():
            if dest in ("command", "func") or dest in _EXPLICIT_FLAGS:
                continue
            if (command, dest) == ("path", "n_lambda"):  # lambda_sequence's n
                assert value == _library_defaults(lambda_sequence)["n"]
                continue
            library = [found[dest] for found in defaults if dest in found]
            assert library, (command, dest)
            for default in library:
                if default is not inspect.Parameter.empty:
                    assert value == default and type(value) is type(default), (command, dest)
        if "l0" in parsed:
            assert parsed["l0"] == sources[-1].L0
    bench = vars(build_parser().parse_args(["bench", "--out-dir", "o"]))
    for name in ("methods", "ratios", "seeds"):
        assert bench[name] == ",".join(map(str, _library_defaults(run_benchmark)[name]))


def _recorded(monkeypatch, name) -> list:
    """The arguments of each call the CLI makes to its library function name."""
    calls, original = [], getattr(cli, name)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        calls.append(inspect.signature(original).bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)
    return calls


def test_cli_flags_reach_their_library_parameters(tmp_path, monkeypatch):
    # Every numeric flag at a value other than its default.
    train = _simulate_dir(tmp_path) / "train" / "manifest.json"
    calls = _recorded(monkeypatch, "cross_validate")
    assert _run(["cv", "--manifest", train, "--k", 3, "--seed", 4, "--ratio", 0.2,
                 "--n-lambda", 3, "--alpha", 0.1, "--beta", 0.2, "--max-iter", 20,
                 "--tol", 1e-4, "--l0", 2.0, "--one-se", "--out-dir", tmp_path / "cv"]) == 0
    (call,) = calls
    assert {name: call[name] for name in ("k", "seed", "ratio", "n_lambda", "alpha", "beta",
                                          "one_se")} == {
        "k": 3, "seed": 4, "ratio": 0.2, "n_lambda": 3, "alpha": 0.1, "beta": 0.2, "one_se": True
    }
    assert call["opts"] == SolverOptions(max_iter=20, tol=1e-4, L0=2.0)

    calls = _recorded(monkeypatch, "run_benchmark")
    assert _run(["bench", "--t-classification", 1, "--t-regression", 2, "--p", 12,
                 "--sparsity", 0.7, "--noise-scale", 0.3, "--methods", "mtlcomb",
                 "--ratios", "0.9", "--seeds", "3", "--k", 3, "--n-lambda", 3,
                 "--lambda-ratio", 0.2, "--alpha", 0.1, "--beta", 0.2,
                 "--out-dir", tmp_path / "bench"]) == 0
    (call,) = calls
    assert call["spec"] == SimulationSpec(
        t_classification=1, t_regression=2, p=12, sparsity=0.7, noise_scale=0.3
    )
    assert {name: call[name] for name in ("methods", "ratios", "seeds", "k", "n_lambda",
                                          "lambda_ratio", "alpha", "beta")} == {
        "methods": ["mtlcomb"], "ratios": [0.9], "seeds": [3], "k": 3, "n_lambda": 3,
        "lambda_ratio": 0.2, "alpha": 0.1, "beta": 0.2,
    }
