import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matguard.io import (
    MatrixIOError,
    dumps_canonical,
    format_float,
    load_matrix,
    load_matrix_csv,
    load_matrix_json,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix_csv,
    save_matrix_json,
)


def test_format_float_goldens():
    assert format_float(0.0) == "0.0"
    assert format_float(1.0) == "1.0"
    assert format_float(-2.5) == "-2.5"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(float("-inf")) == "null"
    assert format_float(float("nan")) == "null"


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_format_float_round_trips(x):
    assert float(json.loads(format_float(x))) == x


def test_dumps_canonical_structure():
    obj = {"a": 1, "b": [True, None, 0.5], "c": {"x": -1}}
    assert dumps_canonical(obj) == '{"a":1,"b":[true,null,0.5],"c":{"x":-1}}'


def test_dumps_canonical_numpy_values():
    out = dumps_canonical({"v": np.float64(0.0), "n": np.int64(3),
                           "row": np.array([1.0, 2.0])})
    assert out == '{"v":0.0,"n":3,"row":[1.0,2.0]}'
    # every scalar type the writer meets, in every container it accepts
    out = dumps_canonical({
        "bools": [True, False, np.bool_(True), np.bool_(False), np.array([True, False])],
        "ints": [np.int64(-7), np.int32(2), 0, np.array([1, -2], dtype=np.int64)],
        "floats": [np.float32(0.1), -0.0, np.float64(-0.0), 1e300, 5e-324, 3.0],
        "non_finite": [float("nan"), float("inf"), -np.inf, np.float64("nan")],
        "tuple": (1, 2.5, None, "s"),
        "matrix": np.array([[1.0, -0.0], [np.inf, 0.5]]),
    })
    assert out == (
        '{"bools":[true,false,true,false,[true,false]],'
        '"ints":[-7,2,0,[1,-2]],'
        '"floats":[0.10000000149011612,-0.0,-0.0,1.0000000000000001e+300,4.9406564584124654e-324,3.0],'
        '"non_finite":[null,null,null,null],'
        '"tuple":[1,2.5,null,"s"],'
        '"matrix":[[1.0,-0.0],[null,0.5]]}'
    )


def test_dumps_canonical_rejects_unknown():
    with pytest.raises(TypeError):
        dumps_canonical({"bad": object()})
    with pytest.raises(TypeError):
        dumps_canonical({1: "non-string key"})


def test_matrix_obj_round_trip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    back = matrix_from_obj(matrix_to_obj(a))
    assert np.array_equal(a, back)


def test_matrix_obj_canonical_bytes():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert (
        dumps_canonical(matrix_to_obj(a))
        == '{"rows":2,"cols":2,"data":[[0.0,1.0],[-1.0,0.0]]}'
    )


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {"rows": 2, "cols": 2},
        {"rows": "2", "cols": 2, "data": [[1, 2], [3, 4]]},
        {"rows": 2, "cols": 2, "data": [[1, 2]]},
        {"rows": 1, "cols": 3, "data": [[1, 2]]},
        {"rows": 1, "cols": 1, "data": [["x"]]},
        {"rows": 1, "cols": 1, "data": [["-1.5"]]},
        {"rows": 1, "cols": 2, "data": [[1.0, True]]},
        {"rows": 1, "cols": 1, "data": [[None]]},
        {"rows": 1, "cols": 1, "data": [[10**400]]},
    ],
)
def test_matrix_from_obj_rejects_bad_schema(obj):
    with pytest.raises(MatrixIOError):
        matrix_from_obj(obj)


def test_json_file_round_trip(tmp_path):
    a = np.array([[1.5, -2.0], [0.25, 1e-300]])
    path = tmp_path / "m.json"
    save_matrix_json(a, path)
    assert np.array_equal(load_matrix_json(path), a)
    # extension dispatch
    assert np.array_equal(load_matrix(path), a)


def test_csv_file_round_trip(tmp_path):
    a = np.array([[1.0, 2.0, 3.0], [-0.5, 0.0, 4.25]])
    path = tmp_path / "m.csv"
    save_matrix_csv(a, path)
    assert np.array_equal(load_matrix_csv(path), a)
    assert np.array_equal(load_matrix(path), a)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixIOError):
        load_matrix_csv(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,x\n2,3\n")
    with pytest.raises(MatrixIOError):
        load_matrix_csv(path)


def test_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(MatrixIOError):
        load_matrix_json(path)
