"""Matrix and report serialization.

JSON matrix schema: ``{"rows": n, "cols": m, "data": [[row0...], ...]}``
with row-major IEEE-754 doubles.  CSV alternative: one row per line,
comma-separated, no header.  All JSON is emitted through a canonical
writer (17 significant digits, compact separators) so repeated runs are
byte-identical and every double round-trips exactly.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .core import as_matrix

__all__ = [
    "MatrixIOError",
    "dumps_canonical",
    "format_float",
    "load_matrix",
    "load_matrix_csv",
    "load_matrix_json",
    "matrix_from_obj",
    "matrix_to_obj",
    "read_json_document",
    "save_matrix_csv",
    "save_matrix_json",
]


class MatrixIOError(ValueError):
    """Malformed input file (bad JSON/CSV, schema violation, bad entries)."""


def format_float(x: float) -> str:
    """Canonical JSON rendering of a double: 17 significant digits.

    Always contains a '.' or exponent so the token reads back as a float.
    Non-finite values map to null (JSON has no Infinity); only -inf ever
    arises in practice, as the log-magnitude of a zero determinant.
    """
    if not math.isfinite(x):
        return "null"
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps_canonical(obj) -> str:
    """Serialize nested dict/list/scalar structures deterministically.

    Dict insertion order is preserved; floats go through
    :func:`format_float`.  Numpy scalars/arrays are accepted.
    """
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list) -> None:
    # the most frequent types first; bool before int, which it subclasses
    if isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"non-string key: {k!r}")
            out.append(json.dumps(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def matrix_to_obj(a) -> dict:
    m = as_matrix(a)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.tolist(),
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixIOError("matrix JSON must be an object")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise MatrixIOError(f"matrix JSON missing keys: {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if type(rows) is not int or type(cols) is not int:  # bool is an int subclass
        raise MatrixIOError("rows/cols must be integers")
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixIOError(f"data must be a list of {rows} rows")
    for r, row in enumerate(data):
        # JSON numbers parse to int or float; a str or bool entry is refused
        if not (isinstance(row, list) and len(row) == cols
                and {int, float}.issuperset(map(type, row))):
            raise MatrixIOError(f"row {r} must be a list of {cols} numbers")
    try:
        return as_matrix(data)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise MatrixIOError(str(exc)) from exc


def _read_text(path) -> str:
    """The UTF-8 text of ``path``; ``-`` reads stdin."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixIOError(f"{path}: not UTF-8 text ({exc})") from exc


def read_json_document(path):
    """Parse the JSON document in ``path``; ``-`` reads stdin."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MatrixIOError(f"{path}: invalid JSON ({exc})") from exc


def load_matrix_json(path) -> np.ndarray:
    return matrix_from_obj(read_json_document(path))


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise MatrixIOError(f"{path}:{lineno}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixIOError(f"{path}:{lineno}: ragged row")
        rows.append(row)
    if not rows:
        raise MatrixIOError(f"{path}: empty CSV")
    try:
        return as_matrix(rows)
    except ValueError as exc:
        raise MatrixIOError(str(exc)) from exc


def load_matrix(path) -> np.ndarray:
    """Load a matrix: CSV by the .csv extension, else JSON (``-``: stdin)."""
    if str(path).lower().endswith(".csv"):
        return load_matrix_csv(path)
    return load_matrix_json(path)


def save_matrix_json(a, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(matrix_to_obj(a)))
        fh.write("\n")


def save_matrix_csv(a, path) -> None:
    m = as_matrix(a)
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(format_float(float(x)) for x in row))
            fh.write("\n")
