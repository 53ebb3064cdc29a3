"""Deterministic serialization helpers for scenario and CLI output.

Every number is written with 17 significant digits (round-trippable for
IEEE doubles), keys are sorted, line endings are LF, and files are written
atomically (temp file + rename) so interrupted runs never leave partial
output behind.  A `Grid1D` column is formatted once per process: its text
depends only on the grid's exact bounds and point count.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from functools import lru_cache

import numpy as np

from .linalg import Grid1D


def format_float(x: float) -> str:
    if isinstance(x, bool):  # bools are ints; keep them out of the float path
        raise TypeError("bool is not a float")
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _encode(obj, level: int) -> str:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            items.append(f"{pad_in}{json.dumps(key)}: {_encode(obj[key], level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{_encode(v, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    # numpy scalars and arrays funnel through their Python equivalents
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return _encode(obj.item(), level)
    if hasattr(obj, "tolist"):
        return _encode(obj.tolist(), level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def stable_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indents, 17-significant-digit floats, LF."""
    return _encode(obj, 0) + "\n"


@lru_cache(maxsize=16)
def _grid_text(lo: str, hi: str, points: int) -> str:
    """The `%.17g` cells of the float64 grid on the bounds `float.fromhex(lo)`, `float.fromhex(hi)`, one per line."""
    return ("%.17g\n" * points % tuple(Grid1D(float.fromhex(lo), float.fromhex(hi), points).values.tolist()))[:-1]


def _column_cells(column) -> tuple[str, list]:
    """The `%` conversion of one column and its cells: finite floats as floats under `%.17g`, else text under `%s`."""
    if isinstance(column, Grid1D):
        if column.values.dtype == np.float64:  # keyed by the bounds' bits: Grid1D equality takes -0.0 for 0.0
            return "%s", _grid_text(float(column.lo).hex(), float(column.hi).hex(), column.points).split("\n")
        column = column.values
    if isinstance(column, np.ndarray) and column.dtype.kind == "f" and np.isfinite(column).all():
        return "%.17g", column.tolist()  # the float path of format_float, without its per-cell NaN/inf tests
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    return "%s", [_encode(cell, 0) if isinstance(cell, (int, float)) else str(cell) for cell in cells]  # bool: true/false


def csv_table(header: list[str], columns) -> str:
    """CSV of equal-length columns: 17-significant-digit floats, comma separators, LF endings.

    A column is a numpy array, a sequence of Python values or a `Grid1D`;
    cells are written as `true`/`false`, integers, `format_float` floats, or
    `str()`.  A float64 `Grid1D` column is formatted once per process, keyed
    by the exact bits of its bounds and its point count.
    The cells, interleaved row by row, fill one `%` template of the table in
    one pass; the header stays outside it, so a `%` in a name is kept as is.
    """
    conversions, cells = zip(*map(_column_cells, columns))
    rows = len(cells[0])
    if any(len(column) != rows for column in cells):
        raise ValueError(f"columns of unequal length: {[len(column) for column in cells]}")
    grid = np.empty((rows, len(cells)), dtype=object)
    for j, column in enumerate(cells):
        grid[:, j] = column
    return ",".join(header) + "\n" + (",".join(conversions) + "\n") * rows % tuple(grid.ravel().tolist())


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
