"""Deterministic serialization helpers for scenario and CLI output.

Every number is written with 17 significant digits (round-trippable for
IEEE doubles), keys are sorted, line endings are LF, and files are written
atomically (temp file + rename) so interrupted runs never leave partial
output behind.  A finite float CSV column is formatted in numpy array passes
that write the bytes of `'%.17g' % x` without a Python call per cell, and a
`Grid1D` column once per process: its text depends only on the grid's exact
bounds and point count.  A table with no array or grid column, such as a
sweep's summary, is formatted cell by cell and joined in one Python pass,
which costs less than the array pass's fixed numpy calls for a few rows.
"""

from __future__ import annotations

import json
import math
import os
from functools import cache, lru_cache

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
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def stable_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indents, 17-significant-digit floats, LF.

    `obj` holds Python values only: None, bools, ints, floats, strings, lists, tuples and dicts keyed by strings.
    """
    return _encode(obj, 0) + "\n"


# `'%.17g' % x` for a float64 column at once.  np.frexp gives |x| = f 2**E, 1/2 <= f < 1, and with
# X = floor(log10 2**(E-1)), y = f c for c = 2**E 10**(16 - X) lies in [1e16, 2e17).  The 17 significant
# digits D are the integer nearest y, exponent X, where y < 1e17 - 1/2, else nearest y / 10, exponent X + 1.
# `_POWERS` holds c (column E + 1073) and c / 10 (E + 3171) as double-doubles hi + lo, with hi's Veltkamp
# halves and the exponent, and in row 5 the least f that takes c / 10 (0 until a column first holds E and
# the entries are made from Python integers).  Dekker's two-product gives f hi = p + e exactly, p >= 2**53
# is an integer, and q = e + f lo is y - p to within 5e-15 (2**-49 from lo, 2**-50 and 2**-49 from rounding
# f lo and the sum): D = p + round(q), but `'%.16e'` decides where q lies within 1e-9 of a half, which
# covers the exact decimal ties.  The text sits in six 8-byte words among NUL bytes: sign, "0.000" prefix,
# each digit with a slot for the point after it, exponent.  Digit words come from 4-digit groups, and a
# mask chosen by the significant digits, X clipped to [-5, 17] and the sign keeps the `%g` text's bytes.
_POWERS = np.zeros((6, 2 * 2098))


@cache
def _cell_layout() -> tuple:
    """The digit words, trailing zeros of each 4-digit group, masks and exponent words, made on first use."""
    source = np.full((10020, 8), ord("."), dtype=np.uint8)
    for k in range(4):
        source[:10000, 2 * k] = np.tile(np.arange(48, 58, dtype=np.uint8).repeat(10 ** (3 - k)), 10**k)
    lead = b"".join(b"%c0.000%c." % (sign, d) for sign in b"-\0" for d in b"0123456789")  # with a minus, then not
    source[10000:] = np.frombuffer(lead, np.uint8).reshape(20, 8)
    zeros = bytearray(10000)
    zeros[::10], zeros[::100], zeros[::1000], zeros[:1] = b"\1" * 1000, b"\2" * 100, b"\3" * 10, b"\4"
    mask = bytearray(18 * 23 * 40)  # by significant digits, then X clipped to [-5, 17]
    for k in range(18 * 23):
        digits, x, at = k // 23, k % 23 - 5, 40 * k
        kept, point = (max(digits, x + 1), x) if -4 <= x <= 16 else (digits, 0)  # the point follows digit `point`
        mask[at] = 255  # the sign, if any
        if point < 0:
            mask[at + 1 : at + 2 - x] = b"\xff" * (1 - x)  # "0." and -X - 1 zeros
        mask[at + 6 : at + 6 + 2 * kept : 2] = b"\xff" * kept
        if 0 <= point < kept - 1:
            mask[at + 7 + 2 * point] = 255
    exponent = np.zeros((633, 8), dtype=np.uint8)  # by X + 324
    exponent[:, :2] = np.frombuffer(b"e-" * 324 + b"e+" * 309, np.uint8).reshape(-1, 2)
    magnitude = np.frombuffer(b"%03d" * 325 % tuple(range(325)), np.uint8).reshape(-1, 3).copy()
    magnitude[:100, 0] = 0  # at least two exponent digits
    exponent[:324, 2:5], exponent[324:, 2:5], exponent[320:341] = magnitude[324:0:-1], magnitude[:309], 0
    mask = np.frombuffer(mask, np.uint64).reshape(-1, 5).T.copy()
    return source.view(np.uint64).ravel(), np.frombuffer(zeros, np.uint8), mask, exponent.view(np.uint64).ravel()


def _float_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of `'%.17g' % x[k]` as an integer D[k], and its decimal exponent X[k]."""
    f, e = np.frexp(x)
    f = np.abs(f, out=f)
    e += 1073
    for k in set(e[np.take(_POWERS[5], e) == 0].tolist()):
        E = k - 1073
        X = math.floor((E - 1) * 0.30102999566398120)  # exact: (E - 1) log10(2) stays 4.5e-4 from an integer
        num, den = 2 ** max(E, 0) * 10 ** max(16 - X, 0), 2 ** max(-E, 0) * 10 ** max(X - 16, 0)
        for column, d in ((k, den), (k + 2098, 10 * den)):
            hi = num / d  # int / int rounds correctly
            a, b = hi.as_integer_ratio()
            split = hi * 134217729.0
            half = split - (split - hi)
            _POWERS[:5, column] = hi, half, hi - half, (num * b - a * d) / (d * b), X + (column > k)
        bound, twice = (2 * 10**17 - 1) * den, 2 * num  # f c >= 1e17 - 1/2 when f >= bound / twice
        least_f = bound / twice
        a, b = least_f.as_integer_ratio()
        _POWERS[5, k] = least_f if a * twice >= bound * b else math.nextafter(least_f, 2.0)
    e += 2098 * (f >= np.take(_POWERS[5], e))
    hi, hi_high, hi_low, lo, X = np.take(_POWERS[:5], e, axis=1)
    p = f * hi
    f_high = f * 134217729.0
    f_high -= f_high - f
    f_low = f - f_high
    q = ((f_high * hi_high - p) + f_high * hi_low + f_low * hi_high) + f_low * hi_low + f * lo
    nearest = np.rint(q)
    D = p.astype(np.int64) + nearest.astype(np.int64)
    X = X.astype(np.intp)
    X[f == 0] = 0  # zero: D = 0, written "0"
    for k in np.flatnonzero(np.abs(q - nearest) > 0.5 - 1e-9):
        text = "%.16e" % abs(x[k])
        D[k], X[k] = int(text[0] + text[2:18]), int(text[19:])
    return D, X


def _float_words(x: np.ndarray, out: np.ndarray) -> None:
    """Write `'%.17g' % x[k]` among NUL bytes into the six words out[:, k], for finite float64 x."""
    D, X = _float_digits(x)
    groups = np.empty((5, x.size), dtype=np.int32)  # four digits each after the leading digit's
    for k in (4, 3, 2, 1):
        rest = D // 10000
        np.subtract(D, rest * 10000, out=groups[k])
        D = rest
    np.add(D, 10010 - 10 * np.signbit(x), out=groups[0])  # the leading digit's word, with or without a minus
    source, trailing_zeros, mask, exponent = _cell_layout()
    z1, z2, z3, z4 = np.take(trailing_zeros, groups[1:])
    trailing = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    kept = (17 - trailing.astype(np.intp)) * 23 + np.clip(X, -5, 17) + 5
    np.take(source, groups, out=out[:5])
    out[:5] &= np.take(mask, kept, axis=1)
    np.take(exponent, X + 324, out=out[5])


def _text_words(cells: list) -> np.ndarray:
    """(m, len(cells)) words: column k holds cells[k] (bytes) and at least one trailing NUL byte."""
    width = (max(map(len, cells), default=0) + 8) // 8
    return np.array(cells, dtype=f"S{8 * width}").view(np.uint64).reshape(len(cells), width).T.copy()


@lru_cache(maxsize=16)
def _grid_words(lo: str, hi: str, points: int) -> np.ndarray:
    """The cell words of the float64 grid on the bounds `float.fromhex(lo)`, `float.fromhex(hi)`, held tight."""
    words = np.empty((6, points), dtype=np.uint64)
    _float_words(Grid1D(float.fromhex(lo), float.fromhex(hi), points).values, words)
    words.view(np.uint8).reshape(6, points, 8)[5, :, 7] = ord("\n")
    words = _text_words(words.T.tobytes().translate(None, b"\0").split(b"\n")[:-1])
    words.flags.writeable = False
    return words


def _column_cells(column) -> np.ndarray:
    """A column as finite float64 values for `_float_words`, or as (m, rows) words of its cells' text."""
    if isinstance(column, Grid1D):
        if column.values.dtype == np.float64:  # keyed by the bounds' bits: Grid1D equality takes -0.0 for 0.0
            return _grid_words(float(column.lo).hex(), float(column.hi).hex(), column.points)
        column = column.values
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        values = column.astype(np.float64, copy=False)
        if np.isfinite(values).all():
            return values
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    return _text_words([text.encode() for text in _cell_texts(cells)])


def _cell_texts(cells) -> list:
    """Each cell's text: `true`/`false`, an integer, a `format_float` float, or `str()`, which must hold no NUL."""
    texts = [_encode(cell, 0) if isinstance(cell, (int, float)) else str(cell) for cell in cells]  # bool: true/false
    if any("\0" in text for text in texts):
        raise ValueError("a CSV cell cannot hold a NUL character")
    return texts


def _require_equal_lengths(lengths: list) -> None:
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")


def _table_rows(columns) -> list:
    """The table's rows as text bytes.

    A table of Python sequences alone is joined row by row in one pass.  Any
    numpy-array or `Grid1D` column puts the whole table through the array
    pass, 1024 rows at a time: each block of rows transposed and its NUL
    bytes deleted.
    """
    if not any(isinstance(column, (np.ndarray, Grid1D)) for column in columns):
        texts = [_cell_texts(column) for column in columns]
        _require_equal_lengths([len(column) for column in texts])
        return ["".join(",".join(row) + "\n" for row in zip(*texts)).encode()]
    cells = [_column_cells(column) for column in columns]
    rows = cells[0].shape[-1]
    _require_equal_lengths([column.shape[-1] for column in cells])
    heights = [6 if column.dtype == np.float64 else len(column) for column in cells]
    ends = np.cumsum(heights)
    table = np.empty((ends[-1], rows), dtype=np.uint64)
    for column, top, end in zip(cells, ends - heights, ends):
        if column.dtype == np.float64:
            _float_words(column, table[top:end])
        else:
            table[top:end] = column
    separators = table.view(np.uint8).reshape(len(table), rows, 8)[:, :, 7]  # a cell's last byte is NUL
    separators[ends - 1] = np.frombuffer(b"," * (len(ends) - 1) + b"\n", np.uint8)[:, None]
    return [table[:, top : top + 1024].T.tobytes().translate(None, b"\0") for top in range(0, rows, 1024)]


def csv_table(header: list[str], columns) -> str:
    """CSV of equal-length columns: 17-significant-digit floats, comma separators, LF endings.

    A column is a numpy array, a sequence of Python values or a `Grid1D`.  A
    float array whose values are finite as doubles is written in numpy array
    passes, byte for byte `'%.17g' % x`, and a float64 `Grid1D` once per
    process, keyed by the exact bits of its bounds and its point count; other
    cells are written as `true`/`false`, integers, `format_float` floats, or
    `str()`, which must hold no NUL.  A table of Python sequences alone is
    joined row by row; once any column is an array or a grid, each cell sits
    among NUL bytes in 8-byte words, and the rows are the transpose of the
    stacked columns with the NUL bytes deleted.  The header is joined outside
    the rows.
    """
    return ",".join(header) + "\n" + b"".join(_table_rows(columns)).decode()


def write_text_atomic(path: str, text: str) -> None:
    """Write `text` to `path` by a rename from a file beside it, made as a plain `open` makes it (0o666 & ~umask)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    handle = open(tmp, "x", encoding="utf-8", newline="\n")  # a name already taken raises here, before any cleanup
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
