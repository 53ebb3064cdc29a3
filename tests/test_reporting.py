import math

import numpy as np
import pytest

from twostate.reporting import csv_table, format_float


def rowwise_csv(header, rows):
    """The row-by-row writer that csv_table replaced, kept as its reference."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, int):
                cells.append(str(cell))
            elif isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


SUBNORMAL = 5e-324

CASES = {
    "finite floats": [np.array([0.1, -0.0, SUBNORMAL, -1e308, 1 / 3, 2.0**60])],
    "non-finite floats": [np.array([math.nan, math.inf, -math.inf, -0.0, SUBNORMAL])],
    "float32": [np.array([0.1, -2.5, SUBNORMAL], dtype=np.float32)],
    "ints and bools": [np.array([0, -7, 2**40]), np.array([True, False, True])],
    "mixed python cells": [
        [None, 3, True, math.nan],
        [1.5, None, False, -math.inf],
        [np.float64(-0.0), np.float64(SUBNORMAL), "x", 2],
    ],
    "empty": [np.array([]), []],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_column_writer_matches_the_rowwise_writer(case):
    columns = CASES[case]
    header = [f"c{j}" for j in range(len(columns))]
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    assert csv_table(header, columns) == rowwise_csv(header, zip(*cells))


def test_column_writer_cells():
    text = csv_table(["x", "n", "ok", "none"], [np.array([-0.0, math.nan]), [1, 2], [True, False], [None, None]])
    assert text == "x,n,ok,none\n-0,1,true,None\nNaN,2,false,None\n"


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError):
        csv_table(["a", "b"], [np.zeros(3), np.zeros(2)])
