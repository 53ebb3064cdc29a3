import math
import sys

import numpy as np
import pytest

from twostate.linalg import Grid1D
from twostate.reporting import _grid_words, csv_table, format_float, stable_json


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


def wide_range_floats(shape, seed=0):
    """Random signed floats whose decimal exponents span -320 to 308, subnormals included."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-320, 309, shape).astype(float)


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
    "finite beside non-finite": [np.array([0.5, -1e-300, 7.0]), np.array([math.nan, math.inf, -math.inf])],
    "float32 beside float64": [np.array([0.1, -2.5], dtype=np.float32), np.array([0.1, -2.5])],
    "one row": [np.array([1 / 3]), np.array([-7]), [None], ["50%"]],
    "4096 x 4 wide-range floats": list(wide_range_floats((4, 4096))),
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
    with pytest.raises(ValueError):  # a one-cell column must not broadcast down the table
        csv_table(["a", "b"], [np.zeros(3), [1.0]])


def test_wide_range_case_reaches_both_ends_of_the_float_range():
    x = np.concatenate(CASES["4096 x 4 wide-range floats"])
    assert np.isfinite(x).all()
    assert (np.abs(x) < np.finfo(float).tiny).sum() > 10 and np.abs(x).max() > 1e307


def test_percent_signs_in_names_and_cells_are_written_as_they_stand():
    header = ["50%", "%s", "%%", "x"]
    columns = [["50%", "%d"], ["%s", "%(x)s"], np.array([0.25, 100.0]), np.array([1.0, math.nan])]
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    text = csv_table(header, columns)
    assert text == rowwise_csv(header, zip(*cells))
    assert text == "50%,%s,%%,x\n50%,%s,0.25,1\n%d,%(x)s,100,NaN\n"


def assert_grid_written_as_its_values(grid):
    density = np.linspace(0.0, 1.0, grid.points) ** 3
    assert csv_table(["Q", "p"], [grid, density]) == csv_table(["Q", "p"], [grid.values, density])


def test_grids_that_compare_equal_but_end_in_signed_zeros_keep_their_own_text():
    # Grid1D(-1.0, -0.0, 16) == Grid1D(-1.0, 0.0, 16), with equal hashes, but linspace ends one in -0.0 and the
    # other in 0.0: a cache keyed by the grid would write the first one's last cell for the second
    negative, positive = Grid1D(-1.0, -0.0, 16), Grid1D(-1.0, 0.0, 16)
    assert negative == positive
    for order in ((negative, positive), (positive, negative)):
        _grid_words.cache_clear()
        for grid in order:
            assert_grid_written_as_its_values(grid)
    assert csv_table(["Q"], [negative]).endswith("\n-0\n") and csv_table(["Q"], [positive]).endswith("\n0\n")


@pytest.mark.parametrize(
    "lo, hi", [(0, 3), (-2, 1.5), (1e-300, 3e-300), (-5e-300, 1e-300), (-1e300, 1e300), (1e299, 1.7e300)]
)
@pytest.mark.parametrize("points", [16, 4096])
def test_a_grid_column_is_written_as_its_values_cold_and_warm(lo, hi, points):
    grid = Grid1D(lo, hi, points)
    _grid_words.cache_clear()
    assert_grid_written_as_its_values(grid)  # formatted
    assert_grid_written_as_its_values(Grid1D(lo, hi, points))  # read back, for an equal grid


def test_grids_evicted_from_the_cache_are_written_as_their_values_again():
    _grid_words.cache_clear()
    held = _grid_words.cache_info().maxsize
    grids = [Grid1D(0.0, 1.0 + k, 16) for k in range(held + 4)]
    for grid in grids + grids:
        assert_grid_written_as_its_values(grid)
    assert _grid_words.cache_info().currsize == held


def test_a_float32_grid_is_written_as_its_float32_values_beside_the_float64_grid_on_its_bounds():
    single = Grid1D(np.float32(0.1), np.float32(1.0), 16)
    double = Grid1D(float(np.float32(0.1)), 1.0, 16)
    assert single.values.dtype == np.float32 and not np.array_equal(single.values, double.values)
    for grid in (double, single, double):
        assert_grid_written_as_its_values(grid)


def assert_written_as_percent_17g(values):
    """csv_table writes each finite float64 as `'%.17g' % x`, alone and beside another column."""
    x = np.asarray(values, dtype=np.float64)
    assert np.isfinite(x).all()
    expected = ["%.17g" % v for v in x.tolist()]
    for columns in ([x], [x, np.arange(x.size)]):
        lines = csv_table([f"c{j}" for j in range(len(columns))], columns).split("\n")
        assert len(lines) == x.size + 2 and lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        wrong = [(v, row[0], want) for v, row, want in zip(x.tolist(), rows, expected) if row[0] != want]
        assert not wrong, f"{len(wrong)} of {x.size} cells differ from %.17g; (value, written, expected): {wrong[:5]}"
        assert all(row[1:] == [str(k)] * (len(columns) - 1) for k, row in enumerate(rows))


def neighbours(x, steps=3):
    """x and the `steps` doubles on either side of it."""
    below, above = [float(x)], [float(x)]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_every_power_of_two_is_written_as_percent_17g():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert powers.size == 2098 and powers[0] == SUBNORMAL and np.isfinite(powers).all()
    assert_written_as_percent_17g(np.concatenate([powers, -powers]))


def test_every_power_of_ten_and_its_neighbours_are_written_as_percent_17g():
    tens = [float(f"1e{k}") for k in range(-323, 309)]  # the double nearest 10**k
    assert_written_as_percent_17g([x for ten in tens for x in neighbours(ten, 1)])


@pytest.mark.parametrize("x", [1e-5, 1e-4, 1e16, 1e17])
def test_neighbours_of_the_layout_and_exponent_changes_are_written_as_percent_17g(x):
    # %g writes fixed point for 1e-4 <= |x| < 1e17, once rounded to 17 digits, and the exponent form elsewhere
    assert_written_as_percent_17g(neighbours(x, 20) + [-v for v in neighbours(x, 20)])


def test_the_ends_of_the_float_range_zeros_and_negatives_are_written_as_percent_17g():
    tiny = sys.float_info.min
    ends = [SUBNORMAL, 2 * SUBNORMAL, *neighbours(tiny), sys.float_info.max, math.nextafter(sys.float_info.max, 0)]
    cells = csv_table(["x"], [np.array(ends + [-v for v in ends] + [0.0, -0.0])]).split("\n")
    assert cells[1:3] == ["4.9406564584124654e-324", "9.8813129168249309e-324"]
    assert cells[-3:] == ["0", "-0", ""]
    assert_written_as_percent_17g(ends + [-v for v in ends] + [0.0, -0.0])


def decimal_ties(odd_17th_digit, per_scale=40, seed=0):
    """Doubles m / 2**k whose decimal expansion has exactly 18 significant digits and ends in 5.

    m is odd, so m / 2**k = m 5**k / 10**k ends in 5; with m 5**k between 1e17
    and 1e18 its 17-digit rounding is an exact tie, which `%.17g` rounds half
    to even.  Every such tie has 2 <= k <= 25.
    """
    rng = np.random.default_rng(seed)
    ties = []
    for k in range(2, 26):
        low, high = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
        for m in rng.integers(low, high, per_scale * 4).tolist():
            m |= 1
            digits = m * 5**k
            if 10**17 <= digits < 10**18 and (digits // 10) % 2 == odd_17th_digit:
                ties.append(m / 2**k)
    assert len(ties) > 10 * per_scale
    return ties


@pytest.mark.parametrize("odd_17th_digit", [1, 0], ids=["odd 17th digit", "even 17th digit"])
def test_exact_decimal_ties_are_rounded_half_to_even_as_percent_17g(odd_17th_digit):
    ties = decimal_ties(odd_17th_digit)
    assert_written_as_percent_17g(ties + [-x for x in ties])
    expected = "x\n1166471051748867.8\n1166471051748867.2\n"  # the 17th digits 7 and 2 round up and stay
    assert csv_table(["x"], [np.array([1166471051748867.75, 1166471051748867.25])]) == expected


def test_a_text_cell_holding_a_nul_character_is_refused():
    with pytest.raises(ValueError, match="NUL"):
        csv_table(["s"], [["a", "b\0c"]])



def test_a_bool_is_not_formatted_as_a_float():
    with pytest.raises(TypeError, match="bool is not a float"):
        format_float(True)


def test_json_object_keys_must_be_strings():
    assert stable_json({"1": 2}) == '{\n  "1": 2\n}\n'
    with pytest.raises(TypeError, match="keys must be strings, got int"):
        stable_json({"results": {1: 2}})


@pytest.mark.parametrize(
    "value", [object(), {1.0, 2.0}, b"bytes", 1j, np.int64(3), np.bool_(True), np.array([0.5, 1.0])],
    ids=["object", "set", "bytes", "complex", "numpy_int", "numpy_bool", "numpy_array"],
)
def test_stable_json_refuses_a_value_it_has_no_rule_for(value):
    # results hold Python values: a numpy float64 is a float, every other numpy value is refused
    assert stable_json([np.float64(0.1)]) == "[\n  0.10000000000000001\n]\n"
    with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__}"):
        stable_json({"value": [value]})
