"""Every CLI output of the golden cases agrees with its recorded value.

The goldens in tests/golden/ were recorded by tests/golden/record.py before
the spectral core moved from dense projectors to eigenvector blocks.  A
refactor may change the last digits (the contraction order changes), so
numbers are compared at a relative tolerance of 1e-12; a table cell may also
move by 1e-14 of its column's largest magnitude, the round-off floor of a
density sampled far out in its tails.  Every string, flag, key and row count
must match exactly.
"""

from __future__ import annotations

import gzip
import json
import math

import pytest
from golden.record import CASES, golden_path, run_case

from twostate.reporting import _grid_words

RTOL = 1e-12
COLUMN_FLOOR = 1e-14

# The post-selected pointer of negative_kinetic_energy sums 161 selection
# amplitudes whose magnitudes exceed their sum 1.7e5-fold, so its mean carries
# a relative round-off of about 2e-11 in any contraction order.  Its peak is
# a quadratic interpolation whose denominator, the second difference
# y0 - 2*y1 + y2 of a density sampled at about 170 points per pointer width,
# amplifies that by another two orders of magnitude.
LOOSER = {
    ("negative_kinetic_energy", "results.pointer_mean"): 1e-10,
    ("negative_kinetic_energy", "results.pointer_peak"): 1e-9,
}


def _load(case: str) -> dict:
    with gzip.open(golden_path(case), "rt", encoding="utf-8") as handle:
        return json.load(handle)["files"]


def _close(new: float, old: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(old):
        return math.isnan(new)
    return abs(new - old) <= rtol * abs(old) + atol or new == old


def _compare_table(new: list, old: list, name: str, bad: list) -> None:
    if new[0] != old[0] or len(new) != len(old):
        bad.append(f"{name}: header or row count differs")
        return
    for j in range(len(old[0])):
        atol = COLUMN_FLOOR * max((abs(row[j]) for row in old[1:]), default=0.0)
        for i in range(1, len(old)):
            if not _close(new[i][j], old[i][j], RTOL, atol):
                bad.append(f"{name}[{i}][{j}]: {new[i][j]!r} vs golden {old[i][j]!r}")


def _compare(new, old, path: str, scenario: str, bad: list) -> None:
    if isinstance(old, dict):
        if not isinstance(new, dict) or sorted(new) != sorted(old):
            bad.append(f"{path}: keys differ")
            return
        for key in old:
            _compare(new[key], old[key], f"{path}.{key}" if path else key, scenario, bad)
    elif isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            bad.append(f"{path}: length differs")
            return
        for i, (a, b) in enumerate(zip(new, old)):
            _compare(a, b, f"{path}[{i}]", scenario, bad)
    elif _is_number(old) and _is_number(new):  # 17-digit output writes 1.0 as 1
        if not _close(float(new), float(old), LOOSER.get((scenario, path), RTOL)):
            bad.append(f"{path}: {new!r} vs golden {old!r}")
    elif new != old or type(new) is not type(old):
        bad.append(f"{path}: {new!r} vs golden {old!r}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _csv_rows(text: str) -> list:
    rows = [line.split(",") for line in text.splitlines()]
    return [rows[0]] + [[float(cell) for cell in row] for row in rows[1:]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case):
    golden = _load(case)
    fresh = run_case(case)
    assert sorted(fresh) == sorted(golden)
    scenario = CASES[case][0]
    bad: list = []
    for name, text in golden.items():
        if name.endswith(".json"):
            _compare(json.loads(fresh[name]), json.loads(text), "", scenario, bad)
        else:
            _compare_table(_csv_rows(fresh[name]), _csv_rows(text), name, bad)
    assert not bad, f"{case}: {len(bad)} values off, first: {bad[:5]}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_only_runs_write_the_same_tables(case):
    both = run_case(case, "both")
    csv_only = run_case(case, "csv")
    assert csv_only == {name: text for name, text in both.items() if name != "results.json"}


def test_every_golden_table_is_written_byte_for_byte_alike_with_the_grid_cache_cold_and_warm():
    _grid_words.cache_clear()
    cold = {case: run_case(case, "csv") for case in CASES}
    assert _grid_words.cache_info().currsize > 0
    assert {case: run_case(case, "csv") for case in CASES} == cold
