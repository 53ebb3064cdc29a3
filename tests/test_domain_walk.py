"""Each scenario parameter's domain, as `twostate list` prints it, is the domain its runs enforce.

The walk reads the interval `twostate list` prints for every scenario parameter and runs the CLI one step inside
and one step outside each finite end (an integer's neighbour, or a float's `math.nextafter`).  Inside, a run exits
0, or exits as `INSIDE` names, with the warnings it names; outside, the request exits 2 with the domain's message
before its runner, or numpy, builds anything, and writes no file.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import warnings

import numpy as np
import pytest

from twostate import cli, scenarios
from twostate.linalg import CACHES

ENTRY = re.compile(  # name:kind=default, then an interval such as [1, inf) where the parameter has a domain
    r"(?P<name>\w+):(?P<kind>int|float|bool)=[^\s,]+"
    r"(?: (?P<left>[\[(])(?P<lo>[^,\s]+), (?P<hi>[^\])\s]+)(?P<right>[\])]))?"
)


def listed_domains() -> dict:
    """{(scenario, parameter): (kind, (left, lo, hi, right) as printed, or None)} as `twostate list` prints them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["list"]) == 0
    listed = {}
    for line in out.getvalue().splitlines():
        scenario = line.split()[0]
        for m in ENTRY.finditer(line):
            interval = (m["left"], m["lo"], m["hi"], m["right"]) if m["left"] else None
            listed[scenario, m["name"]] = (m["kind"], interval)
    return listed


LISTED = listed_domains()
EDGES = [
    (scenario, name, end)
    for (scenario, name), (kind, interval) in LISTED.items()
    if interval is not None
    for end, bound in (("lo", interval[1]), ("hi", interval[2]))
    if math.isfinite(float(bound))
]

# The value just inside each end, where a run of it does not exit 0 with no warning: (exit code, a line of its
# standard error, the warnings it gives).  Each names what refuses it, or the open item its output waits on.
INSIDE = {
    # a lattice of 2 sites holds no site inside the default well
    ("negative_kinetic_energy", "sites", "lo"): (2, "a well of half width 1.0 holds no site of the 2-site lattice", ()),
    # the well binds nothing (item 11, test_known_wrong::test_negative_kinetic_energy_well_depth_1e_12_exits_2)
    ("negative_kinetic_energy", "well_depth", "lo"): (
        1,
        "numerical checks failed: bound_state_exists, pointer_shift_negative",
        (),
    ),
    ("negative_kinetic_energy", "well_half_width", "lo"): (
        2,
        "a well of half width 0.0 holds no site of the 2048-site lattice",
        (),
    ),
    ("negative_kinetic_energy", "well_half_width", "hi"): (2, "post-selection site must lie outside the well", ()),
    # near +-20 the ground state's tail, about exp(-57) of its peak, puts the post-selection below its floor
    ("negative_kinetic_energy", "postselect_x", "lo"): (2, "projected pointer amplitude vanishes on the grid", ()),
    ("negative_kinetic_energy", "postselect_x", "hi"): (2, "projected pointer amplitude vanishes on the grid", ()),
    # the schedule's float-range check: at eta = 10, (N+1) * S passes the float range long before 10**6
    ("time_machine", "n_terms", "hi"): (
        2,
        "binomial schedule N=1000000, eta=10.0: (N+1) * sum alpha_n**2 exceeds the float range",
        (),
    ),
    # a width's square is a normal float at both ends, but the grids around it overflow (item 26's grid rule)
    ("n_spin_single_system", "delta", "lo"): (2, "pointer width 1.4916681462400413e-154 is below 2 grid spacings", ()),
    ("n_spin_single_system", "delta", "hi"): (0, "", ("overflow encountered in square",)),
    ("spin_xi_weak", "delta", "lo"): (2, "pointer width 1.4916681462400413e-154 is below 2 grid spacings", ()),
    ("spin_xi_weak", "delta", "hi"): (
        1,
        "numerical checks failed: peak_near_weak_value",
        ("overflow encountered in reduce", "overflow encountered in square"),
    ),
    ("negative_kinetic_energy", "pointer_delta", "lo"): (
        2,
        "pointer width 1.4916681462400413e-154 is below 2 grid spacings",
        ("overflow encountered in divide",),
    ),
    ("negative_kinetic_energy", "pointer_delta", "hi"): (
        1,
        "numerical checks failed: pointer_shift_negative",
        ("overflow encountered in square",),
    ),
    ("time_machine", "width", "lo"): (
        0,
        "",
        ("input spectrum extends beyond a quarter of the Nyquist rate", "overflow encountered in divide"),
    ),
    ("time_machine", "width", "hi"): (0, "", ("overflow encountered in square",)),
}


def _edge(scenario: str, name: str, end: str, inside: bool):
    """(kind, interval text, the value one step inside or outside `end` of the listed interval)."""
    kind, (left, lo, hi, right) = LISTED[scenario, name]
    text, bracket, inward = (lo, left, math.inf) if end == "lo" else (hi, right, -math.inf)
    if kind == "int":  # an int's ends are closed
        value = int(text) if inside else int(text) - (1 if inward > 0 else -1)
    elif bracket in "[]":  # a closed end holds its bound
        value = float(text) if inside else math.nextafter(float(text), -inward)
    else:
        value = math.nextafter(float(text), inward) if inside else float(text)
    return kind, f"{left}{lo}, {hi}{right}", value


def test_twostate_list_prints_a_domain_for_every_numeric_parameter():
    expected = {(s, p.name) for s, spec in scenarios.REGISTRY.items() for p in spec.params}
    assert set(LISTED) == expected
    assert [key for key, (kind, interval) in LISTED.items() if kind != "bool" and interval is None] == []


@pytest.mark.parametrize("scenario, name, end", EDGES, ids=["-".join(edge) for edge in EDGES])
def test_the_value_just_inside_each_listed_end_runs_or_is_refused_by_name(scenario, name, end, tmp_path, capsys):
    _, _, value = _edge(scenario, name, end, inside=True)
    code, line, expected_warnings = INSIDE.get((scenario, name, end), (0, "", ()))
    for cache in CACHES:  # a cached stage would skip the work whose warnings the table names
        cache.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = ["run", scenario, "--param", f"{name}={value!r}", "--format", "json", "--out", str(tmp_path)]
        assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert line in err and f"parameter {name!r} must be" not in err  # not the domain's own refusal
    assert sorted({str(w.message) for w in caught}) == sorted(expected_warnings)
    assert (tmp_path / scenario / "results.json").exists() == (code != 2)


@pytest.mark.parametrize("scenario, name, end", EDGES, ids=["-".join(edge) for edge in EDGES])
def test_the_value_just_outside_each_listed_end_is_refused_before_any_array(
    scenario, name, end, tmp_path, monkeypatch, capsys
):
    kind, interval, value = _edge(scenario, name, end, inside=False)

    def computes(*args, **kwargs):
        raise AssertionError("a value outside the listed domain reached the computation")

    spec = scenarios.get_scenario(scenario)
    stand_in = scenarios.ScenarioSpec(scenario, spec.summary, spec.params, computes)
    monkeypatch.setitem(scenarios.REGISTRY, scenario, stand_in)
    for build in ("array", "asarray", "empty", "zeros", "ones", "full", "linspace", "arange"):
        monkeypatch.setattr(np, build, computes)
    assert cli.main(["run", scenario, "--param", f"{name}={value!r}", "--out", str(tmp_path)]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err
    noun = "an integer" if kind == "int" else "a float"
    message = f"error: parameter {name!r} must be {noun} in {interval}, got {value!r}"
    assert err.startswith(message) and err.endswith("\n") and err.count("\n") == 1
    assert err[len(message) :] == "\n" or err[len(message) :].startswith("; ")  # then the domain's reason
    assert not any(tmp_path.iterdir())
