"""Requests the package answers wrongly, refuses where it should answer, or runs without bound.

One strict xfail per entry of the ROADMAP's known-wrong list (item 24), each named by the request.  A test asserts
what the request should do, not what it does today, and its reason names the item whose fix must flip it.  A strict
xfail that passes fails the run, so a fix removes the marker of the entries it mends, and a mend nobody meant is
noticed.  Every marker takes only `AssertionError`, so a test that breaks in another way fails instead of xfailing.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from twostate import cli


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 13: exits 2 from the scenario's N+1 scaling probe, whose N = 121 schedule has "
        "(N+1) * sum alpha_n**2 past the float range, although the run's own N = 120 schedule fits"
    ),
)
def test_time_machine_n_terms_120_exits_0_with_finite_outputs(tmp_path, capsys):
    code = cli.main(["run", "time_machine", "--param", "n_terms=120", "--out", str(tmp_path)])
    assert (code, capsys.readouterr().err) == (0, "")
    results = json.loads((tmp_path / "time_machine" / "results.json").read_text(encoding="utf-8"))["results"]
    for key in ("distortion", "success_prob", "log10_success_prob", "amplitude_decay_per_step"):
        assert isinstance(results[key], float) and math.isfinite(results[key]), key


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 22: nothing bounds n_terms at eta = 0.5, and the exact Fraction schedule of "
        "N = 20000 runs far past 3 s (still running at 60 s when measured) instead of being refused"
    ),
)
def test_time_machine_eta_half_n_terms_20000_ends_within_3_s(tmp_path):
    # the timeout only tells a run without bound from one with a bound: it times nothing
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["run", "time_machine", "--param", "eta=0.5", "--param", "n_terms=20000", "--out", str(tmp_path)]
    try:
        outcome = subprocess.run([sys.executable, "-m", "twostate.cli", *argv], env=env, timeout=3).returncode
    except subprocess.TimeoutExpired:
        outcome = "still running after 3 s"
    assert outcome in (0, 2)
