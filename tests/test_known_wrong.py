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
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from twostate import cli, scenarios, timemachine


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
    argv = ["run", "time_machine", "--param", "eta=0.5", "--param", "n_terms=20000", "--out", str(tmp_path)]
    assert _outcome_within_3_s(argv) in (0, 2)


def _outcome_within_3_s(argv: list):
    """The exit code of `twostate <argv>` in a child process, or a note that it was still running after 3 s.

    The timeout only tells a run without bound from one with a bound: it times nothing.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        return subprocess.run([sys.executable, "-m", "twostate.cli", *argv], env=env, timeout=3).returncode
    except subprocess.TimeoutExpired:
        return "still running after 3 s"


def test_spin_cone_samples_1000000_ends_within_3_s(tmp_path):
    argv = ["run", "spin_cone", "--param", "samples=1000000", "--out", str(tmp_path)]
    assert _outcome_within_3_s(argv) in (0, 2)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 25: still running after 3 s (27.3 s when measured): the float 0.3 has the denominator 2**54, "
        "so the rationals of the exact Fraction schedule grow with N"
    ),
)
def test_time_machine_eta_0_3_n_terms_1000_ends_within_3_s(tmp_path):
    argv = ["run", "time_machine", "--param", "eta=0.3", "--param", "n_terms=1000", "--out", str(tmp_path)]
    assert _outcome_within_3_s(argv) in (0, 2)


def _run(tmp_path, scenario: str, *params: str) -> tuple:
    """(exit code, results of the run's results.json or None) of an in-process `run`."""
    code = cli.main(["run", scenario, *(x for p in params for x in ("--param", p)), "--out", str(tmp_path)])
    path = tmp_path / scenario / "results.json"
    return code, json.loads(path.read_text(encoding="utf-8"))["results"] if path.exists() else None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 11: exits 0 with the pointer's peak at -10.24 and mean 1.4417 where the weak value is sqrt(2): "
        "shifts of order 1 fall below the rounding of grid points near 1e12, and nothing refuses the width"
    ),
)
def test_n_spin_delta_1e12_exits_2_or_reads_the_weak_value(tmp_path, capsys):
    code, results = _run(tmp_path, "n_spin_single_system", "delta=1e12")
    assert code == 2 or abs(results["pointer"]["mean"] - math.sqrt(2.0)) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 16: exits 1 on pointer_shift_negative; K_w is right, but a pointer of width 4 is not weak, "
        "and the scenario asserts the weak-regime shift at every width"
    ),
)
def test_negative_kinetic_energy_pointer_delta_4_exits_0_or_2(tmp_path, capsys):
    assert _run(tmp_path, "negative_kinetic_energy", "pointer_delta=4")[0] in (0, 2)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP items 4 and 11: exits 1 with K_w = -429.34 against E0 = -398.87: at the post-selection point the "
        "ground state is about 1e-49 of its peak, where LAPACK's eigenvector has no relative accuracy"
    ),
)
def test_negative_kinetic_energy_well_depth_400_exits_2_or_reads_the_ground_energy(tmp_path, capsys):
    code, results = _run(tmp_path, "negative_kinetic_energy", "well_depth=400")
    assert code == 2 or abs(results["kinetic_weak_value"] - results["ground_energy"]) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP items 1 and 22: exits 3 with OverflowError, as float(math.comb(n, i)) in "
        "n_spin_weights_and_centers passes the float range from 1030 spins"
    ),
)
def test_n_spin_spins_1030_is_not_an_internal_error(tmp_path, capsys):
    assert _run(tmp_path, "n_spin_single_system", "spins=1030")[0] != 3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 7: exits 1 on ensemble_mean_consistent, with the sample mean 1.3816 more than 3 quoted stderrs "
        "(0.0099) below sqrt(2): the sampler pairs each bin's CDF with its centre, dx/2 low, and the check's target "
        "is sqrt(2), not the pointer's true mean 1.4072"
    ),
)
def test_spin_xi_weak_ensemble_1000000_seed_7_exits_0(tmp_path, capsys):
    code = cli.main(["run", "spin_xi_weak", "--param", "ensemble=1000000", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 16: exits 1 on pointer_shift_negative, with the pointer mean at +1.78; K_w is right, but a "
        "pointer of width 0.5 is not weak, and the scenario asserts the weak-regime shift at every width"
    ),
)
def test_negative_kinetic_energy_pointer_delta_half_exits_0_or_2(tmp_path, capsys):
    assert _run(tmp_path, "negative_kinetic_energy", "pointer_delta=0.5")[0] in (0, 2)


def test_negative_kinetic_energy_well_half_width_1e_300_exits_2(tmp_path, capsys):
    assert _run(tmp_path, "negative_kinetic_energy", "well_half_width=1e-300")[0] == 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP items 11 and 22: exits 1 with |K_w - E0| = 1.5e-10 past the fixed 1e-10 tolerance; the discrete "
        "Laplacian at the post-selection site cancels to about eps/dx**2, and nothing bounds `sites`"
    ),
)
def test_negative_kinetic_energy_sites_100000_exits_2_or_reads_the_ground_energy(tmp_path, capsys):
    code, results = _run(tmp_path, "negative_kinetic_energy", "sites=100000")
    assert code == 2 or (code == 0 and abs(results["kinetic_weak_value"] - results["ground_energy"]) <= 1e-10)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP items 11 and 22: exits 1 on bound_state_exists and pointer_shift_negative; the well is inside the "
        "domain (0, inf), but on the fine lattice's +-60 box the lowest state sits at E0 = 3.4e-4, above zero, so "
        "no state is bound, and nothing bounds the depth a lattice can bind from below"
    ),
)
def test_negative_kinetic_energy_well_depth_1e_12_exits_2(tmp_path, capsys):
    assert _run(tmp_path, "negative_kinetic_energy", "well_depth=1e-12")[0] == 2


def _n_spin_density_50_digits(n: int, delta: float, qs) -> np.ndarray:
    """The N-spin pointer density at each Q of `qs`, from 50-digit `decimal` binomial sums.

    The amplitude is sum_i comb(n, i) * cos^2(pi/8)**(n-i) * (-sin^2(pi/8))**i * exp(-(Q - c_i)**2 / (2 D**2)) with
    the exact centers c_i = (n - 2i)/n; its square is divided by its integral over Q,
    sqrt(pi) * D * sum_ij w_i w_j exp(-(c_i - c_j)**2 / (4 D**2)), which the grid's Riemann sum equals far below 1e-13.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        root2 = Decimal(2).sqrt()
        cos2, sin2 = (2 + root2) / 4, (2 - root2) / 4
        d2 = Decimal(delta) ** 2
        w = [math.comb(n, i) * cos2 ** (n - i) * (-sin2) ** i for i in range(n + 1)]
        centers = [Decimal(n - 2 * i) / n for i in range(n + 1)]
        overlap = [(-((Decimal(2 * k) / n) ** 2) / (4 * d2)).exp() for k in range(n + 1)]
        norm = sum(w[i] * w[j] * overlap[abs(i - j)] for i in range(n + 1) for j in range(n + 1))
        norm *= Decimal(math.pi).sqrt() * Decimal(delta)
        amps = [sum(wi * (-((Decimal(q) - ci) ** 2) / (2 * d2)).exp() for wi, ci in zip(w, centers)) for q in qs]
        return np.array([float(a * a / norm) for a in amps])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP items 1 and 11: exits 0 with a density off by 1.9e-2 of its peak at these points (about 2.5e-2 at "
        "worst): the 101 float terms, up to 0.11, cancel to about 2**-50, so their rounding dominates the sum"
    ),
)
def test_n_spin_spins_100_density_matches_a_50_digit_binomial_sum(tmp_path, capsys):
    _assert_n_spin_density_matches_the_50_digit_sum(tmp_path, 100)


def test_the_50_digit_n_spin_oracle_agrees_where_the_float_sum_is_well_conditioned(tmp_path, capsys):
    # ten spins cancel only to 2**-5, so the scenario's float sum is right here: a failure is the oracle's
    _assert_n_spin_density_matches_the_50_digit_sum(tmp_path, 10)


def _assert_n_spin_density_matches_the_50_digit_sum(tmp_path, spins: int) -> None:
    argv = ["run", "n_spin_single_system", "--param", f"spins={spins}", "--format", "csv", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = (tmp_path / "n_spin_single_system" / "fig4.csv").read_text(encoding="utf-8").splitlines()[1:]
    q, density = np.array([[float(cell) for cell in row.split(",")] for row in rows]).T
    # five grid points across the pointer's bulk, one nearest the weak value sqrt(2), 0.007 from the peak at 100 spins
    at = [int(np.argmin(np.abs(q - x))) for x in (0.0, 0.5, 1.1, math.sqrt(2.0), 2.0)]
    exact = _n_spin_density_50_digits(spins, 0.25, q[at])
    assert np.abs(density[at] - exact).max() <= 2e-13 * exact.max()


def test_three_box_n_particles_past_2_to_the_53_exits_2_before_any_compute(tmp_path, capsys, monkeypatch):
    # n * (P_k)_w reads exactly -n up to 2**53; at 2**1024 the product raised OverflowError (exit 3)
    calls = []
    monkeypatch.setattr(scenarios, "basis_occupation_probabilities", lambda *args: calls.append(args))
    for n_particles in (2**53 + 1, 2**1024):
        assert _run(tmp_path, "three_box", f"n_particles={n_particles}") == (2, None)
        err = capsys.readouterr().err
        assert err.startswith("error: parameter 'n_particles' is at most 9007199254740992") and err.count("\n") == 1
    assert calls == []


def test_three_box_n_particles_2_to_the_53_reads_its_pressure_exactly(tmp_path, capsys):
    code, results = _run(tmp_path, "three_box", f"n_particles={2**53}")
    assert code == 0 and results["pressure_weak_values"] == {"N1": 2**53, "N2": 2**53, "N3": -(2**53)}


@pytest.mark.parametrize("eta", ["1e300", "-1e300"])
def test_time_machine_eta_1e300_exits_2_before_its_grid_is_sampled(eta, tmp_path, capsys, monkeypatch):
    # the schedule refuses this eta; sampled first, the +-1e301 grid overflowed (exit 3 under -W error::RuntimeWarning)
    calls = []
    sample = timemachine.gaussian_wavefunction
    monkeypatch.setattr(timemachine, "gaussian_wavefunction", lambda *args: calls.append(args) or sample(*args))
    assert _run(tmp_path, "time_machine", f"eta={eta}") == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("error: binomial schedule N=13") and err.count("\n") == 1
    assert calls == []


def _time_machine_distortion_exact(n_terms: int, eta: float, delta_t: float, width: float) -> float:
    """||sum_n alpha_n f(. - n*delta_t/N) - f(. - eta*delta_t)|| / ||f|| for the unit Gaussian f of `width`, exactly.

    Continuous, with no grid: <f(. - a)|f(. - b)> = exp(-(a - b)**2 / (4 width**2)), the alpha_n are the exact
    binomial rationals of the float eta, and the sums run with 60 digits more than the largest alpha_n**2 has.
    """
    e = Fraction(eta)
    alpha = [math.comb(n_terms, n) * e**n * (1 - e) ** (n_terms - n) for n in range(n_terms + 1)]
    with localcontext() as ctx:
        ctx.prec = 60 + 2 * max(len(str(abs(a.numerator) // a.denominator)) for a in alpha)
        a = [Decimal(w.numerator) / w.denominator for w in alpha]
        four_w2 = 4 * Decimal(width) ** 2
        step, target = Decimal(delta_t) / n_terms, Decimal(eta) * Decimal(delta_t)
        lag = [(-((k * step) ** 2) / four_w2).exp() for k in range(n_terms + 1)]  # the overlap of shifts k steps apart
        square = sum(a[i] * a[j] * lag[abs(i - j)] for i in range(n_terms + 1) for j in range(n_terms + 1))
        square += 1 - 2 * sum(a[n] * (-((n * step - target) ** 2) / four_w2).exp() for n in range(n_terms + 1))
        return float(square.sqrt())


def test_the_exact_time_machine_distortion_agrees_where_the_grid_resolves_the_width(tmp_path, capsys):
    # the default grid's spacing is 0.026, 1/230 of the width: a failure here is the oracle's
    code, results = _run(tmp_path, "time_machine")
    exact = _time_machine_distortion_exact(13, 10.0, 1.0, 6.0)
    assert code == 0 and abs(results["distortion"] - exact) <= 1e-9 * exact


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 26: exits 1 on distortion_matches_analytic: the grid has 4096 points whatever its span, so its "
        "spacing of about 24 is four times the width of 6, and the sampled input aliases"
    ),
)
@pytest.mark.parametrize("param", ["delta_t=1e4", "delta_t=1e5", "eta=1e5"])
@pytest.mark.filterwarnings("ignore:input spectrum extends beyond a quarter of the Nyquist rate")  # the symptom
def test_time_machine_on_a_grid_coarser_than_its_width_exits_2_or_reads_the_exact_distortion(param, tmp_path, capsys):
    code, results = _run(tmp_path, "time_machine", param)
    if code != 2:
        exact = _time_machine_distortion_exact(*(results[key] for key in ("n_terms", "eta", "delta_t", "width")))
        assert code == 0 and abs(results["distortion"] - exact) <= 1e-9 * exact
