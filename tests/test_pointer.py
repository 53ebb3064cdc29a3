import math

import numpy as np
import pytest
from pointer_views import joint_state_after_impulse, momentum_shift_imaginary_part

from twostate import cli
from twostate.errors import GridOverflow, PostSelectionImpossible, ValidationError
from twostate.linalg import (
    DenseOperator,
    Grid1D,
    WaveFunction1D,
    fourier_pair,
    gaussian_wavefunction,
    hermitian_eigendecomposition,
    identity,
    pauli,
    spin_direction,
    spin_up,
    unit_density,
)
from twostate.pointer import (
    SPINS,
    GaussianPointer,
    _invert_cdf,
    _sorted_draws,
    density_mean,
    density_peak,
    ensemble_mean_estimator,
    moment_expansion_residual,
    n_spin_pointer_closed_form,
    n_spin_weights_and_centers,
    pointer_distribution_postselected,
    pointer_distribution_preselected,
    superposed_pointer,
)
from twostate.reporting import csv_table
from twostate.scenarios import get_scenario
from twostate.states import CoStateVector, StateVector, TwoStateVector
from twostate.timemachine import run_machine
from twostate.weak import weak_value

SQRT2 = np.sqrt(2.0)


def bisector_tsv() -> TwoStateVector:
    return TwoStateVector(CoStateVector.from_ket(spin_up([0, 1, 0])), StateVector(spin_up([1, 0, 0])))


def sigma_xi() -> DenseOperator:
    return spin_direction([1, 1, 0])


def test_zero_observable_leaves_a_product_state():
    pointer = GaussianPointer.for_spectrum(1.0, [0.0], points=256)
    joint = joint_state_after_impulse(StateVector([0.6, 0.8]), DenseOperator(np.zeros((2, 2))), pointer)
    gauss = pointer.initial_wavefunction().values
    assert np.abs(joint[0] - 0.6 * gauss).max() <= 1e-12
    assert np.abs(joint[1] - 0.8 * gauss).max() <= 1e-12


def test_eigenstate_input_shifts_the_pointer_rigidly():
    pointer = GaussianPointer.for_spectrum(0.5, [1.0, -1.0], points=512)
    joint = joint_state_after_impulse(StateVector(spin_up([0, 0, 1])), pauli("z"), pointer)
    q = pointer.grid.values
    expected = (np.pi * 0.25) ** -0.25 * np.exp(-((q - 1.0) ** 2) / (2 * 0.25))
    assert np.abs(joint[0] - expected).max() <= 1e-12
    assert np.abs(joint[1]).max() <= 1e-14


def test_bisector_strong_measurement_is_bimodal_with_projection_weights():
    pointer = GaussianPointer.for_spectrum(0.1, [1.0, -1.0])
    joint = joint_state_after_impulse(StateVector(spin_up([1, 0, 0])), sigma_xi(), pointer)
    q, dx = pointer.grid.values, pointer.grid.spacing
    dens = unit_density((np.abs(joint) ** 2).sum(axis=0), dx)
    upper = float(dens[q > 0].sum() * dx)
    assert upper == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-10)
    assert 1 - upper == pytest.approx(np.sin(np.pi / 8) ** 2, abs=1e-10)


@pytest.mark.parametrize("obs", [pauli("z"), sigma_xi()], ids=["sigma_z", "sigma_xi"])
def test_the_joint_state_is_a_unit_norm_amplitude_array_on_the_pointer_grid(obs):
    # the impulse is unitary, and the rectangle rule is exact to rounding for Gaussians that vanish at the grid ends
    pointer = GaussianPointer.for_spectrum(0.25, [1.0, -1.0], points=512)
    joint = joint_state_after_impulse(StateVector([0.6, 0.8j]), obs, pointer)
    assert type(joint) is np.ndarray and joint.dtype == complex and joint.shape == (2, pointer.grid.points)
    assert (np.abs(joint) ** 2).sum() * pointer.grid.spacing == pytest.approx(1.0, abs=1e-12)


def test_grid_must_cover_eigenvalue_shifts():
    pointer = GaussianPointer(1.0, Grid1D(-3.0, 3.0, 128))
    with pytest.raises(GridOverflow):
        joint_state_after_impulse(StateVector([1.0, 0.0]), pauli("z"), pointer)


def test_preselected_weak_pointer_reads_the_expectation_value():
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0])
    res = pointer_distribution_preselected(StateVector(spin_up([1, 0, 0])), sigma_xi(), pointer)
    assert res.mean == pytest.approx(1 / SQRT2, abs=1e-9)
    assert res.regime == "weak"


def test_preselected_strong_pointer_peaks_at_eigenvalues():
    pointer = GaussianPointer.for_spectrum(0.1, [1.0, -1.0])
    res = pointer_distribution_preselected(StateVector(spin_up([1, 0, 0])), sigma_xi(), pointer)
    dens = res.q_density
    q = res.q_grid.values
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:]) & (dens[1:-1] > 0.01 * dens.max())
    peaks = q[1:-1][interior]
    assert len(peaks) == 2
    assert np.allclose(sorted(peaks), [-1.0, 1.0], atol=0.01)
    assert res.regime == "strong"


def test_preselected_eigenstate_mean_is_exact():
    pointer = GaussianPointer.for_spectrum(2.0, [1.0, -1.0])
    res = pointer_distribution_preselected(StateVector(spin_up([0, 0, 1])), pauli("z"), pointer)
    assert res.mean == pytest.approx(1.0, abs=1e-12)


def test_postselected_weak_pointer_peaks_outside_the_spectrum():
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0])
    res = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    assert abs(res.peak_location - SQRT2) <= 0.05
    assert res.mean == pytest.approx(1.4072125628975, abs=1e-9)  # exact Gaussian algebra


def test_postselected_strong_pointer_prefers_plus_one():
    pointer = GaussianPointer.for_spectrum(0.1, [1.0, -1.0])
    res = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    q = res.q_grid.values
    dx = res.q_grid.spacing
    upper = float(res.q_density[q > 0].sum() * dx)
    # conditional probability of +1: cos^4 / (cos^4 + sin^4) ~ 0.9714 > 85%
    assert upper == pytest.approx(0.9714045207910317, abs=1e-9)
    assert upper > 0.85


def test_postselected_eigenstate_is_a_single_shifted_gaussian():
    up_z = spin_up([0, 0, 1])
    tsv = TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))
    pointer = GaussianPointer.for_spectrum(0.5, [1.0, -1.0])
    res = pointer_distribution_postselected(tsv, pauli("z"), pointer)
    assert res.peak_location == pytest.approx(1.0, abs=1e-9)
    assert res.mean == pytest.approx(1.0, abs=1e-9)


def test_postselected_distribution_matches_direct_gaussian_algebra():
    # independent code path: the closed-form amplitude combination
    # cos^2(pi/8) G(Q-1) - sin^2(pi/8) G(Q+1), squared and normalized
    delta = 2.5
    pointer = GaussianPointer.for_spectrum(delta, [1.0, -1.0])
    res = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    q = res.q_grid.values
    phi = np.cos(np.pi / 8) ** 2 * np.exp(-((q - 1) ** 2) / (2 * delta**2)) - np.sin(
        np.pi / 8
    ) ** 2 * np.exp(-((q + 1) ** 2) / (2 * delta**2))
    direct = np.abs(phi) ** 2
    direct /= direct.sum() * res.q_grid.spacing
    assert np.abs(direct - res.q_density).max() <= 1e-12


def test_postselected_pointer_memory_does_not_grow_with_the_spectrum():
    # the Gaussian sum adds one grid-sized term at a time; an (n, points)
    # matrix of shifted Gaussians would take 161 * 4096 * 16 bytes, about 10 MB
    import tracemalloc

    peaks = {}
    for n in (11, 161):
        obs = DenseOperator(np.diag(np.linspace(-1.0, 1.0, n)))
        hermitian_eigendecomposition(obs)  # cached on the operator, outside the trace
        ket = np.ones(n) / np.sqrt(n)
        tsv = TwoStateVector(CoStateVector.from_ket(ket), StateVector(ket))
        pointer = GaussianPointer.for_spectrum(0.5, [1.0, -1.0], points=4096)
        tracemalloc.start()
        try:
            pointer_distribution_postselected(tsv, obs, pointer)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[161] <= 2 * peaks[11]


@pytest.mark.parametrize("delta", [np.nan, np.inf, -1.0, 1e-300, 1e300])
def test_pointer_widths_must_be_finite_and_positive(delta):
    # at the parent GaussianPointer(nan, grid) was accepted, and for_spectrum(-1) reported an empty grid;
    # a width whose square under- or overflows raised ZeroDivisionError or OverflowError downstream
    with pytest.raises(ValidationError, match="pointer width"):
        GaussianPointer(delta, Grid1D(-8.0, 8.0, 256))
    with pytest.raises(ValidationError, match="pointer width"):
        GaussianPointer.for_spectrum(delta, [1.0, -1.0])


def _momentum_cases():
    pointer = GaussianPointer.for_spectrum(2.0, [1.0, -1.0], points=512)
    return {
        "postselected": lambda: pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer),
        "preselected": lambda: pointer_distribution_preselected(StateVector(spin_up([1, 0, 0])), sigma_xi(), pointer),
        "n_spin": lambda: n_spin_pointer_closed_form(6, pointer),
    }


@pytest.mark.parametrize("case", ["postselected", "preselected", "n_spin"])
def test_the_momentum_side_read_late_equals_the_eager_transform(case):
    result = _momentum_cases()[case]()
    source = result.p_source
    eager = fourier_pair(WaveFunction1D(source.grid, source.values.copy()))  # what the eager code stored
    assert result.p_grid == eager.grid
    assert np.array_equal(result.p_grid.values, eager.grid.values)
    assert np.array_equal(result.p_density, eager.density())
    if case == "preselected":  # the mixture's momentum density is the initial pointer's
        assert np.array_equal(source.values, gaussian_wavefunction(result.q_grid, 2.0).values)
    else:  # the pure pointer state whose position density is q_density
        assert np.allclose(source.density(), result.q_density, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("case", ["postselected", "preselected", "n_spin"])
def test_the_stored_wavefunction_is_read_only(case):
    result = _momentum_cases()[case]()
    with pytest.raises(ValueError, match="read-only"):
        result.p_source.values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        result.p_source.values *= 2.0


@pytest.mark.parametrize("read", ["p_source", "p_grid", "p_density"])
@pytest.mark.parametrize("case", ["postselected", "n_spin"])
def test_a_superposed_pointer_builds_its_wavefunction_on_first_read(monkeypatch, case, read):
    from twostate import pointer as pointer_module

    built = []

    def counting_wavefunction(*args, **kwargs):
        built.append(1)
        return WaveFunction1D(*args, **kwargs)

    monkeypatch.setattr(pointer_module, "WaveFunction1D", counting_wavefunction)
    result = _momentum_cases()[case]()
    assert built == [] and not result.amplitude.flags.writeable
    getattr(result, read)
    getattr(result, read)
    assert built == [1]


def test_vanishing_superposition_is_refused_before_the_resolution_check():
    # the grid cannot resolve this pointer either; the vanishing amplitude is what gets reported
    pointer = GaussianPointer(0.01, Grid1D(-1.0, 1.0, 16))
    with pytest.raises(PostSelectionImpossible):
        superposed_pointer(np.zeros(2), [0.5, -0.5], pointer)


def test_only_post_selection_refuses_a_squared_norm_below_1e_20():
    # orthogonal states along a generic axis leave rounding-sized amplitudes, about 5e-17
    axis = [1.0, 2.0, 3.0]
    tsv = TwoStateVector(CoStateVector.from_ket(spin_up([-1.0, -2.0, -3.0])), StateVector(spin_up(axis)))
    pointer = GaussianPointer.for_spectrum(0.25, [1.0, -1.0])
    with pytest.raises(PostSelectionImpossible):
        pointer_distribution_postselected(tsv, spin_direction(axis), pointer)
    # the 70-spin amplitudes sum to 2**-35, so their squared norm, about 1e-21, is small by nature
    result = n_spin_pointer_closed_form(70, pointer)
    assert np.sum(result.q_density) * result.q_grid.spacing == pytest.approx(1.0)


def test_impossible_postselection_is_flagged():
    tsv = TwoStateVector(CoStateVector.from_ket([1.0, 0.0]), StateVector([0.0, 1.0]))
    pointer = GaussianPointer.for_spectrum(1.0, [1.0, -1.0], points=256)
    with pytest.raises(PostSelectionImpossible):
        pointer_distribution_postselected(tsv, pauli("z"), pointer)


def test_strong_limit_peak_weights_converge_to_conditional_probabilities():
    from twostate.ideal import abl

    pointer = GaussianPointer.for_spectrum(0.05, [1.0, -1.0])
    res = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    dist = abl(bisector_tsv(), sigma_xi())
    q = res.q_grid.values
    dx = res.q_grid.spacing
    for value, prob in zip(dist.eigenvalues, dist.probabilities):
        window = np.abs(q - value) < 0.5
        weight = float(res.q_density[window].sum() * dx)
        assert abs(weight - prob) <= 1e-3


def test_momentum_shift_vanishes_for_real_weak_values():
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0])
    shift = momentum_shift_imaginary_part(bisector_tsv(), sigma_xi(), pointer)
    assert abs(shift) <= 1e-9
    shift_id = momentum_shift_imaginary_part(bisector_tsv(), identity(2), pointer)
    assert abs(shift_id) <= 1e-9


def test_momentum_shift_reads_the_imaginary_part():
    # (sigma_z)_w = i for the bisector pair; the exact momentum density is
    # proportional to (1 + sin 2P) exp(-D^2 P^2), whose mean is the analytic
    # value (1/D^2) exp(-1/D^2); the weak-regime reading is Im(C_w)/D^2.
    delta = 10.0
    pointer = GaussianPointer.for_spectrum(delta, [1.0, -1.0])
    tsv = bisector_tsv()
    assert weak_value(tsv, pauli("z")) == pytest.approx(1j, abs=1e-13)
    shift = momentum_shift_imaginary_part(tsv, pauli("z"), pointer)
    analytic = (1 / delta**2) * np.exp(-1 / delta**2)
    assert shift == pytest.approx(analytic, abs=1e-9)
    assert shift == pytest.approx(1 / delta**2, rel=0.02, abs=0)


def test_momentum_shift_warns_outside_the_weak_regime():
    pointer = GaussianPointer.for_spectrum(1.0, [1.0, -1.0])
    with pytest.warns(UserWarning):
        momentum_shift_imaginary_part(bisector_tsv(), sigma_xi(), pointer)


def test_moment_expansion_residual_vanishes_for_eigenstates():
    up_z = spin_up([0, 0, 1])
    tsv = TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))
    pointer = GaussianPointer.for_spectrum(2.0, [1.0, -1.0])
    assert moment_expansion_residual(tsv, pauli("z"), pointer) <= 1e-12


def test_moment_expansion_residual_decreases_with_pointer_width():
    residuals = []
    for delta in (1.0, 3.0, 10.0, 30.0):
        pointer = GaussianPointer.for_spectrum(delta, [1.0, -1.0])
        residuals.append(moment_expansion_residual(bisector_tsv(), sigma_xi(), pointer))
    assert residuals[0] > residuals[1] > residuals[2] > residuals[3]
    assert residuals[2] < residuals[1] < residuals[0]
    with pytest.raises(ValidationError):
        moment_expansion_residual(bisector_tsv(), sigma_xi(), GaussianPointer.for_spectrum(1.0, [1.0]), order=1)


def test_higher_moment_terms_shrink_the_residual():
    pointer = GaussianPointer.for_spectrum(3.0, [1.0, -1.0])
    second = moment_expansion_residual(bisector_tsv(), sigma_xi(), pointer, order=2)
    fourth = moment_expansion_residual(bisector_tsv(), sigma_xi(), pointer, order=4)
    assert fourth < second


def test_a_small_description_gives_the_unit_description_s_pointer():
    # at s = 1e-5 on the bra and the ket, the pointer's squared norm is about s**4 = 1e-20 of its unit-scale value
    s = 1e-5
    small = TwoStateVector(CoStateVector.from_ket(s * spin_up([0, 1, 0])), StateVector(s * spin_up([1, 0, 0])))
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0])
    unit = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    got = pointer_distribution_postselected(small, sigma_xi(), pointer)
    assert np.allclose(got.q_density, unit.q_density, rtol=1e-12, atol=0)
    assert got.peak_location == pytest.approx(unit.peak_location, rel=1e-12, abs=0)


@pytest.mark.parametrize("s", [1e77, 1e100])
def test_a_description_whose_pointer_norm_overflows_is_refused(s):
    # |amplitude|**2 near 1e308 (1e77) or past it (1e100): normalizing by an overflowed norm left a zero density
    huge = TwoStateVector(CoStateVector.from_ket(s * spin_up([0, 1, 0])), StateVector(s * spin_up([1, 0, 0])))
    with pytest.raises(PostSelectionImpossible, match="not finite"):
        pointer_distribution_postselected(huge, sigma_xi(), GaussianPointer.for_spectrum(10.0, [1.0, -1.0]))


def test_ensemble_estimator_is_seeded_and_calibrated():
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0])
    dist = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    a = ensemble_mean_estimator(dist, 5000, seed=0)
    b = ensemble_mean_estimator(dist, 5000, seed=0)
    assert a == b
    c = ensemble_mean_estimator(dist, 5000, seed=1)
    assert c["mean"] != a["mean"]
    # pointer-width convention: stderr ~ sqrt(2)*sigma/sqrt(n) ~ 10/sqrt(5000)
    assert 0.10 <= a["stderr"] <= 0.20
    assert abs(a["mean"] - SQRT2) <= 3 * a["stderr"]


@pytest.mark.parametrize("postselect", [True, False])
def test_spin_xi_scenario_builds_its_pointer_once(monkeypatch, postselect):
    # the ensemble samples the distribution the scenario already computed
    from twostate import pointer as pointer_module

    calls = []
    gaussian_sum = pointer_module._gaussian_sum

    def counting_sum(*args, **kwargs):
        calls.append(1)
        return gaussian_sum(*args, **kwargs)

    monkeypatch.setattr(pointer_module, "_gaussian_sum", counting_sum)
    get_scenario("spin_xi_weak").run({"postselect": str(postselect).lower()})
    assert len(calls) == 1


@pytest.mark.parametrize(
    "n_samples, seed, what",
    [(2.5, 0, "samples"), (True, 0, "samples"), (3.0, 0, "samples"), (0, 0, "samples"), (10, -1, "seed"), (10, 1.5, "seed")],
)
def test_the_sampler_refuses_non_integer_counts_and_seeds(n_samples, seed, what):
    # before these checks numpy raised its own TypeError (2.5, True, 3.0, 1.5) or ValueError (-1) here
    dist = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), GaussianPointer.for_spectrum(10.0, [1.0, -1.0]))
    with pytest.raises(ValidationError, match=what):
        ensemble_mean_estimator(dist, n_samples, seed)


# One of the 4 in 100,000 seeds whose default spin_xi_weak run fails ensemble_mean_consistent.
FAILING_SPIN_XI_SEED = 2095889927


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 7: every sample sits dx/2 low and the check targets sqrt(2), 0.007 from the true mean; "
        "the sampler and target fix of item 7 must flip this test"
    ),
)
def test_the_default_spin_xi_run_passes_at_a_seed_its_sampler_bias_fails():
    checks = dict(get_scenario("spin_xi_weak").run({"delta": 10.0}, seed=FAILING_SPIN_XI_SEED).checks)
    assert checks["ensemble_mean_consistent"]


def test_the_sorted_sampler_draws_the_failing_seed_as_unsorted_interpolation_does():
    dist = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), GaussianPointer.for_spectrum(10.0, [1.0, -1.0]))
    cdf = np.cumsum(dist.q_density) * dist.q_grid.spacing
    cdf /= cdf[-1]
    draws = np.random.default_rng(FAILING_SPIN_XI_SEED).random(5000)
    samples = np.interp(draws, cdf, dist.q_grid.values)
    assert np.array_equal(_invert_cdf(_sorted_draws(5000, FAILING_SPIN_XI_SEED), cdf, dist.q_grid.values), samples)
    estimate = get_scenario("spin_xi_weak").run({"delta": 10.0}, seed=FAILING_SPIN_XI_SEED).results["ensemble"]
    assert estimate["mean"] == float(samples.mean())
    assert estimate["stderr"] == float(np.sqrt(2.0) * samples.std(ddof=1) / np.sqrt(5000))


def _unsorted_estimate(result, n_samples: int, seed: int) -> tuple:
    """(samples, estimate) as the sampler made them before its draws were cached: draw, argsort, interpolate in place."""
    cdf = np.cumsum(result.q_density) * result.q_grid.spacing
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(n_samples)
    order = np.argsort(u)
    u[order] = np.interp(u[order], cdf, result.q_grid.values)
    spread = u.std(ddof=1) if n_samples > 1 else result.delta
    stderr = float(np.sqrt(2.0) * spread / np.sqrt(n_samples))
    return u, {"mean": float(u.mean()), "stderr": stderr, "n_samples": n_samples, "seed": seed}


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, FAILING_SPIN_XI_SEED])
@pytest.mark.parametrize("n_samples", [1, 2, 4096, 5000, 10**6])
def test_the_cached_draws_give_every_reading_and_estimate_of_unsorted_interpolation(n_samples, seed):
    dist = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), GaussianPointer.for_spectrum(10.0, [1.0, -1.0]))
    samples, expected = _unsorted_estimate(dist, n_samples, seed)
    cdf = np.cumsum(dist.q_density) * dist.q_grid.spacing
    cdf /= cdf[-1]
    assert np.array_equal(_invert_cdf(_sorted_draws(n_samples, seed), cdf, dist.q_grid.values), samples)
    got = ensemble_mean_estimator(dist, n_samples, seed)
    assert got == expected
    assert (got["mean"].hex(), got["stderr"].hex()) == (expected["mean"].hex(), expected["stderr"].hex())


def test_a_spin_xi_sweep_draws_its_ensemble_once(monkeypatch, tmp_path):
    # every value of a sweep runs at the one seed, so the five runs share one draw and one sort
    calls = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    _sorted_draws.cache_clear()
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    argv = ["sweep", "spin_xi_weak", "--param-name", "delta", "--values", "0.1,0.25,1,3,10", "--seed", "5"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert calls == [(5,)]


def test_another_seed_or_size_draws_anew():
    dist = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), GaussianPointer.for_spectrum(10.0, [1.0, -1.0]))
    for n_samples, seed in [(4096, 3), (4097, 3), (4096, 3), (4096, 4), (5000, 4), (1, 4)]:
        assert ensemble_mean_estimator(dist, n_samples, seed) == _unsorted_estimate(dist, n_samples, seed)[1]
        order, sorted_u = _sorted_draws(n_samples, seed)
        assert order.size == sorted_u.size == n_samples
        assert np.array_equal(sorted_u, np.sort(np.random.default_rng(seed).random(n_samples)))


def test_the_cached_draws_are_read_only_and_left_unchanged_by_a_run():
    dist = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), GaussianPointer.for_spectrum(10.0, [1.0, -1.0]))
    _sorted_draws.cache_clear()
    order, sorted_u = _sorted_draws(5000, 11)
    kept = order.copy(), sorted_u.copy()
    assert not order.flags.writeable and not sorted_u.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sorted_u[0] = 0.5
    ensemble_mean_estimator(dist, 5000, 11)
    again = _sorted_draws(5000, 11)
    assert again[0] is order and again[1] is sorted_u  # the run read the same entry
    assert np.array_equal(order, kept[0]) and np.array_equal(sorted_u, kept[1])


def test_preselected_ensemble_tracks_the_expectation_value():
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0])
    dist = pointer_distribution_preselected(StateVector(spin_up([1, 0, 0])), sigma_xi(), pointer)
    est = ensemble_mean_estimator(dist, 5000, seed=3)
    assert abs(est["mean"] - 1 / SQRT2) <= 3 * est["stderr"]


def test_single_sample_sharp_pointer_reads_the_eigenvalue():
    pointer = GaussianPointer.for_spectrum(0.001, [1.0, -1.0], points=8192)
    dist = pointer_distribution_preselected(StateVector(spin_up([0, 0, 1])), pauli("z"), pointer)
    est = ensemble_mean_estimator(dist, 1, seed=9)
    assert abs(est["mean"] - 1.0) <= 0.01


def test_n_spin_closed_form_matches_full_tensor_computation():
    from dense_oracles import kron_all

    for n in (2, 4, 6):
        pointer = GaussianPointer.for_spectrum(0.25, [1.0, -1.0])
        closed = n_spin_pointer_closed_form(n, pointer)
        up_x, up_y = spin_up([1, 0, 0]), spin_up([0, 1, 0])
        avg = np.zeros((2**n, 2**n), dtype=complex)
        for site in range(n):
            ops = [np.eye(2)] * n
            ops[site] = sigma_xi().matrix
            avg += kron_all(ops)
        tsv = TwoStateVector(
            CoStateVector.from_ket(kron_all([up_y] * n)), StateVector(kron_all([up_x] * n))
        )
        direct = pointer_distribution_postselected(tsv, DenseOperator(avg / n), pointer)
        assert np.abs(direct.q_density - closed.q_density).max() <= 1e-10


def test_n_spin_centers_span_the_average_spectrum_and_weights_sum_to_cos_power():
    weights, centers = n_spin_weights_and_centers(6)
    assert centers.min() == pytest.approx(-1.0, abs=0) and centers.max() == pytest.approx(1.0, abs=0)
    # signed weights sum to cos(pi/4)^n
    assert weights.sum() == pytest.approx(np.cos(np.pi / 4) ** 6, abs=1e-12)


def test_the_spin_count_ends_where_the_middle_binomial_coefficient_leaves_the_float_range():
    # each weight takes its binomial coefficient as a float, the middle one the largest
    assert SPINS.hi == 1029 and float(math.comb(1029, 514)) < math.inf
    with pytest.raises(OverflowError):
        float(math.comb(1030, 515))
    assert np.isfinite(n_spin_weights_and_centers(1029)[0]).all()
    with pytest.raises(ValidationError, match=r"spins must be an integer in \[1, 1029\], got 1030"):
        n_spin_weights_and_centers(1030)


@pytest.mark.parametrize("n", [0, 2.5, 3.0, "3", True], ids=["zero", "fraction", "integral_float", "string", "bool"])
def test_the_spin_count_must_be_a_positive_integer(n):
    with pytest.raises(ValidationError, match="spins must be an integer"):
        n_spin_weights_and_centers(n)


def test_n_spin_narrow_pointer_resolves_the_eigenvalue_comb():
    pointer = GaussianPointer.for_spectrum(0.01, [1.0, -1.0], points=8192)
    res = n_spin_pointer_closed_form(8, pointer)
    dens = res.q_density
    q = res.q_grid.values
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:]) & (dens[1:-1] > 0.01 * dens.max())
    peaks = q[1:-1][interior]
    spacing = np.diff(sorted(peaks))
    assert np.allclose(spacing, 2 / 8, atol=0.01)


def test_time_machine_is_the_identity_at_eta_0_and_a_rigid_shift_at_eta_1():
    grid = Grid1D(-30.0, 30.0, 1024)
    fn = gaussian_wavefunction(grid, 1.0)
    same = run_machine(fn, 4, 0.0, 2.0)
    assert np.abs(same.final_fn.values - fn.values).max() <= 1e-12

    shifted = run_machine(fn, 4, 1.0, 2.0)
    target = gaussian_wavefunction(grid, 1.0, center=2.0)
    assert np.abs(shifted.final_fn.values - target.values).max() <= 1e-12


def test_shift_superposition_rejects_overflowing_shifts():
    grid = Grid1D(-10.0, 10.0, 256)
    fn = gaussian_wavefunction(grid, 1.0)
    with pytest.raises(GridOverflow):
        run_machine(fn, 1, 1.0, 8.0)


def test_pointers_narrower_than_two_grid_spacings_are_refused():
    grid = Grid1D(-1.0, 1.0, 4097)
    h = grid.spacing
    for offset in (0.0, 0.3 * h, 0.5 * h):  # from D = 2h up, the Riemann sum is exact wherever the peak sits
        riemann = np.exp(-(((grid.values - offset) / (2 * h)) ** 2)).sum() * h
        assert abs(riemann / (np.sqrt(np.pi) * 2 * h) - 1.0) <= 1e-15
    GaussianPointer(2 * h, grid).check_resolves()
    with pytest.raises(ValidationError):
        GaussianPointer(1.99 * h, grid).check_resolves()


def test_fourier_shifts_reject_a_zero_wavefunction():
    zero = WaveFunction1D(Grid1D(-5.0, 5.0, 64), np.zeros(64))
    with pytest.raises(ValidationError):
        run_machine(zero, 4, 2.0, 0.1)


def test_csv_and_summary_outputs_are_well_formed():
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0], points=256)
    res = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    summary = res.summary()
    assert set(summary) == {"peak", "mean", "delta", "regime"}
    q_csv = csv_table(["Q", "probability"], [res.q_grid.values, res.q_density])
    assert q_csv.startswith("Q,probability\n")
    assert len(q_csv.strip().split("\n")) == 257
    assert csv_table(["P", "probability"], [res.p_grid.values, res.p_density]).startswith("P,probability\n")
    # distributions normalize on their grids
    assert res.q_density.sum() * res.q_grid.spacing == pytest.approx(1.0, abs=1e-8)
    assert res.p_density.sum() * res.p_grid.spacing == pytest.approx(1.0, abs=1e-8)


def test_scaled_coupling_scales_the_shifts():
    pointer = GaussianPointer.for_spectrum(0.5, [2.0, -2.0], points=1024)
    # a coupling integral of 2 is a unit coupling to the observable 2*C
    doubled = DenseOperator(2.0 * pauli("z").matrix)
    res = pointer_distribution_preselected(StateVector(spin_up([0, 0, 1])), doubled, pointer)
    assert res.mean == pytest.approx(2.0, abs=1e-10)


def test_weak_limit_mean_approaches_the_weak_value():
    pointer = GaussianPointer.for_spectrum(30.0, [1.0, -1.0])
    res = pointer_distribution_postselected(bisector_tsv(), sigma_xi(), pointer)
    assert abs(res.mean - SQRT2) <= 0.02


@pytest.mark.parametrize("end", [0, -1])
def test_a_density_peak_at_a_grid_end_is_that_grid_point(end):
    grid = Grid1D(0.0, 15.0, 16)
    density = np.exp(-np.arange(16.0))
    density = density if end == 0 else density[::-1]
    assert density_peak(grid, density) == grid.values[end]


def test_a_zero_second_difference_at_the_maximum_gives_the_grid_point():
    # (1 - 2**-53) - 2 rounds to -1 (a tie, to even), so y0 - 2 y1 + y2 is 0 though y0 < y1 = y2
    grid = Grid1D(0.0, 15.0, 16)
    density = np.zeros(16)
    density[4:7] = np.nextafter(1.0, 0.0), 1.0, 1.0
    assert density[4] - 2 * density[5] + density[6] == 0.0
    assert density_peak(grid, density) == grid.values[5] == 5.0
    density[4:7] = 0.5, 1.0, 0.25
    assert density_peak(grid, density) == pytest.approx(4.9, rel=0, abs=1e-15)  # the parabola through the three


def test_the_density_mean_is_the_riemann_sum_of_q_times_the_density():
    grid = Grid1D(0.0, 15.0, 16)
    density = np.zeros(16)
    density[4:7] = 0.25, 0.5, 0.25
    assert density_mean(grid, density) == 5.0
