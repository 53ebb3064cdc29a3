import json
import math
import warnings
from dataclasses import FrozenInstanceError
from decimal import Decimal, getcontext

import numpy as np
import pytest

import precise
from twostate.errors import GridOverflow, ResourceLimit, ValidationError
from twostate.linalg import Grid1D, WaveFunction1D, gaussian_wavefunction
from shell_dilations import (
    GRAVITATIONAL_CONSTANT,
    LIGHT_SPEED,
    gr_dilation,
    radius_schedule,
    shell_pair_dilation,
    sr_dilation,
)
from twostate import timemachine
from twostate.timemachine import (
    SPECTRAL_MASK_RTOL,
    _prepare_input,
    _spectrum_weight_above,
    gaussian_input,
    gaussian_shift_distortion,
    log_square_sum,
    log_square_sums,
    run_machine,
    success_scaling_probe,
)

# Frozen from the 50-digit direct-summation oracle (decimal_distortion_oracle
# below) for N=13, eta=10, delta_t=1, unit-width Gaussian on [-40, 40] x 4096.
GOLDEN_DISTORTION = 1334.9922252902283725693971873725612628


def decimal_distortion_oracle(n_terms, eta, delta_t, width, lo, hi, points, digits=50):
    """Direct summation with exact integer weights and Decimal Gaussians."""
    getcontext().prec = digits
    assert eta == int(eta), "oracle supports integer amplification factors"
    eta = int(eta)
    weights = [
        math.comb(n_terms, i) * eta**i * (1 - eta) ** (n_terms - i) for i in range(n_terms + 1)
    ]
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
    wd = Decimal(str(width))
    amp = 1 / (pi * wd * wd).sqrt().sqrt()
    dx = (Decimal(str(hi)) - Decimal(str(lo))) / (points - 1)
    num2 = Decimal(0)
    den2 = Decimal(0)
    for j in range(points):
        q = Decimal(str(lo)) + j * dx
        superposed = Decimal(0)
        for i in range(n_terms + 1):
            x = q - Decimal(i) * Decimal(str(delta_t)) / n_terms
            superposed += weights[i] * amp * (-(x * x) / (2 * wd * wd)).exp()
        x = q - Decimal(eta) * Decimal(str(delta_t))
        target = amp * (-(x * x) / (2 * wd * wd)).exp()
        sample = amp * (-(q * q) / (2 * wd * wd)).exp()
        num2 += (superposed - target) ** 2
        den2 += sample * sample
    return (num2 / den2).sqrt()


def test_the_smallest_register_has_two_equal_halves():
    # alpha = (1/2, 1/2): S(1) = 1/2 and S(2) = 1/16 + 1/4 + 1/16 = 3/8
    assert precise.binomial_weights(1, 0.5) == [0.5, 0.5]
    assert log_square_sums(1, 0.5) == pytest.approx((math.log(0.5), math.log(0.375)), rel=1e-15, abs=0)


def test_binomial_weights_always_sum_to_exactly_one():
    for n_terms in (1, 5, 13, 31, 64):
        for eta in (-3.0, 0.25, 1.0, 10.0, 50.0):
            assert precise.weight_sum(precise.binomial_weights(n_terms, eta)) == 1


def test_figure_schedule_weights_are_exact_integers():
    weights = precise.binomial_weights(13, 10.0)
    for n, w in enumerate(weights):
        expected = math.comb(13, n) * 10**n * (-9) ** (13 - n)
        assert w == expected and w.denominator == 1
    assert weights[0] == -(9**13)
    assert float(weights[7]) == pytest.approx(math.comb(13, 7) * 1e7 * 9**6, abs=0)


# eta on each side of 0, 1/2 and 1, dyadic and not; N = 1000 only where eta's denominator is at most 2**7
LOG_SQUARE_SUM_ETAS = (
    -(2**-10), 2**-20, 2**-7, 0.3, 0.5 - 2**-30, 0.5, 0.5 + 2**-20, 0.9, 1 - 2**-10, 1.0, 1 + 2**-10, 1.7, -2.0, 10.0, 64.0
)


@pytest.mark.parametrize("eta", LOG_SQUARE_SUM_ETAS)
def test_log_square_sums_match_the_exact_square_sum(eta):
    # the float recurrence against the exact rational sum, at N and N + 1 of each pass, to 2e-14 * N in ln S
    sizes = (1, 2, 13, 60, 121, 400) + ((1000,) if eta.as_integer_ratio()[1] <= 2**7 else ())
    for n_terms in sizes:
        for n, got in zip((n_terms, n_terms + 1), log_square_sums(n_terms, eta)):
            exact = precise.log(precise.square_sum(n, eta))
            assert abs(float(Decimal(got) - exact)) <= 2e-14 * n, (n, got, exact)


def test_interpolation_regime_distortion_is_small():
    # oracle-chosen interpolation configuration: eta in (0,1), short span
    grid = Grid1D(-40.0, 40.0, 4096)
    fn = gaussian_wavefunction(grid, 1.0)
    result = run_machine(fn, 13, 0.5, 0.25)
    assert result.distortion < 1e-3
    analytic = gaussian_shift_distortion(13, 0.5, 0.25, 1.0, grid)
    assert result.distortion == pytest.approx(analytic, rel=1e-9, abs=0)


def test_zero_span_schedule_is_the_identity():
    grid = Grid1D(-40.0, 40.0, 2048)
    fn = gaussian_wavefunction(grid, 1.0)
    result = run_machine(fn, 13, 10.0, 0.0)
    assert result.distortion == 0.0
    assert np.abs(result.final_fn.values - fn.values).max() <= 1e-12


def test_figure_configuration_matches_the_frozen_oracle_value():
    grid = Grid1D(-40.0, 40.0, 4096)
    fn = gaussian_wavefunction(grid, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_machine(fn, 13, 10.0, 1.0)
    assert result.distortion == pytest.approx(GOLDEN_DISTORTION, rel=1e-10, abs=0)
    analytic = gaussian_shift_distortion(13, 10.0, 1.0, 1.0, grid)
    assert analytic == pytest.approx(GOLDEN_DISTORTION, rel=1e-10, abs=0)


@pytest.mark.parametrize("width", [np.nan, 0.0, -1.0, 1e-300, 1e300])
def test_analytic_distortion_refuses_a_width_it_cannot_use(width):
    # at the parent width=nan returned nan, and 1e-300 or 1e300 raised ZeroDivisionError or OverflowError
    with pytest.raises(ValidationError, match="width"):
        gaussian_shift_distortion(13, 10.0, 1.0, width, Grid1D(-40.0, 40.0, 4096))


def test_decimal_oracle_reproduces_the_implementation_on_a_reduced_grid():
    # same construction, smaller grid so the high-precision sum stays cheap
    grid = Grid1D(-40.0, 40.0, 512)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_machine(gaussian_wavefunction(grid, 1.0), 13, 10.0, 1.0)
    oracle = float(decimal_distortion_oracle(13, 10, 1.0, 1.0, -40.0, 40.0, 512))
    assert result.distortion == pytest.approx(oracle, rel=1e-10, abs=0)


def test_distortion_decreases_with_more_terms_at_fixed_span():
    grid = Grid1D(-80.0, 92.0, 4096)
    fn = gaussian_wavefunction(grid, 6.0)
    values = []
    for n_terms in (8, 13, 21, 34):
        values.append(run_machine(fn, n_terms, 10.0, 1.0).distortion)
    assert values[0] > values[1] > values[2] > values[3]


def test_rapid_spectrum_check_warns_on_rough_inputs():
    grid = Grid1D(-5.0, 5.0, 64)
    fn = gaussian_wavefunction(grid, 0.2)
    k = 2 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    assert _spectrum_weight_above(np.abs(np.fft.fft(fn.values)) ** 2, k, grid.spacing) > 1e-6
    with pytest.warns(UserWarning):
        run_machine(fn, 4, 0.5, 0.1)


def test_run_machine_rejects_schedules_that_leave_the_low_end():
    # eta < 0 carries the net shift below the grid: an FFT shift would wrap around
    grid = Grid1D(-10.0, 10.0, 256)
    fn = gaussian_wavefunction(grid, 1.0)
    with pytest.raises(GridOverflow):
        run_machine(fn, 8, -9.0, 1.0)


def test_run_machine_rejects_offgrid_schedules():
    # an FFT shift would wrap around
    grid = Grid1D(-10.0, 10.0, 256)
    fn = gaussian_wavefunction(grid, 1.0)
    with pytest.raises(GridOverflow):
        run_machine(fn, 8, 9.0, 1.0)


def test_time_machine_scenario_makes_one_forward_fft(monkeypatch):
    # the masked spectrum serves both the shift and the Nyquist check, and a second run on the same grid reuses it
    from twostate.scenarios import get_scenario

    calls = []
    fft = np.fft.fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    gaussian_input.cache_clear()
    get_scenario("time_machine").run({})
    assert len(calls) == 1
    get_scenario("time_machine").run({"n_terms": 20})
    assert len(calls) == 1


def test_time_machine_scenario_evaluates_its_multiplier_only_where_its_spectra_are_nonzero(monkeypatch):
    # the run's masked spectrum keeps 43 of the grid's 4096 components, the analytic Gaussian spectrum 217:
    # B(k) is evaluated there and nowhere else, never on a grid-length array
    from twostate import timemachine
    from twostate.scenarios import get_scenario

    sizes = []
    multiplier = timemachine._binomial_multiplier

    def counting(k, *args):
        sizes.append(k.size)
        return multiplier(k, *args)

    monkeypatch.setattr(timemachine, "_binomial_multiplier", counting)
    assert get_scenario("time_machine").run({}).passed
    assert sizes == [43, 217]


def _scenario_outputs(result):
    """The scenario's results.json payload and its fig5 columns, as bytes."""
    header, (grid, *columns) = result.tables["fig5.csv"]()
    return json.dumps(result.to_dict(), sort_keys=True), header, repr(grid), [c.tobytes() for c in columns]


# the benchmark's n_terms sweep, then other eta, delta_t and width on fresh or shared grids
SCENARIO_SWEEP = [{"n_terms": n} for n in (13, 20, 40, 60)] + [
    {"eta": 0.5, "n_terms": 20},
    {"eta": 2.0, "delta_t": 3.0},
    {"width": 2.0},
    {"width": 2.0, "n_terms": 5},
]


def test_the_scenario_on_the_cached_gaussian_input_writes_the_uncached_outputs_byte_for_byte(monkeypatch):
    from twostate import scenarios

    spec = scenarios.get_scenario("time_machine")
    gaussian_input.cache_clear()
    timemachine._gaussian_power.cache_clear()
    cached = [_scenario_outputs(spec.run(params)) for params in SCENARIO_SWEEP]
    assert gaussian_input.cache_info().hits > 0 and timemachine._gaussian_power.cache_info().hits > 0
    # fig5's "original" column is the Gaussian as sampled, not the run's renormalized copy
    grid = Grid1D(-48.0, 58.0, 4096)  # the default run's grid: 8 widths of 6 either side, and the reach 10 of eta 10
    assert cached[0][2] == repr(grid)
    assert cached[0][3][0] == (np.abs(gaussian_wavefunction(grid, 6.0).values) ** 2).tobytes()

    monkeypatch.setattr(timemachine, "_gaussian_power", timemachine._gaussian_power.__wrapped__)  # the exact spectrum
    monkeypatch.setattr(scenarios, "gaussian_input", gaussian_wavefunction)  # run_machine prepares the samples
    assert [_scenario_outputs(spec.run(params)) for params in SCENARIO_SWEEP] == cached


def test_runs_on_the_cached_gaussian_input_equal_runs_on_its_samples_bit_for_bit():
    gaussian_input.cache_clear()
    timemachine._gaussian_power.cache_clear()
    for width in (1.0, 6.0):
        grid = Grid1D(-8.0 * width, 8.0 * width + 10.0, 4096)
        fn = gaussian_wavefunction(grid, width)
        for n_terms in (13, 20, 40, 60):
            cached = run_machine(gaussian_input(grid, width), n_terms, 10.0, 1.0)
            plain = run_machine(fn, n_terms, 10.0, 1.0)
            assert cached.final_fn.values.tobytes() == plain.final_fn.values.tobytes()
            assert cached.final_fn.grid == plain.final_fn.grid
            assert (cached.distortion, cached.success_prob) == (plain.distortion, plain.success_prob)
            analytic = full_band_machine(fn, n_terms, 10.0, 1.0, width)[3]
            assert gaussian_shift_distortion(n_terms, 10.0, 1.0, width, grid) == analytic
    for cache in (gaussian_input, timemachine._gaussian_power):
        assert (cache.cache_info().misses, cache.cache_info().hits) == (2, 6)


def _bits(grid, width):
    """The bits of a grid's bounds, its point count and the bits of a width."""
    return float(grid.lo).hex(), float(grid.hi).hex(), grid.points, float(width).hex()


def test_gaussian_inputs_and_spectra_are_keyed_by_the_bits_of_the_bounds_and_the_width():
    # Grid1D equality takes -0.0 for 0.0, so an entry keyed by value would hand one grid the other's input
    gaussian_input.cache_clear()
    timemachine._gaussian_power.cache_clear()
    above, wider = math.nextafter(40.0, math.inf), math.nextafter(2.0, math.inf)
    bounds = [(0.0, 40.0, 2.0), (-0.0, 40.0, 2.0), (-40.0, above, 2.0), (-40.0, 40.0, 2.0), (-40.0, 40.0, wider)]
    cases = [(Grid1D(lo, hi, 256), width) for lo, hi, width in bounds]
    for grid, width in cases:
        machine_input = gaussian_input(grid, width)
        assert _bits(machine_input.grid, width) == _bits(grid, width)
        assert machine_input.spectrum.tobytes() == _prepare_input(gaussian_wavefunction(grid, width)).spectrum.tobytes()
        gaussian_shift_distortion(13, 0.5, 1.0, width, grid)
    assert gaussian_input.cache_info().currsize == 5
    assert timemachine._gaussian_power.cache_info().currsize == 5
    powers = [timemachine._gaussian_power(grid, width)[2] for grid, width in cases]
    assert timemachine._gaussian_power.cache_info().currsize == 5  # each the entry that the distortion made
    assert powers[-1].tobytes() == timemachine._gaussian_power.__wrapped__(*cases[-1])[2].tobytes()
    assert powers[-1].tobytes() != powers[-2].tobytes()


def test_cached_gaussian_inputs_and_spectra_are_read_only():
    grid = Grid1D(-40.0, 40.0, 4096)
    machine_input = gaussian_input(grid, 1.0)
    assert gaussian_input(grid, 1.0) is machine_input
    gaussian_power = timemachine._gaussian_power(grid, 1.0)
    assert timemachine._gaussian_power(grid, 1.0) is gaussian_power
    arrays = [machine_input.spectrum, machine_input.kept, machine_input.power, machine_input.k, *gaussian_power]
    for array in arrays + [machine_input.grid.values]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(FrozenInstanceError):
        machine_input.rough = True
    run_machine(machine_input, 13, 0.5, 1.0)  # a run multiplies a copy of the spectrum
    assert machine_input.spectrum.tobytes() == gaussian_input(grid, 1.0).spectrum.tobytes()


def test_the_analytic_distortion_takes_no_sample_of_its_gaussian(monkeypatch):
    # every sample of a unit Gaussian on a grid of spacing 1.3e5 underflows to 0, so the samples cannot be prepared;
    # the exact spectrum comes from the grid's wavenumbers alone and still gives the distortion
    grid = Grid1D(-1e6, 1e6, 16)
    with pytest.raises(ValidationError, match="zero wavefunction"):
        gaussian_input(grid, 1.0)
    want = full_band_gaussian_distortion(grid, 13, 10.0, 1.0, 1.0)
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: pytest.fail("an FFT ran"))
    assert gaussian_shift_distortion(13, 10.0, 1.0, 1.0, grid) == want
    assert math.isfinite(want)


def test_every_run_on_a_rough_cached_input_warns():
    rough = gaussian_input(Grid1D(-5.0, 5.0, 64), 0.2)
    assert rough.rough
    for _ in range(2):
        with pytest.warns(UserWarning, match="Nyquist"):
            run_machine(rough, 4, 0.5, 0.1)


def test_a_cached_input_refuses_a_larger_span_that_leaves_the_grid():
    # the support, |f| above 1e-12 of its peak, reaches |q| = 7.43: a shift of 2 fits on [-10, 10], one of 8 does not
    machine_input = gaussian_input(Grid1D(-10.0, 10.0, 256), 1.0)
    assert run_machine(machine_input, 8, 2.0, 1.0).success_prob > 0
    with pytest.raises(GridOverflow):
        run_machine(machine_input, 8, 2.0, 4.0)
    with pytest.raises(GridOverflow):
        run_machine(machine_input, 8, -2.0, 4.0)
    assert run_machine(machine_input, 8, 2.0, 1.0).success_prob > 0


def test_refusals_keep_their_order(monkeypatch):
    # span, then schedule, then the input (zero, then representation), then the grid, then the Nyquist warning
    grid = Grid1D(-10.0, 10.0, 256)
    zero = WaveFunction1D(grid, np.zeros(256))
    momentum = WaveFunction1D(grid, gaussian_wavefunction(grid, 1.0).values, "momentum")
    with pytest.raises(ValidationError, match="delta_t"):
        run_machine(zero, 0, math.nan, -1.0)
    with pytest.raises(ValidationError, match="n_terms"):
        run_machine(zero, 0, 10.0, 1.0)
    with pytest.raises(ResourceLimit):
        run_machine(zero, 121, 10.0, 1.0)
    with pytest.raises(ValidationError, match="zero wavefunction"):
        run_machine(zero, 8, 9.0, 1.0)
    with pytest.raises(ValidationError, match="position representation"):
        run_machine(momentum, 8, 9.0, 1.0)
    rough = gaussian_input(Grid1D(-5.0, 5.0, 64), 0.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(GridOverflow):
            run_machine(rough, 4, 0.5, 10.0)
    assert caught == []
    with pytest.raises(ValidationError, match="n_terms"):
        gaussian_shift_distortion(0, 10.0, -1.0, math.nan, grid)
    with pytest.raises(ValidationError, match="delta_t"):
        gaussian_shift_distortion(13, 10.0, -1.0, math.nan, grid)
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: pytest.fail("an FFT ran"))
    with pytest.raises(ValidationError, match="width"):
        gaussian_shift_distortion(13, 10.0, 1.0, math.nan, grid)
    with pytest.raises(ValidationError, match="width"):
        gaussian_input(grid, 1e-300)


def _full_band_multiplier(grid, n_terms, eta, delta_t):
    """k, B(k) and the weights |B(k) - exp(-i*k*eta*delta_t)|**2 on every wavenumber of the grid."""
    k = 2 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    multiplier = (eta * np.exp(-1j * k * delta_t / n_terms) + (1.0 - eta)) ** n_terms
    return k, multiplier, np.abs(multiplier - np.exp(-1j * k * (eta * delta_t))) ** 2


def full_band_gaussian_distortion(grid, n_terms, eta, delta_t, width):
    """gaussian_shift_distortion's number with its weights on every wavenumber of the grid."""
    k, _, miss = _full_band_multiplier(grid, n_terms, eta, delta_t)
    amp = (np.pi * width**2) ** -0.25
    gaussian = np.abs(amp * np.sqrt(2 * np.pi) * width * np.exp(-(width**2) * k**2 / 2) / grid.spacing) ** 2
    return float(np.sqrt(np.sum(gaussian * miss) / np.sum(gaussian)))


def full_band_machine(fn, n_terms, eta, delta_t, width):
    """run_machine's and gaussian_shift_distortion's numbers with B(k) and its weights on every wavenumber of the grid.

    Returns the superposition, the distortion, the success probability and the analytic Gaussian distortion.
    """
    fn = fn.normalized()
    spacing = fn.grid.spacing
    _, multiplier, miss = _full_band_multiplier(fn.grid, n_terms, eta, delta_t)
    spec = np.fft.fft(fn.values)
    spec[np.abs(spec) < SPECTRAL_MASK_RTOL * np.abs(spec).max()] = 0.0
    superposed = np.fft.ifft(spec * multiplier)
    power = np.abs(spec) ** 2
    distortion = float(np.sqrt(np.sum(power * miss) / np.sum(power)))
    norm0 = math.exp(-0.5 * log_square_sums(n_terms, eta)[0])
    success = float(np.sum(np.abs(norm0 / math.sqrt(n_terms + 1) * superposed) ** 2) * spacing)
    return superposed, distortion, success, full_band_gaussian_distortion(fn.grid, n_terms, eta, delta_t, width)


@pytest.mark.parametrize("eta", [-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("n_terms", [1, 2, 13, 60, 115])
def test_the_multiplier_on_the_spectral_support_equals_the_full_band_evaluation_bit_for_bit(n_terms, eta):
    # a zero spectral component meets only zero power, so leaving it out changes no bit of any output
    for delta_t in (0.0, 1.0, 3.0):
        for width in (1.0, 6.0):
            grid = Grid1D(-8.0 * width + min(0.0, eta * delta_t), 8.0 * width + max(delta_t, eta * delta_t), 4096)
            fn = gaussian_wavefunction(grid, width)
            run = run_machine(fn, n_terms, eta, delta_t)
            superposed, distortion, success, analytic = full_band_machine(fn, n_terms, eta, delta_t, width)
            assert run.final_fn.values.tobytes() == superposed.tobytes()
            assert run.distortion == distortion and run.success_prob == success
            assert gaussian_shift_distortion(n_terms, eta, delta_t, width, grid) == analytic


def test_time_machine_scenario_makes_three_recurrence_passes(monkeypatch):
    # the range check before the grid, the run's N0, and one pass for both sizes N and N+1 of the scaling probe
    from twostate.scenarios import get_scenario

    passes = []
    recurrence = timemachine.log_square_sums

    def counting_recurrence(*args):
        passes.append(args)
        return recurrence(*args)

    monkeypatch.setattr(timemachine, "log_square_sums", counting_recurrence)
    get_scenario("time_machine").run({})
    assert passes == [(13, 10.0)] * 3


def test_sr_dilation_values():
    assert sr_dilation(0.0, 5.0) == 0.0
    assert sr_dilation(0.6 * LIGHT_SPEED, 1.0) == pytest.approx(0.2, abs=1e-12)
    assert sr_dilation(0.999999 * LIGHT_SPEED, 1.0) == pytest.approx(1.0, abs=2e-3)
    with pytest.raises(ValidationError):
        sr_dilation(LIGHT_SPEED, 1.0)


def test_gr_dilation_values():
    assert gr_dilation(0.0, 10.0, 1.0) == 0.0
    assert gr_dilation(5.972e24, 1e30, 1.0) == pytest.approx(0.0, abs=1e-15)
    # Earth-mass shell at 6.4e6 m for one second: about 7e-10 s
    lag = gr_dilation(5.972e24, 6.4e6, 1.0)
    assert lag == pytest.approx(6.93e-10, rel=1e-2, abs=0)
    rs = 2 * GRAVITATIONAL_CONSTANT * 5.972e24 / LIGHT_SPEED**2
    with pytest.raises(ValidationError):
        gr_dilation(5.972e24, 0.9 * rs, 1.0)


def test_radius_schedule_round_trips_and_monotonicity():
    # the rest radius's own lag, rs/(2*R0) ~ 4.4e-16, is below 1e-12 and still kept
    mass, r0 = 5.972e24, 1e13
    assert 2 * GRAVITATIONAL_CONSTANT * mass / LIGHT_SPEED**2 / r0 < 1e-12
    for delta_t in (1e-10, 1e-4):
        radii = radius_schedule(4, delta_t, mass, r0, external_t=1.0)
        assert radii[0] == r0
        assert np.all(np.diff(radii[1:]) < 0)  # larger lag -> smaller radius
        for n in range(1, 5):
            lag = shell_pair_dilation(mass, r0, radii[n], 1.0)
            target = n * delta_t / 4
            assert lag == pytest.approx(target, rel=1e-12, abs=0)  # approx adds abs=1e-12 otherwise


def test_radius_schedule_simplified_form_agrees_when_rest_dilation_is_negligible():
    # the closed form that drops the rest radius's lag: 1 - sqrt(1 - rs/R_n) = delta_t_n / T
    n_terms, delta_t, mass, r0, external_t = 4, 1e-4, 5.972e24, 1e13, 1.0
    rs = 2 * GRAVITATIONAL_CONSTANT * mass / LIGHT_SPEED**2
    assert rs / r0 < 1e-12
    full = radius_schedule(n_terms, delta_t, mass, r0, external_t)
    x = np.arange(1, n_terms + 1) * delta_t / n_terms / external_t
    simplified = rs / (x * (2.0 - x))
    assert np.abs(full[1:] / simplified - 1).max() <= 1e-9


def test_radius_schedule_rejects_unachievable_lags():
    with pytest.raises(ValidationError):
        radius_schedule(2, 2.0, 5.972e24, 1e13, external_t=1.0)


def test_run_machine_zero_span_success_probability_is_exact():
    grid = Grid1D(-40.0, 40.0, 2048)
    fn = gaussian_wavefunction(grid, 1.0)
    run = run_machine(fn, 13, 10.0, 0.0)
    norm0_sq = 1.0 / float(precise.square_sum(13, 10.0))
    assert run.success_prob == pytest.approx(norm0_sq / 14.0, rel=1e-12, abs=0)
    assert run.distortion == 0.0


def correlated_rows(fn, n_terms, eta, delta_t):
    """The literal correlated register rows N0 * alpha_n * f(q - delta_t_n), one FFT pair each."""
    weights = precise.binomial_weights(n_terms, eta)
    qos_initial = np.array([float(w) for w in weights]) / math.sqrt(float(precise.square_sum(n_terms, eta)))
    shifts = np.arange(n_terms + 1) / n_terms * delta_t
    spec = _prepare_input(fn).spectrum
    k = 2 * np.pi * np.fft.fftfreq(fn.grid.points, d=fn.grid.spacing)
    return np.array([a * np.fft.ifft(spec * np.exp(-1j * k * s)) for a, s in zip(qos_initial, shifts)])


def test_run_machine_final_function_and_distortion_match_their_position_space_forms():
    # final_fn against the literal row sum; distortion against the position-space
    # distance ||final_fn - ifft(FFT(f) * exp(-i k eta delta_t))|| / ||f||
    grid = Grid1D(-40.0, 40.0, 2048)
    fn = gaussian_wavefunction(grid, 1.0)
    run = run_machine(fn, 13, 0.6, 1.0)
    norm0 = 1.0 / math.sqrt(float(precise.square_sum(13, 0.6)))
    row_sum = correlated_rows(fn, 13, 0.6, 1.0).sum(axis=0) / norm0
    assert np.abs(run.final_fn.values - row_sum).max() <= 1e-12
    unit = fn.normalized()
    spec = _prepare_input(fn).spectrum
    k = 2 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    target = np.fft.ifft(spec * np.exp(-1j * k * 0.6))
    distance = np.sqrt(np.sum(np.abs(run.final_fn.values - target) ** 2) * grid.spacing) / unit.norm()
    assert run.distortion == pytest.approx(distance, rel=1e-12, abs=0)


@pytest.mark.parametrize("width", [2.0, 6.0, 12.0])
@pytest.mark.parametrize("eta", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("n_terms", [13, 40, 100])
def test_run_machine_distortion_matches_the_analytic_gaussian_value(n_terms, eta, width):
    # the scenario's grid; a position-space norm of the same samples is off by up to 3.0e-12 at (100, 0.5, 12)
    lo = -8.0 * width + min(0.0, eta)
    hi = 8.0 * width + max(1.0, eta)
    grid = Grid1D(lo, hi, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_machine(gaussian_wavefunction(grid, width), n_terms, eta, 1.0)
    analytic = gaussian_shift_distortion(n_terms, eta, 1.0, width, grid)
    assert run.distortion == pytest.approx(analytic, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "n_terms, eta",
    [(0, 10.0), (-2, 10.0), (2.5, 10.0), (13.0, 10.0), (True, 10.0), (13, math.nan), (13, math.inf)],
)
def test_analytic_distortion_refuses_a_schedule_it_cannot_build(n_terms, eta):
    # unchecked, these give 1.414, 29.7, 6.47 or nan without a word
    with pytest.raises(ValidationError, match="n_terms|eta"):
        gaussian_shift_distortion(n_terms, eta, 1.0, 1.0, Grid1D(-40.0, 40.0, 4096))


def test_run_machine_staged_rows_contract_to_the_final_function():
    # second, literal code path: sum the correlated rows directly
    grid = Grid1D(-40.0, 40.0, 2048)
    fn = gaussian_wavefunction(grid, 1.0)
    for eta in (0.6, 2.0):
        run = run_machine(fn, 5, eta, 1.0)
        norm0 = 1.0 / math.sqrt(float(precise.square_sum(5, eta)))
        correlated = correlated_rows(fn, 5, eta, 1.0)
        naive = correlated.sum(axis=0) / norm0
        assert np.abs(naive - run.final_fn.values).max() <= 1e-12
        # post-selecting the uniform register state <final| = (1, ..., 1)/sqrt(N+1)
        contracted = correlated.sum(axis=0) / math.sqrt(6)
        assert np.abs(contracted - norm0 / math.sqrt(6) * run.final_fn.values).max() <= 1e-14
        assert np.sum(np.abs(contracted) ** 2) * grid.spacing == pytest.approx(run.success_prob, rel=1e-12, abs=0)


def test_run_machine_success_is_close_to_the_unit_overlap_value():
    grid = Grid1D(-40.0, 40.0, 2048)
    fn = gaussian_wavefunction(grid, 1.0)
    run = run_machine(fn, 13, 0.6, 1.0)
    approx = 1.0 / (14.0 * float(precise.square_sum(13, 0.6)))
    assert run.success_prob == pytest.approx(approx, rel=0.10, abs=0)


def test_run_machine_success_bounded_by_direct_projection():
    grid = Grid1D(-40.0, 40.0, 2048)
    fn = gaussian_wavefunction(grid, 1.0)
    for eta in (0.3, 0.6, 0.9):
        run = run_machine(fn, 9, eta, 1.0)
        shift = eta * 1.0
        direct = math.exp(-(shift**2) / 4.0) ** 2  # |<f(.-s)|f>|^2 for unit width
        assert run.success_prob <= direct + 1e-12


def test_run_machine_figure_configuration_success_probability():
    grid = Grid1D(-40.0, 40.0, 4096)
    fn = gaussian_wavefunction(grid, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_machine(fn, 13, 10.0, 1.0)
    assert run.success_prob > 0
    # frozen golden (log10) for the figure configuration, unit-width input
    assert math.log10(run.success_prob) == pytest.approx(-27.33366941525408, abs=1e-6)
    # independent spectral evaluation of the same contraction
    k = 2 * np.pi * np.fft.fftfreq(4096, d=grid.spacing)
    spec = np.sqrt(2 * np.pi) * np.pi**-0.25 * np.exp(-(k**2) / 2) / grid.spacing
    multiplier = (10.0 * np.exp(-1j * k / 13) - 9.0) ** 13
    norm0_sq = 1.0 / float(precise.square_sum(13, 10.0))
    oracle = norm0_sq / 14.0 * (grid.spacing / 4096) * float(np.sum(spec**2 * np.abs(multiplier) ** 2))
    assert run.success_prob == pytest.approx(oracle, rel=1e-9, abs=0)


def test_success_scaling_probe_matches_the_exact_rational_oracle():
    probe = success_scaling_probe(10.0, range(16, 22))
    # oracle: Prob(N) = 1 / ((N+1) sum alpha_n^2) in exact rationals
    def prob(n):
        return 1 / ((n + 1) * precise.square_sum(n, 10.0))

    for i, n in enumerate(range(16, 21)):
        expected = float(prob(n + 1) / prob(n))
        assert probe[i] == pytest.approx(expected, rel=1e-12, abs=0)
    # probability ratios approach 1/(2 eta - 1)^2; their square roots (the
    # per-step amplitude decay) approach 1/(2 eta - 1)
    assert probe[-1] == pytest.approx(1.0 / 361.0, rel=0.05, abs=0)
    assert np.sqrt(probe[-1]) == pytest.approx(1.0 / 19.0, rel=0.02, abs=0)


@pytest.mark.parametrize("eta", [1.7, 2.0, -0.7])
def test_success_scaling_probe_reaches_its_limit_at_large_n(eta):
    # Prob(N) ~ sqrt(N) / ((N+1) * (2 eta - 1)**(2N)), so a step's ratio is 1/(2 eta - 1)**2 times 1 - 1/(2N) + O(N**-2)
    probe = success_scaling_probe(eta, [300, 301])
    assert probe[0] == pytest.approx((1 - 1 / 600) / (2 * eta - 1) ** 2, rel=1e-4, abs=0)


def test_success_scaling_probe_for_moderate_amplification():
    probe = success_scaling_probe(2.0, range(17, 22))
    assert np.sqrt(probe[-1]) == pytest.approx(1.0 / 3.0, rel=0.02, abs=0)
    # eta = 1 is the boundary case: no exponential collapse (ratio near 1 in
    # amplitude once the 1/(N+1) prefactor is accounted for); recorded only:
    # the probabilities stay positive and fall, so each step's ratio lies in (0, 1).
    boundary = success_scaling_probe(1.0, range(17, 22))
    assert np.all((boundary > 0) & (boundary < 1))


@pytest.mark.parametrize("sizes", [[5.7, 7], [5, 5], [7, 5, 7]], ids=["not-an-integer", "repeated", "repeated-unsorted"])
def test_success_scaling_probe_refuses_sizes_it_cannot_use(sizes):
    # 5.7 would run as 5, and a repeated size is a zero step, whose ratio is 1 by construction
    with pytest.raises(ValidationError, match="register size"):
        success_scaling_probe(10.0, sizes)


def unit_gaussian():
    return gaussian_wavefunction(Grid1D(-40.0, 40.0, 2048), 1.0)


def test_machine_config_validation():
    # the machine's settings are run_machine's (n_terms, eta, delta_t) and radius_schedule's shell fields
    with pytest.raises(ValidationError, match=r"n_terms must be an integer in \[1, inf\), got 0"):
        run_machine(unit_gaussian(), 0, 1.0, 1.0)
    with pytest.raises(ValidationError, match=r"external duration must be a float in \(0, inf\), got 0.0"):
        radius_schedule(2, 1.0, 5.972e24, 1e13, external_t=0.0)
    rs = 2 * GRAVITATIONAL_CONSTANT * 5.972e24 / LIGHT_SPEED**2
    with pytest.raises(ValidationError, match="Schwarzschild radius"):
        radius_schedule(2, 1.0, 5.972e24, 0.5 * rs)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_machine_config_rejects_a_non_finite_eta(eta):
    with pytest.raises(ValidationError):
        run_machine(unit_gaussian(), 13, eta, 1.0)
    with pytest.raises(ValidationError):
        log_square_sums(13, eta)


def _analytic_distortion(fn, n_terms, eta, delta_t):
    return gaussian_shift_distortion(n_terms, eta, delta_t, 1.0, fn.grid)


@pytest.mark.parametrize(
    "delta_t, machine",
    [
        pytest.param(-1.0, run_machine, id="-1.0"),
        pytest.param(math.nan, run_machine, id="nan"),
        pytest.param(math.inf, run_machine, id="inf"),
        # the analytic oracle takes the same span; unchecked, nan gives nan and -1.0 a finite distortion
        pytest.param(math.nan, _analytic_distortion, id="gaussian_shift_distortion-nan"),
        pytest.param(-1.0, _analytic_distortion, id="gaussian_shift_distortion--1.0"),
    ],
)
def test_run_machine_refuses_a_bad_span_before_any_fft(delta_t, machine, monkeypatch):
    fn = unit_gaussian()
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: pytest.fail("an FFT ran"))
    with pytest.raises(ValidationError, match="delta_t"):
        machine(fn, 13, 10.0, delta_t)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_run_machine_takes_an_input_whose_squared_norm_leaves_the_float_range(scale):
    # |f|**2 overflows to inf (underflows to 0) here, so a single-pass norm would give the zero function
    fn = gaussian_wavefunction(Grid1D(-40.0, 40.0, 512), 2.0)
    plain = run_machine(fn, 13, 2.0, 0.5)
    scaled = run_machine(WaveFunction1D(fn.grid, fn.values * scale), 13, 2.0, 0.5)
    assert scaled.distortion == pytest.approx(plain.distortion, rel=1e-12, abs=0)
    assert scaled.success_prob == pytest.approx(plain.success_prob, rel=1e-12, abs=0)


@pytest.mark.parametrize("n_terms", [0, -2, 13.0, True])
def test_schedules_refuse_a_step_count_that_is_not_a_positive_integer(n_terms):
    with pytest.raises(ValidationError):
        log_square_sums(n_terms, 10.0)
    with pytest.raises(ValidationError):
        radius_schedule(n_terms, 1e-4, 5.972e24, 1e13)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gr_dilation(math.nan, 1e7, 1.0),
        lambda: gr_dilation(5.972e24, math.nan, 1.0),
        lambda: gr_dilation(5.972e24, 1e7, math.nan),
        lambda: gr_dilation(5.972e24, math.inf, 1.0),
        lambda: gr_dilation(-1.0, 1e7, 1.0),
        lambda: shell_pair_dilation(math.nan, 1e7, 2e7, 1.0),
        lambda: shell_pair_dilation(5.972e24, 1e7, math.nan, 1.0),
        lambda: shell_pair_dilation(-5.972e24, 1e7, 2e7, 1.0),
        lambda: sr_dilation(1e3, math.nan),
        lambda: sr_dilation(1e3, -1.0),
        lambda: radius_schedule(4, 1e-4, math.nan, 1e7),
        lambda: radius_schedule(4, 1e-4, 5.972e24, 1e7, external_t=math.nan),
        lambda: radius_schedule(4, 1e-4, 5.972e24, math.nan),
        lambda: radius_schedule(4, 1e-4, 5.972e24, math.inf),
        lambda: radius_schedule(4, math.nan, 5.972e24, 1e7),
        lambda: radius_schedule(4, 1e-4, 0.0, 1e7),
    ],
    ids=[
        "gr-nan-mass", "gr-nan-radius", "gr-nan-duration", "gr-inf-radius", "gr-negative-mass",
        "pair-nan-mass", "pair-nan-radius", "pair-negative-mass", "sr-nan-duration", "sr-negative-duration",
        "schedule-nan-mass", "schedule-nan-duration", "schedule-nan-r0", "schedule-inf-r0", "schedule-nan-span",
        "schedule-massless",
    ],
)
def test_gravitational_machine_formulas_refuse_what_they_cannot_compute(call):
    # at the parent these returned nan (or a schedule of nan radii) without a word
    with pytest.raises(ValidationError):
        call()


def test_schedules_beyond_the_float_range_are_refused():
    # at eta = 10, (N+1) * sum alpha_n**2 first exceeds the float range at N = 121
    assert log_square_sum(120, 10.0) == log_square_sums(120, 10.0)[0]
    for n_terms in (121, 250, 400):
        with pytest.raises(ResourceLimit, match=f"binomial schedule N={n_terms}, eta=10.0"):
            log_square_sum(n_terms, 10.0)
    # the scaling probe checks each size it uses, N + 1 from the pass at N included
    with pytest.raises(ResourceLimit, match="binomial schedule N=121, eta=10.0"):
        success_scaling_probe(10.0, [120, 121])


def test_schedule_stores_its_exact_sums():
    weights = precise.binomial_weights(13, 10.0)
    assert precise.weight_sum(weights) == sum(weights) == 1
    assert precise.square_sum(13, 10.0) == sum(w * w for w in weights)


def test_run_machine_refuses_a_momentum_space_function():
    fn = gaussian_wavefunction(Grid1D(-10.0, 10.0, 256), 1.0)
    momentum = WaveFunction1D(fn.grid, fn.values, "momentum")
    with pytest.raises(ValidationError, match="shift the position representation"):
        run_machine(momentum, 4, 2.0, 0.5)


def test_a_zero_function_is_refused_before_its_spectrum_is_taken(monkeypatch):
    # the input is normalized first, so a zero function never reaches the support or the FFT
    zero = WaveFunction1D(Grid1D(-10.0, 10.0, 256), np.zeros(256))
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: pytest.fail("an FFT ran"))
    with pytest.raises(ValidationError, match="cannot normalize a zero wavefunction"):
        run_machine(zero, 4, 2.0, 0.5)
