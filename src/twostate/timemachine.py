"""Superposed time evolutions: the time machine, its distortion and its success odds.

A register of N+1 control levels steers a massive shell between radii that
realize small gravitational time dilations delta_t_n = n*delta_t/N.  With
binomial control amplitudes

    alpha_n = binom(N, n) * eta**n * (1 - eta)**(N - n),      sum alpha_n = 1,

the post-selected system wavefunction becomes sum_n alpha_n f(q - delta_t_n),
which approximates f(q - eta*delta_t): a net shift eta times larger than any
ingredient, for any eta, including eta > 1 and eta < 0.

Numerics: the binomial weights are kept as exact rationals (they cancel to
1 across forty orders of magnitude at eta = 10, far beyond float
resolution), and grid superpositions are applied through the closed
product form of the spectral multiplier

    B(k) = (eta * exp(-i*k*delta_t/N) + 1 - eta)**N,

which is stable where the expanded sum is catastrophically ill-conditioned.
`run_machine` shifts through the masked spectrum of a `MachineInput`,
which holds all that a run takes from its input alone; the scenario's
Gaussian input is built once per grid and width (`gaussian_input`), and
so is the exact Gaussian spectrum of `gaussian_shift_distortion`, so
runs that differ only in n_terms, eta or delta_t share both.  Every
distortion is one Parseval sum (`_shift_distortion`).  B(k) and its
weights are evaluated only where the spectrum is nonzero
(`_multiplier_on_support`).  The shell radii that
realize the lags are no input of a run: a run takes the lags themselves.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np

from .errors import GridOverflow, ResourceLimit, ValidationError
from .linalg import Grid1D, Record, WaveFunction1D, exact_cache, gaussian_wavefunction, require_integer, require_width

# Spectral components below this fraction of the peak are treated as noise
# when a superposition is assembled by Fourier shifting; binomial weight
# schedules amplify anything at the round-off floor catastrophically.
SPECTRAL_MASK_RTOL = 1e-13


def _require_nonnegative(value: float, what: str) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{what} must be finite and nonnegative, got {value}")


def _require_schedule_inputs(n_terms: int, eta: float) -> None:
    """A schedule needs an integer step count of at least 1 and a finite eta."""
    require_integer(n_terms, "n_terms", 1)
    if not math.isfinite(eta):
        raise ValidationError("eta must be finite")


class BinomialSchedule(Record):
    """Exact binomial weights of the shifts n/N, with their sum and square sum."""

    n_terms: int
    eta: float
    exact_weights: tuple
    total: Fraction  # sum of the exact weights
    square_sum: Fraction  # sum of the squared exact weights


@exact_cache(16)  # N+1 Fractions an entry, 15*N**2 bytes at eta = 0.3 (denominator 2**54): 15 MB at N = 1000
def binomial_schedule(n_terms: int, eta: float) -> BinomialSchedule:
    """Binomial amplitude schedule; the signed weights always sum to exactly 1.

    Raises ResourceLimit when (N+1) * sum alpha_n**2 (which bounds every weight) exceeds the float range.
    """
    from fractions import Fraction  # imported here: of the scenarios only time_machine builds a schedule

    _require_schedule_inputs(n_terms, eta)
    e = Fraction(eta)
    complement = 1 - e
    exact = tuple(math.comb(n_terms, n) * e**n * complement ** (n_terms - n) for n in range(n_terms + 1))
    square_sum = sum((w * w for w in exact), Fraction(0))
    if (n_terms + 1) * square_sum > sys.float_info.max:
        raise ResourceLimit(f"binomial schedule N={n_terms}, eta={eta}: (N+1) * sum alpha_n**2 exceeds the float range")
    return BinomialSchedule(n_terms, float(eta), exact, sum(exact, Fraction(0)), square_sum)


def _binomial_multiplier(k: np.ndarray, n_terms: int, eta: float, delta_t: float) -> np.ndarray:
    return (eta * np.exp(-1j * k * delta_t / n_terms) + (1.0 - eta)) ** n_terms


def _multiplier_on_support(kept: np.ndarray, k: np.ndarray, n_terms: int, eta: float, delta_t: float):
    """B(k) at the indices `kept`, and the weights |B(k) - exp(-i*k*eta*delta_t)|**2 there, 0 elsewhere."""
    multiplier = _binomial_multiplier(k[kept], n_terms, eta, delta_t)
    miss = np.zeros(k.shape)
    miss[kept] = np.abs(multiplier - np.exp(-1j * k[kept] * (eta * delta_t))) ** 2
    return multiplier, miss


def _spectrum_weight_above(power: np.ndarray, k: np.ndarray, spacing: float) -> float:
    """Fraction of the spectral `power` |FFT|**2 (wavenumbers `k`, samples `spacing` apart) above a quarter of Nyquist."""
    total = power.sum()
    cut = 2 * np.pi * (0.25 * 0.5 / spacing)  # k of a quarter of the Nyquist frequency 0.5/spacing
    return float(power[np.abs(k) > cut].sum() / total) if total > 0 else 0.0


def _shift_distortion(power: np.ndarray, miss: np.ndarray) -> float:
    """||superposition - f(. - shift)|| / ||f||, by discrete Parseval from the power |spec|**2 of the spectrum of f.

    The superposition spec * B and the rigid shift spec * exp(-i*k*shift) differ
    by |spec|**2 * `miss`, miss = |B - exp(-i*k*shift)|**2, in power;
    sum_q |f_q|**2 dx = (dx/n) sum_k |spec_k|**2, and dx/n cancels in the ratio.
    """
    return float(np.sqrt(np.sum(power * miss) / np.sum(power)))


class MachineInput(Record):
    """All that a run takes from its input alone, whatever its n_terms, eta and delta_t.

    `spectrum` is the FFT of the normalized samples with every component
    below SPECTRAL_MASK_RTOL of the peak set to 0 (signed weight schedules
    amplify round-off floor components by many orders of magnitude, and
    anything that far below the peak is sampling noise, not signal), `kept`
    the indices of its nonzero components, `power` its |.|**2 and `k` its
    wavenumbers.  `support` holds the first and last grid points where the
    normalized |f| exceeds 1e-12 of its peak, and `rough` tells whether more
    than 1e-6 of the power lies above a quarter of the Nyquist rate.
    """

    grid: Grid1D
    conjugate_lo: float | None
    support: tuple
    spectrum: np.ndarray
    kept: np.ndarray
    power: np.ndarray
    k: np.ndarray
    rough: bool


def _prepare_input(fn: WaveFunction1D) -> MachineInput:
    """The `MachineInput` of `fn`, normalized here."""
    fn = fn.normalized()
    if fn.representation != "position":
        raise ValidationError("shift the position representation")
    grid = fn.grid
    modulus = np.abs(fn.values)
    support = grid.values[modulus > 1e-12 * modulus.max()]
    spec = np.fft.fft(fn.values)
    magnitude = np.abs(spec)
    spec[magnitude < SPECTRAL_MASK_RTOL * magnitude.max()] = 0.0
    power = np.abs(spec) ** 2
    k = 2 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    ends, rough = (float(support[0]), float(support[-1])), _spectrum_weight_above(power, k, grid.spacing) > 1e-6
    return MachineInput(grid, fn.conjugate_lo, ends, spec, np.flatnonzero(spec), power, k, rough)


@exact_cache(16)  # 40 bytes a grid point an entry: 2.6 MB at the scenario's 4096 points
def gaussian_input(grid: Grid1D, width: float) -> MachineInput:
    """The `MachineInput` of `gaussian_wavefunction(grid, width)`, once per grid and width."""
    return _prepare_input(gaussian_wavefunction(grid, width))


@exact_cache(16)  # at most 24 bytes a grid point an entry: 1.6 MB at the scenario's 4096 points
def _gaussian_power(grid: Grid1D, width: float) -> tuple:
    """(k, nonzero indices, square) of the exact spectrum modulus of the sampled unit Gaussian, from `k` alone.

    No sample is taken, so a grid too wide for the Gaussian's samples still has its analytic spectrum.
    """
    k = 2 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    # |FFT| of the grid-sampled unit-norm Gaussian, written analytically (the
    # grid is assumed wide enough that boundary tails vanish); only moduli
    # enter the Parseval sums, so grid-origin phases are irrelevant.
    amp = (np.pi * width**2) ** -0.25
    spectrum = amp * np.sqrt(2 * np.pi) * width * np.exp(-(width**2) * k**2 / 2) / grid.spacing
    return k, np.flatnonzero(spectrum), spectrum**2


def gaussian_shift_distortion(n_terms: int, eta: float, delta_t: float, width: float, grid: Grid1D) -> float:
    """Distortion of the binomial superposition for an analytic Gaussian input.

    Uses the exact Gaussian spectrum instead of an FFT of samples, so the
    result is well conditioned even for strongly signed schedules, and a
    direct high-precision summation oracle reproduces it to ~1e-12.
    """
    _require_schedule_inputs(n_terms, eta)
    _require_nonnegative(delta_t, "maximal elementary shift delta_t")
    require_width(width, "width")
    k, kept, power = _gaussian_power(grid, width)
    return _shift_distortion(power, _multiplier_on_support(kept, k, n_terms, eta, delta_t)[1])


class MachineRun(Record):
    """Outcome of the control-register construction.

    `final_fn` is the bare superposition sum alpha_n f_n (the system state
    after post-selection, up to normalization), and `success_prob` the
    post-selection probability.
    """

    schedule: BinomialSchedule
    final_fn: WaveFunction1D
    distortion: float
    success_prob: float


def run_machine(system: WaveFunction1D | MachineInput, n_terms: int, eta: float, delta_t: float) -> MachineRun:
    """Run the product -> correlated -> post-selected register construction.

    `n_terms` and `eta` are checked by binomial_schedule, `delta_t` (finite,
    nonnegative) here, before any FFT.  A wavefunction is prepared on entry
    (`_prepare_input`, which normalizes it); a `MachineInput` is used as it
    is.  Multiplying the spectrum by exp(-i*k*c) shifts the input by c, so
    its support moved by any shift between 0, delta_t and eta*delta_t must
    stay on the grid, or the shift would wrap around its ends (`GridOverflow`).
    Post-selecting the uniform register state contracts the correlated rows
    N0 * alpha_n * f_n to N0/sqrt(N+1) * sum_n alpha_n f_n, with
    N0 = (sum |alpha_n|^2)**-1/2; the sum is one inverse FFT of the masked
    spectrum times the binomial multiplier, never summed row by row, and the
    success probability is the squared norm of the contraction.  Distortion
    is the distance of the sum from the input shifted by eta*delta_t.
    """
    _require_nonnegative(delta_t, "maximal elementary shift delta_t")
    sched = binomial_schedule(n_terms, eta)
    machine_input = system if isinstance(system, MachineInput) else _prepare_input(system)
    grid, (first, last) = machine_input.grid, machine_input.support
    reach = sorted((0.0, delta_t, eta * delta_t))
    if first + reach[0] < grid.lo - 1e-9 or last + reach[-1] > grid.hi + 1e-9:
        raise GridOverflow("shifted support would leave the grid")
    if machine_input.rough:
        warnings.warn("input spectrum extends beyond a quarter of the Nyquist rate")
    kept = machine_input.kept
    multiplier, miss = _multiplier_on_support(kept, machine_input.k, n_terms, eta, delta_t)
    spec = machine_input.spectrum.copy()
    spec[kept] *= multiplier  # the product spec * B(k); masked entries stay 0
    superposed = np.fft.ifft(spec)
    norm0 = 1.0 / math.sqrt(float(sched.square_sum))
    contracted = norm0 / math.sqrt(n_terms + 1) * superposed
    success = float(np.sum(np.abs(contracted) ** 2) * grid.spacing)

    return MachineRun(
        schedule=sched,
        final_fn=WaveFunction1D(grid, superposed, "position", machine_input.conjugate_lo),
        distortion=_shift_distortion(machine_input.power, miss),
        success_prob=success,
    )


def success_scaling_probe(eta: float, n_values) -> np.ndarray:
    """Per-step ratios Prob(N') / Prob(N) of the success probability between consecutive sorted register sizes.

    Computed with unit overlaps between the shifted system states (the
    delta_t -> 0 limit), which isolates the register statistics:
    Prob(N) = 1 / ((N+1) * sum_n alpha_n^2), evaluated in exact rational
    arithmetic.  The ratios tend to 1/(2*eta-1)**2; their square roots, the
    per-step decay of the post-selection amplitude, tend to 1/(2*eta-1).
    Each size must be an integer, and no size may repeat.
    """
    sizes = sorted(n_values)
    for n in sizes:
        require_integer(n, "register size", 1)
    if len(set(sizes)) < max(len(sizes), 2):  # a repeated size is a zero step, whose ratio is 1 by construction
        raise ValidationError(f"need at least two register sizes, none repeated, to form ratios; got {sizes}")
    probs = np.array([1.0 / float((n + 1) * binomial_schedule(int(n), eta).square_sum) for n in sizes])
    ratios = probs[1:] / probs[:-1]
    # normalize ratios to a per-unit-N step when the sequence is not contiguous
    return ratios ** (1.0 / np.diff(sizes))
