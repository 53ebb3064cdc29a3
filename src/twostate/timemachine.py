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
`run_machine` shifts through the module's masked spectrum
(`_masked_shift_spectrum`); every distortion is one Parseval sum
(`_shift_distortion`).  B(k) and its weights are evaluated only where the
spectrum is nonzero (`_multiplier_on_support`).  The shell radii that
realize the lags are no input of a run: a run takes the lags themselves.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np

from .errors import GridOverflow, ResourceLimit, ValidationError
from .linalg import Grid1D, Record, WaveFunction1D, require_integer, require_width

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


@functools.lru_cache(maxsize=16, typed=True)  # typed: 13.0 or True must not hit the entry of 13 or 1
def binomial_schedule(n_terms: int, eta: float) -> BinomialSchedule:
    """Binomial amplitude schedule; the signed weights always sum to exactly 1.

    Schedules are cached, and the cached one is shared by every caller.  Raises
    ResourceLimit when (N+1) * sum alpha_n**2 (which bounds every weight) exceeds the float range.
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


def _multiplier_on_support(spec: np.ndarray, k: np.ndarray, n_terms: int, eta: float, delta_t: float):
    """Indices where `spec` is nonzero, B(k) there, and weights |B(k) - exp(-i*k*eta*delta_t)|**2, 0 elsewhere."""
    kept = np.flatnonzero(spec)
    multiplier = _binomial_multiplier(k[kept], n_terms, eta, delta_t)
    miss = np.zeros(k.shape)
    miss[kept] = np.abs(multiplier - np.exp(-1j * k[kept] * (eta * delta_t))) ** 2
    return kept, multiplier, miss


def _masked_shift_spectrum(fn: WaveFunction1D, lo_shift: float, hi_shift: float) -> np.ndarray:
    """Spectrum of `fn`, masked at SPECTRAL_MASK_RTOL of its peak.

    Multiplying the spectrum by exp(-i*k*c) shifts `fn` by c.  The support of
    `fn` (|f| above 1e-12 of its peak) moved by any shift in [lo_shift,
    hi_shift] must stay on the grid, or the shift would wrap around its ends.
    Signed weight schedules can amplify round-off floor components by many
    orders of magnitude, and anything that far below the peak is sampling
    noise, not signal, hence the mask.
    """
    if fn.representation != "position":
        raise ValidationError("shift the position representation")
    support = fn.grid.values[np.abs(fn.values) > 1e-12 * np.abs(fn.values).max()]
    if support.size == 0:
        raise ValidationError("cannot shift a zero wavefunction")
    if support[0] + lo_shift < fn.grid.lo - 1e-9 or support[-1] + hi_shift > fn.grid.hi + 1e-9:
        raise GridOverflow("shifted support would leave the grid")
    spec = np.fft.fft(fn.values)
    magnitude = np.abs(spec)
    spec[magnitude < SPECTRAL_MASK_RTOL * magnitude.max()] = 0.0
    return spec


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


def gaussian_shift_distortion(n_terms: int, eta: float, delta_t: float, width: float, grid: Grid1D) -> float:
    """Distortion of the binomial superposition for an analytic Gaussian input.

    Uses the exact Gaussian spectrum instead of an FFT of samples, so the
    result is well conditioned even for strongly signed schedules, and a
    direct high-precision summation oracle reproduces it to ~1e-12.
    """
    _require_schedule_inputs(n_terms, eta)
    _require_nonnegative(delta_t, "maximal elementary shift delta_t")
    require_width(width, "width")
    k = 2 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    # |FFT| of the grid-sampled unit-norm Gaussian, written analytically (the
    # grid is assumed wide enough that boundary tails vanish); only moduli
    # enter the Parseval sums, so grid-origin phases are irrelevant.
    amp = (np.pi * width**2) ** -0.25
    spectrum = amp * np.sqrt(2 * np.pi) * width * np.exp(-(width**2) * k**2 / 2) / grid.spacing
    return _shift_distortion(spectrum**2, _multiplier_on_support(spectrum, k, n_terms, eta, delta_t)[2])


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


def run_machine(system_fn: WaveFunction1D, n_terms: int, eta: float, delta_t: float) -> MachineRun:
    """Run the product -> correlated -> post-selected register construction.

    `n_terms` and `eta` are checked by binomial_schedule, `delta_t` (finite,
    nonnegative) here, before any FFT.  The system function is normalized on
    entry.  Post-selecting the uniform register state contracts the
    correlated rows N0 * alpha_n * f_n to N0/sqrt(N+1) * sum_n alpha_n f_n,
    with N0 = (sum |alpha_n|^2)**-1/2; the sum is one inverse FFT of the
    masked spectrum times the binomial multiplier, never summed row by row,
    and the success probability is the squared norm of the contraction.
    Distortion is the distance of the sum from the input shifted by eta*delta_t.
    """
    _require_nonnegative(delta_t, "maximal elementary shift delta_t")
    sched = binomial_schedule(n_terms, eta)
    fn = system_fn.normalized()
    reach = sorted((0.0, delta_t, eta * delta_t))
    spec = _masked_shift_spectrum(fn, reach[0], reach[-1])
    power = np.abs(spec) ** 2
    k = 2 * np.pi * np.fft.fftfreq(fn.grid.points, d=fn.grid.spacing)
    if _spectrum_weight_above(power, k, fn.grid.spacing) > 1e-6:
        warnings.warn("input spectrum extends beyond a quarter of the Nyquist rate")
    kept, multiplier, miss = _multiplier_on_support(spec, k, n_terms, eta, delta_t)
    spec[kept] *= multiplier  # the product spec * B(k); masked entries stay 0
    superposed = np.fft.ifft(spec)
    norm0 = 1.0 / math.sqrt(float(sched.square_sum))
    contracted = norm0 / math.sqrt(n_terms + 1) * superposed
    success = float(np.sum(np.abs(contracted) ** 2) * fn.grid.spacing)

    return MachineRun(
        schedule=sched,
        final_fn=WaveFunction1D(fn.grid, superposed, "position", fn.conjugate_lo),
        distortion=_shift_distortion(power, miss),
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
