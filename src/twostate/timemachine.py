"""Superposed time evolutions: amplified shifts, dilation schedules, success odds.

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
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceLimit, ValidationError
from .linalg import Grid1D, WaveFunction1D
from .pointer import _masked_shift_spectrum

GRAVITATIONAL_CONSTANT = 6.67430e-11  # m^3 kg^-1 s^-2
LIGHT_SPEED = 299792458.0  # m / s


@dataclass(frozen=True)
class TimeMachineConfig:
    n_terms: int
    eta: float
    delta_t: float
    external_t: float = 1.0
    shell_mass: float = 0.0
    r0: float = float("inf")

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValidationError("need at least one superposition step")
        if not (math.isfinite(self.eta) and math.isfinite(self.delta_t)):
            raise ValidationError("eta and delta_t must be finite")
        if self.delta_t < 0:
            raise ValidationError("maximal elementary shift must be nonnegative")
        if self.external_t <= 0:
            raise ValidationError("external duration must be positive")
        if self.shell_mass > 0:
            rs = 2 * GRAVITATIONAL_CONSTANT * self.shell_mass / LIGHT_SPEED**2
            if self.r0 <= rs:
                raise ValidationError(f"rest radius {self.r0} is inside the Schwarzschild radius {rs}")


@dataclass(frozen=True)
class BinomialSchedule:
    """Exact binomial weights of the shifts n/N, with their sum and square sum."""

    n_terms: int
    eta: float
    exact_weights: tuple
    total: Fraction  # sum of the exact weights
    square_sum: Fraction  # sum of the squared exact weights


@functools.lru_cache(maxsize=16)
def binomial_schedule(n_terms: int, eta: float) -> BinomialSchedule:
    """Binomial amplitude schedule; the signed weights always sum to exactly 1.

    Schedules are cached, and the cached one is shared by every caller.  Raises
    ResourceLimit when (N+1) * sum alpha_n**2 (which bounds every weight) exceeds the float range.
    """
    if n_terms < 1:
        raise ValidationError("need at least one superposition step")
    if not math.isfinite(eta):
        raise ValidationError("eta must be finite")
    e = Fraction(eta)
    complement = 1 - e
    exact = tuple(math.comb(n_terms, n) * e**n * complement ** (n_terms - n) for n in range(n_terms + 1))
    square_sum = sum((w * w for w in exact), Fraction(0))
    if (n_terms + 1) * square_sum > sys.float_info.max:
        raise ResourceLimit(f"binomial schedule N={n_terms}, eta={eta}: (N+1) * sum alpha_n**2 exceeds the float range")
    return BinomialSchedule(n_terms, float(eta), exact, sum(exact, Fraction(0)), square_sum)


def _binomial_multiplier(k: np.ndarray, n_terms: int, eta: float, delta_t: float) -> np.ndarray:
    return (eta * np.exp(-1j * k * delta_t / n_terms) + (1.0 - eta)) ** n_terms


def _spectrum_weight_above(spec: np.ndarray, spacing: float) -> float:
    """Fraction of the power of the FFT `spec`, of samples `spacing` apart, above a quarter of the Nyquist rate."""
    power = np.abs(spec) ** 2
    k = np.abs(np.fft.fftfreq(spec.size, d=spacing))
    cut = 0.25 * 0.5 / spacing
    total = power.sum()
    return float(power[k > cut].sum() / total) if total > 0 else 0.0


@dataclass(frozen=True)
class AmplifiedShift:
    shifted: WaveFunction1D
    distortion: float


def amplified_shift(fn: WaveFunction1D, n_terms: int, eta: float, delta_t: float) -> AmplifiedShift:
    """Apply the binomial schedule of shifts n*delta_t/N and measure distortion.

    Distortion is the L2 distance between the superposition and the input
    rigidly shifted by eta*delta_t, relative to the input norm.  The Nyquist
    warning reads the masked spectrum, whose zeroed entries are below
    SPECTRAL_MASK_RTOL of its peak.
    """
    reach = sorted((0.0, delta_t, eta * delta_t))
    spec, k = _masked_shift_spectrum(fn, reach[0], reach[-1])
    if _spectrum_weight_above(spec, fn.grid.spacing) > 1e-6:
        import warnings

        warnings.warn("input spectrum extends beyond a quarter of the Nyquist rate")
    superposed = np.fft.ifft(spec * _binomial_multiplier(k, n_terms, eta, delta_t))
    target = np.fft.ifft(spec * np.exp(-1j * k * eta * delta_t))
    dx = fn.grid.spacing
    num = np.sqrt(np.sum(np.abs(superposed - target) ** 2) * dx)
    distortion = float(num / fn.norm())
    return AmplifiedShift(
        shifted=WaveFunction1D(fn.grid, superposed, "position", fn.conjugate_lo),
        distortion=distortion,
    )


def gaussian_shift_distortion(
    n_terms: int, eta: float, delta_t: float, width: float, grid: Grid1D
) -> float:
    """Distortion of the binomial superposition for an analytic Gaussian input.

    Uses the exact Gaussian spectrum instead of an FFT of samples, so the
    result is well conditioned even for strongly signed schedules, and a
    direct high-precision summation oracle reproduces it to ~1e-12.
    """
    n = grid.points
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    # |FFT| of the grid-sampled unit-norm Gaussian, written analytically (the
    # grid is assumed wide enough that boundary tails vanish); only moduli
    # enter the Parseval sums, so grid-origin phases are irrelevant.
    amp = (np.pi * width**2) ** -0.25
    spectrum = amp * np.sqrt(2 * np.pi) * width * np.exp(-(width**2) * k**2 / 2) / grid.spacing
    diff = _binomial_multiplier(k, n_terms, eta, delta_t) - np.exp(-1j * k * eta * delta_t)
    # discrete Parseval: sum_q |S - T|^2 dx = (dx/n) sum_k |spec_k|^2 |B - T|^2
    num2 = (grid.spacing / n) * np.sum(np.abs(spectrum) ** 2 * np.abs(diff) ** 2)
    den2 = (grid.spacing / n) * np.sum(np.abs(spectrum) ** 2)
    return float(np.sqrt(num2 / den2))


def _one_minus_sqrt_one_minus(x: float) -> float:
    # 1 - sqrt(1-x) without cancellation for tiny x
    return x / (1.0 + math.sqrt(1.0 - x))


def sr_dilation(velocity: float, duration: float) -> float:
    """Time lag T*(1 - sqrt(1 - V^2/c^2)) accumulated by a moving system."""
    if not 0 <= velocity < LIGHT_SPEED:
        raise ValidationError("velocity must satisfy 0 <= V < c")
    return duration * _one_minus_sqrt_one_minus((velocity / LIGHT_SPEED) ** 2)


def gr_dilation(mass: float, radius: float, duration: float) -> float:
    """Time lag inside a massive shell, T*(1 - sqrt(1 - 2GM/(c^2 R)))."""
    if mass < 0:
        raise ValidationError("mass must be nonnegative")
    rs = 2.0 * GRAVITATIONAL_CONSTANT * mass / LIGHT_SPEED**2
    if radius <= rs:
        raise ValidationError(f"radius {radius} must exceed the Schwarzschild radius {rs}")
    return duration * _one_minus_sqrt_one_minus(rs / radius)


def shell_pair_dilation(mass: float, r_rest: float, radius: float, duration: float) -> float:
    """Extra lag of a shell at `radius` relative to the rest radius r_rest.

    Evaluated as T*(rs/R - rs/R0) / (sqrt(1-rs/R0) + sqrt(1-rs/R)) so the
    near-cancelling square roots never meet head on.
    """
    rs = 2.0 * GRAVITATIONAL_CONSTANT * mass / LIGHT_SPEED**2
    for r in (r_rest, radius):
        if r <= rs:
            raise ValidationError(f"radius {r} must exceed the Schwarzschild radius {rs}")
    a = math.sqrt(1.0 - rs / r_rest)
    b = math.sqrt(1.0 - rs / radius)
    return duration * (rs / radius - rs / r_rest) / (a + b)


def radius_schedule(config: TimeMachineConfig) -> np.ndarray:
    """Shell radii R_n realizing delta_t_n = n*delta_t/N.

    Inverts the shell dilation relative to the rest radius R0 exactly: the
    rest radius's own lag 1 - sqrt(1 - rs/R0) is kept however small it is,
    so shell_pair_dilation(M, R0, R_n, T) returns delta_t_n.
    """
    if config.shell_mass <= 0:
        raise ValidationError("a massive shell is required for a radius schedule")
    rs = 2.0 * GRAVITATIONAL_CONSTANT * config.shell_mass / LIGHT_SPEED**2
    t = config.external_t
    base = math.sqrt(1.0 - rs / config.r0)
    rest_gap = _one_minus_sqrt_one_minus(rs / config.r0)  # 1 - base, stably
    radii = []
    for n in range(config.n_terms + 1):
        target = n * config.delta_t / config.n_terms
        if target >= t * base:
            raise ValidationError(f"target lag {target} is not achievable within duration {t}")
        if target == 0.0:
            radii.append(config.r0)
            continue
        one_minus_root = rest_gap + target / t
        one_minus_root_sq = one_minus_root * (2.0 - one_minus_root)  # 1 - root**2
        radii.append(rs / one_minus_root_sq)
    return np.array(radii)


@dataclass(frozen=True)
class MachineRun:
    """Outcome of the control-register construction.

    `final_fn` is the bare superposition sum alpha_n f_n (the system state
    after post-selection, up to normalization), and `success_prob` the
    post-selection probability.
    """

    schedule: BinomialSchedule
    final_fn: WaveFunction1D
    distortion: float
    success_prob: float


def run_machine(system_fn: WaveFunction1D, config: TimeMachineConfig) -> MachineRun:
    """Run the product -> correlated -> post-selected register construction.

    The system function is normalized on entry.  Post-selecting the uniform
    register state contracts the correlated rows N0 * alpha_n * f_n to
    N0/sqrt(N+1) * sum_n alpha_n f_n, with N0 = (sum |alpha_n|^2)**-1/2; the
    sum is the amplified shift of the normalized function, never summed row
    by row, and the success probability is the squared norm of the
    contraction.
    """
    sched = binomial_schedule(config.n_terms, config.eta)
    norm0 = 1.0 / math.sqrt(float(sched.square_sum))
    shift = amplified_shift(system_fn.normalized(), config.n_terms, config.eta, config.delta_t)
    contracted = norm0 / math.sqrt(config.n_terms + 1) * shift.shifted.values
    success = float(np.sum(np.abs(contracted) ** 2) * system_fn.grid.spacing)

    return MachineRun(
        schedule=sched,
        final_fn=shift.shifted,
        distortion=shift.distortion,
        success_prob=success,
    )


@dataclass(frozen=True)
class ScalingProbe:
    """Success probabilities against N in the degenerate-shift (unit overlap) limit.

    `probability_ratios` tend to 1/(2*eta-1)**2; their square roots, the
    per-step decay of the post-selection amplitude, tend to 1/(2*eta-1).
    """

    eta: float
    probabilities: np.ndarray
    probability_ratios: np.ndarray
    amplitude_ratios: np.ndarray


def success_scaling_probe(eta: float, n_values) -> ScalingProbe:
    """Exact scaling of the success probability with the register size.

    Computed with unit overlaps between the shifted system states (the
    delta_t -> 0 limit), which isolates the register statistics:
    Prob(N) = 1 / ((N+1) * sum_n alpha_n^2), evaluated in exact rational
    arithmetic.
    """
    ns = np.asarray(sorted(n_values), dtype=int)
    if ns.size < 2:
        raise ValidationError("need at least two register sizes to form ratios")
    probs = []
    for n in ns:
        sched = binomial_schedule(int(n), eta)
        probs.append(1.0 / float((n + 1) * sched.square_sum))
    probs = np.array(probs)
    ratios = probs[1:] / probs[:-1]
    # normalize ratios to a per-unit-N step when the sequence is not contiguous
    steps = np.diff(ns)
    per_step = ratios ** (1.0 / steps)
    return ScalingProbe(float(eta), probs, per_step, np.sqrt(per_step))
