"""Superposed time evolutions: the time machine, its distortion and its success odds.

A register of N+1 control levels steers a massive shell between radii that
realize small gravitational time dilations delta_t_n = n*delta_t/N.  With
binomial control amplitudes

    alpha_n = binom(N, n) * eta**n * (1 - eta)**(N - n),      sum alpha_n = 1,

the post-selected system wavefunction becomes sum_n alpha_n f(q - delta_t_n),
which approximates f(q - eta*delta_t): a net shift eta times larger than any
ingredient, for any eta, including eta > 1 and eta < 0.

Numerics: no weight is formed (at eta = 10 they cancel to 1 across forty
orders of magnitude).  A run reads only their square sum S, as ln S from a
float Legendre recurrence (`log_square_sums`), and shifts its input by the
closed product form of the spectral multiplier

    B(k) = (eta * exp(-i*k*delta_t/N) + 1 - eta)**N,

stable where the expanded sum is catastrophically ill-conditioned, at the
nonzero components of the masked spectrum of a `MachineInput` only
(`_multiplier_on_support`).  The scenario's Gaussian input and its exact
spectrum are built once per grid and width (`gaussian_input`,
`_gaussian_power`), so runs that differ only in n_terms, eta or delta_t
share both; every distortion is one Parseval sum (`_shift_distortion`).
A run takes the lags themselves, not the shell radii that realize them.
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
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # ln 2 = hi + lo, hi with 32 bits


def _require_nonnegative(value: float, what: str) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{what} must be finite and nonnegative, got {value}")


def _require_schedule_inputs(n_terms: int, eta: float) -> None:
    """A schedule needs an integer step count of at least 1 and a finite eta."""
    require_integer(n_terms, "n_terms", 1)
    if not math.isfinite(eta):
        raise ValidationError("eta must be finite")


def log_square_sums(n_terms: int, eta: float) -> tuple:
    """(ln S(N), ln S(N+1)) of the square sum S(n) = sum_k alpha_k**2, from one float pass of a Legendre recurrence.

    a = 1 - eta and b = eta are scaled by a power of two into max(|a|, |b|) in [1, 2), exactly; with u = a**2 + b**2
    and v = a**2 - b**2, the scaled S(n) = v**n * P_n(u/v) (DLMF §18.5) follows (n+1) S(n+1) = (2n+1) u S(n) -
    n v**2 S(n-1), S(0) = 1, S(1) = u (DLMF §18.9), which never divides by v; |u/v| >= 1, where the recurrence carries
    the dominant solution stably.  No range is checked here (`log_square_sum`).
    """
    _require_schedule_inputs(n_terms, eta)
    e = math.frexp(max(abs(1.0 - eta), abs(eta)))[1] - 1
    a, b = math.ldexp(1.0 - eta, -e), math.ldexp(eta, -e)
    u, v2 = a * a + b * b, ((a - b) * (a + b)) ** 2
    previous, current, halvings = 1.0, u, 0
    for n in range(1, n_terms + 1):
        previous, current = current, ((2 * n + 1) * u * current - n * v2 * previous) / (n + 1)
        if current > 2.0**512:  # S(n) >= 1 grows at most 16-fold a step: both terms scaled down exactly
            previous, current, halvings = math.ldexp(previous, -512), math.ldexp(current, -512), halvings + 512
    return _log_scaled(previous, 2 * n_terms * e + halvings), _log_scaled(current, 2 * (n_terms + 1) * e + halvings)


def _log_scaled(value: float, bits: int) -> float:
    """ln(value * 2**bits) to about one rounding of the result, with ln 2 in two parts as fdlibm's log takes it."""
    mantissa, exponent = math.frexp(value)
    return (bits + exponent) * _LN2_HI + ((bits + exponent) * _LN2_LO + math.log(mantissa))


def log_square_sum(n_terms: int, eta: float, log_s: float | None = None) -> float:
    """ln S(N), `log_s` or from `log_square_sums`; ResourceLimit when (N+1) * S exceeds the float range."""
    log_s = log_square_sums(n_terms, eta)[0] if log_s is None else log_s
    if math.log(n_terms + 1) + log_s > math.log(sys.float_info.max):  # (N+1) * S bounds every weight
        raise ResourceLimit(f"binomial schedule N={n_terms}, eta={eta}: (N+1) * sum alpha_n**2 exceeds the float range")
    return log_s


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

    final_fn: WaveFunction1D
    distortion: float
    success_prob: float


def run_machine(system: WaveFunction1D | MachineInput, n_terms: int, eta: float, delta_t: float) -> MachineRun:
    """Run the product -> correlated -> post-selected register construction.

    `delta_t` (finite, nonnegative) is checked before any FFT, and `n_terms`
    and `eta` by `log_square_sum`.  A wavefunction is prepared on entry
    (`_prepare_input`, which normalizes it); a `MachineInput` is used as it
    is.  Multiplying the spectrum by exp(-i*k*c) shifts the input by c, so
    its support moved by any shift between 0, delta_t and eta*delta_t must
    stay on the grid, or the shift would wrap around its ends (`GridOverflow`).
    Post-selecting the uniform register state contracts the correlated rows
    N0 * alpha_n * f_n to N0/sqrt(N+1) * sum_n alpha_n f_n, with
    N0 = S**-1/2 = exp(-ln S / 2); the sum is one inverse FFT of the masked
    spectrum times the binomial multiplier, never summed row by row, and the
    success probability is the squared norm of the contraction.  Distortion
    is the distance of the sum from the input shifted by eta*delta_t.
    """
    _require_nonnegative(delta_t, "maximal elementary shift delta_t")
    log_s = log_square_sum(n_terms, eta)
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
    contracted = math.exp(-0.5 * log_s) / math.sqrt(n_terms + 1) * superposed  # N0 / sqrt(N+1) * sum
    success = float(np.sum(np.abs(contracted) ** 2) * grid.spacing)
    final_fn = WaveFunction1D(grid, superposed, "position", machine_input.conjugate_lo)
    return MachineRun(final_fn, _shift_distortion(machine_input.power, miss), success)


def success_scaling_probe(eta: float, n_values) -> np.ndarray:
    """Per-step ratios Prob(N') / Prob(N) of the success probability between consecutive sorted register sizes.

    Computed with unit overlaps between the shifted system states (the
    delta_t -> 0 limit), which isolates the register statistics:
    Prob(N) = 1 / ((N+1) * sum_n alpha_n^2), each ratio the exponential of a
    difference of logarithms, each size refused as in a run.  The ratios tend
    to 1/(2*eta-1)**2; their square roots, the per-step decay of the
    post-selection amplitude, tend to 1/(2*eta-1).  Each size must be an
    integer, and no size may repeat.
    """
    sizes = sorted(n_values)
    for n in sizes:
        require_integer(n, "register size", 1)
    if len(set(sizes)) < max(len(sizes), 2):  # a repeated size is a zero step, whose ratio is 1 by construction
        raise ValidationError(f"need at least two register sizes, none repeated, to form ratios; got {sizes}")
    passes = {}
    for n in sizes:  # one pass gives ln S at n and n + 1
        if n not in passes:
            passes[n], passes[n + 1] = log_square_sums(int(n), eta)
    log_probs = np.array([-math.log(n + 1) - log_square_sum(int(n), eta, passes[n]) for n in sizes])
    # normalize ratios to a per-unit-N step when the sequence is not contiguous
    return np.exp(np.diff(log_probs) / np.diff(sizes))
