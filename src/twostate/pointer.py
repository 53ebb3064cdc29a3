"""Exact von Neumann pointer dynamics for impulsive measurements.

The measuring device is a 1-D pointer prepared in the Gaussian

    psi_in(Q) = (pi * D**2)**-0.25 * exp(-Q**2 / (2*D**2)),

whose position density has width D in the exp(-Q**2/D**2) convention.  An
impulsive coupling g(t) * P * C of unit time integral rigidly translates the
pointer by c_n within the c_n eigenspace of C, so every pointer state is
assembled exactly from the spectral decomposition; there is no time-stepping
error anywhere in this module.  A coupling integral g0 is the same as
measuring the observable g0 * C.

Post-selecting the system state <Phi| leaves the pointer in

    Phi(Q) ∝ sum_n <Phi|P_n|Psi> * psi_in(Q - c_n),

whose squared modulus interpolates between eigenvalue peaks (strong
coupling, small D) and a single peak at the real part of the weak value
(weak coupling, large D).  The imaginary part appears as a momentum-space
shift of Im(C_w) / D**2 with the conventions above.

Every pointer built from weighted centers, post-selected or N-spin, is
assembled by `superposed_pointer`, which adds the shifted Gaussians one
grid-sized term at a time; Fourier shifts of sampled functions belong to
the time machine (`timemachine`).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import GridOverflow, PostSelectionImpossible, ValidationError
from .ideal import born
from .linalg import (
    DenseOperator,
    Grid1D,
    Record,
    WaveFunction1D,
    _read_only,
    exact_cache,
    fourier_pair,
    gaussian_wavefunction,
    hermitian_eigendecomposition,
    require_integer,
    require_width,
    unit_density,
)
from .states import GeneralizedTwoStateVector, StateVector

WEAK_REGIME_FACTOR = 10.0


class GaussianPointer(Record):
    """Pointer width and sampling grid; grid must cover shifts plus 6 widths."""

    delta: float
    grid: Grid1D

    def __post_init__(self):
        require_width(self.delta, "pointer width")

    @classmethod
    def for_spectrum(cls, delta: float, eigenvalues, points: int = 4096):
        """Grid spanning +-(max|c| + 8*D)."""
        require_width(delta, "pointer width")  # before a negative width makes an empty grid
        reach = float(np.max(np.abs(eigenvalues))) if np.size(eigenvalues) else 0.0
        span = reach + 8.0 * delta
        return cls(delta, Grid1D(-span, span, points))

    def initial_wavefunction(self) -> WaveFunction1D:
        return gaussian_wavefunction(self.grid, self.delta)

    def check_covers(self, shifts) -> None:
        lo_need = float(np.min(shifts)) - 6.0 * self.delta
        hi_need = float(np.max(shifts)) + 6.0 * self.delta
        if self.grid.lo > lo_need or self.grid.hi < hi_need:
            raise GridOverflow(
                f"grid [{self.grid.lo}, {self.grid.hi}] does not cover shifts {lo_need}..{hi_need}"
            )

    def check_resolves(self) -> None:
        """From D = 2 grid spacings up, the Riemann sum of a sampled pointer density is exact to about 1e-17."""
        if self.delta < 2.0 * self.grid.spacing:
            raise ValidationError(f"pointer width {self.delta} is below 2 grid spacings, {2.0 * self.grid.spacing:.3g}")


class PointerResult(Record):
    """A pointer's position density and readings; its position function and momentum side are made on first read."""

    q_grid: Grid1D
    q_density: np.ndarray
    amplitude: np.ndarray  # read-only samples on q_grid of the position function, before it is normalized
    norm_squared: float  # the amplitude's squared norm on q_grid
    peak_location: float
    mean: float
    delta: float
    regime: str

    @cached_property
    def p_source(self) -> WaveFunction1D:
        """The normalized position function, a read-only complex copy; p_grid and p_density come from its transform."""
        return _read_only(WaveFunction1D(self.q_grid, self.amplitude / math.sqrt(self.norm_squared)))

    @cached_property
    def _momentum(self) -> WaveFunction1D:
        return fourier_pair(self.p_source)

    @property
    def p_grid(self) -> Grid1D:
        return self._momentum.grid

    @property
    def p_density(self) -> np.ndarray:
        return self._momentum.density()

    def summary(self) -> dict:
        return {"peak": self.peak_location, "mean": self.mean, "delta": self.delta, "regime": self.regime}


def _gaussian_sum(q: np.ndarray, weights, centers, s: float) -> np.ndarray:
    """sum_n weights[n] * exp(-(q - centers[n])**2 / s), added one term at a time.

    Memory stays at a few grid-sized arrays however many centers there are.
    Weights of shape (n, m) give the m sums as the rows of an (m, q.size)
    array.
    """
    w = np.asarray(weights)
    total = np.zeros(w.shape[1:] + q.shape, dtype=np.result_type(w, q))
    for wn, c in zip(w, centers):
        total += np.multiply.outer(wn, np.exp(-((q - c) ** 2) / s))
    return total


def _regime(delta: float, eigenvalues) -> str:
    reach = float(np.max(np.abs(eigenvalues))) if np.size(eigenvalues) else 0.0
    if reach == 0.0 or delta >= WEAK_REGIME_FACTOR * reach:
        return "weak"
    if delta <= 0.3 * reach:
        return "strong"
    return "intermediate"


def density_mean(grid: Grid1D, density: np.ndarray) -> float:
    """The mean of a unit density sampled on `grid`: the Riemann sum of Q * density."""
    return float(np.sum(grid.values * density) * grid.spacing)


def density_peak(grid: Grid1D, density: np.ndarray) -> float:
    """The density's maximum, quadratically interpolated between its grid neighbours for sub-grid accuracy."""
    i = int(np.argmax(density))
    if i == 0 or i == density.size - 1:
        return float(grid.values[i])
    y0, y1, y2 = density[i - 1], density[i], density[i + 1]
    denom = y0 - 2 * y1 + y2
    if denom == 0.0:
        return float(grid.values[i])
    return float(grid.values[i] + 0.5 * (y0 - y2) / denom * grid.spacing)


def _pointer_result(
    pointer: GaussianPointer, q_density: np.ndarray, amplitude: np.ndarray, norm_squared: float, centers
) -> PointerResult:
    grid = pointer.grid
    return PointerResult(
        q_grid=grid,
        q_density=q_density,
        amplitude=_read_only(amplitude),  # the deferred function sees exactly the values the result was built from
        norm_squared=norm_squared,
        peak_location=density_peak(grid, q_density),
        mean=density_mean(grid, q_density),
        delta=pointer.delta,
        regime=_regime(pointer.delta, centers),
    )


def pointer_distribution_preselected(
    pre: StateVector,
    obs: DenseOperator,
    pointer: GaussianPointer,
) -> PointerResult:
    """Prob(Q) = sum_n ||P_n psi||^2 * psi_in(Q - c_n)**2 for a normalized psi."""
    decomp = hermitian_eigendecomposition(obs)
    pointer.check_covers(decomp.eigenvalues)
    weights = born(pre.normalized(), obs).probabilities
    dens = _gaussian_sum(pointer.grid.values, weights, decomp.eigenvalues, pointer.delta**2)
    dens = unit_density(dens, pointer.grid.spacing)
    pointer.check_resolves()
    # Momentum density of the branch mixture: each rigid shift only adds a
    # phase in P, so it coincides with the initial pointer's.
    return _pointer_result(pointer, dens, pointer.initial_wavefunction().values, 1.0, decomp.eigenvalues)


def pointer_distribution_postselected(
    tsv: GeneralizedTwoStateVector,
    obs: DenseOperator,
    pointer: GaussianPointer,
) -> PointerResult:
    """Pointer left in Phi(Q) ∝ sum_n <Phi|P_n|Psi> psi_in(Q - c_n), normalized."""
    decomp = hermitian_eigendecomposition(obs)
    floor = 1e-20 * tsv.scale * tsv.scale  # (1e-20 * scale) * scale: no intermediate scale**2 to overflow
    return superposed_pointer(tsv.selection_amplitudes(decomp), decomp.eigenvalues, pointer, floor)


def moment_expansion_residual(
    tsv: GeneralizedTwoStateVector,
    obs: DenseOperator,
    pointer: GaussianPointer,
    order: int = 2,
) -> float:
    """Relative distance between the exact pointer state and its moment expansion.

    The momentum-space expansion of the post-selected pointer reads

        exp(-i C_w P) + sum_{n>=2} (iP)^n/n! * [(C^n)_w - (C_w)^n]

    times the initial Gaussian.  `order` is the first omitted moment, so
    order=2 keeps the pure weak-value factor.  The residual shrinks as the
    pointer gets wider.
    """
    if order < 2:
        raise ValidationError("expansion order starts at 2")
    ov = tsv.require_overlap()
    decomp = hermitian_eigendecomposition(obs)
    shifts = decomp.eigenvalues
    amps = tsv.selection_amplitudes(decomp) / ov
    mom = fourier_pair(pointer.initial_wavefunction())
    p = mom.grid.values
    exact = mom.values * (amps[:, None] * np.exp(-1j * np.outer(shifts, p))).sum(axis=0)
    cw = complex((amps * shifts).sum())  # weak value of C
    series = np.exp(-1j * cw * p).astype(complex)
    for n in range(2, order):
        moment_n = complex((amps * shifts**n).sum())  # (C^n)_w
        series += (1j * p) ** n / math.factorial(n) * (moment_n - cw**n)
    approx = mom.values * series
    dp = mom.grid.spacing
    num = np.sqrt(np.sum(np.abs(exact - approx) ** 2) * dp)
    den = np.sqrt(np.sum(np.abs(exact) ** 2) * dp)
    return float(num / den)


@exact_cache(1)  # one (size, seed) per sweep: 16 bytes a draw, 16 MB at the 10**6 ensemble cap
def _sorted_draws(n_samples: int, seed: int) -> tuple:
    """(order, u[order]) for the uniforms u = default_rng(seed).random(n_samples): the runs of a sweep share them."""
    u = np.random.default_rng(seed).random(n_samples)
    order = np.argsort(u)  # sorted queries keep np.interp's searches in cache
    return order, u[order]


def _invert_cdf(draws: tuple, cdf: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.interp(u, cdf, q) bit for bit (each query is found on its own) for the `_sorted_draws` pair of u.

    The sorted draws are interpolated in one pass and scattered back through
    `order`, so every reading has the value and the place it has in draw order.
    """
    order, sorted_u = draws
    samples = np.empty(order.size)
    samples[order] = np.interp(sorted_u, cdf, q)
    return samples


def ensemble_mean_estimator(result: PointerResult, n_samples: int, seed: int) -> dict:
    """Sample pointer readings from a computed pointer distribution: {"mean", "stderr", "n_samples", "seed"}.

    The quoted standard error uses the pointer-width convention of the
    Gaussian above (density ∝ exp(-Q**2/D**2), width D = sqrt(2)*sigma), so
    for D=10 and 5000 samples it reads 10/sqrt(5000) ~ 0.14.  A single
    sample quotes the pointer width D itself as its spread.
    """
    require_integer(n_samples, "samples", 1)
    require_integer(seed, "seed", 0)
    cdf = np.cumsum(result.q_density) * result.q_grid.spacing
    cdf /= cdf[-1]
    samples = _invert_cdf(_sorted_draws(n_samples, seed), cdf, result.q_grid.values)
    spread = samples.std(ddof=1) if n_samples > 1 else result.delta
    stderr = float(np.sqrt(2.0) * spread / np.sqrt(n_samples))
    return {"mean": float(samples.mean()), "stderr": stderr, "n_samples": n_samples, "seed": seed}


def n_spin_weights_and_centers(n: int):
    """Binomial amplitudes and pointer centers for the N-spin average coupling.

    Pre-selecting every spin along +x and post-selecting along +y leaves the
    pointer (coupled to the average of the bisector components) in a
    superposition with amplitudes binom(n,i) * cos^2(pi/8)^(n-i) *
    (-sin^2(pi/8))^i at centers (n-2i)/n, as the full tensor-product
    computation confirms (one published form of the expression prints the
    centers as (2n-i)/n).
    """
    require_integer(n, "spins", 1)
    cos2, sin2 = np.cos(np.pi / 8) ** 2, np.sin(np.pi / 8) ** 2
    idx = np.arange(n + 1)
    weights = np.array(
        [math.comb(n, i) * cos2 ** (n - i) * (-sin2) ** i for i in idx]
    )
    centers = (n - 2 * idx) / n
    return weights, centers


def superposed_pointer(amplitudes, centers, pointer: GaussianPointer, min_norm_squared: float = 0.0) -> PointerResult:
    """Pointer left in sum_n amplitudes[n] * psi_in(Q - centers[n]), normalized.

    Every pointer assembled from weighted centers goes through here.  A sum
    whose squared norm on the grid is zero, below `min_norm_squared` or not
    finite is refused (PostSelectionImpossible) before the resolution check.
    Post-selection passes 1e-20 times its description's squared `scale`,
    below which its states leave only rounding; the N-spin amplitudes sum
    to 2**(-n/2) by nature and pass no floor.
    """
    pointer.check_covers(centers)
    norm = (np.pi * pointer.delta**2) ** -0.25
    vals = _gaussian_sum(pointer.grid.values, amplitudes * norm, centers, 2 * pointer.delta**2)
    with np.errstate(over="ignore"):  # an overflowed norm is refused just below
        power = np.abs(vals) ** 2
        norm_squared = float(np.sum(power) * pointer.grid.spacing)
    if not norm_squared < math.inf:  # normalizing by it would leave a zero or NaN pointer
        raise PostSelectionImpossible("projected pointer's squared norm on the grid is not finite")
    if norm_squared == 0.0 or norm_squared < min_norm_squared:
        raise PostSelectionImpossible("projected pointer amplitude vanishes on the grid")
    pointer.check_resolves()
    return _pointer_result(pointer, unit_density(power, pointer.grid.spacing), vals, norm_squared, centers)


def n_spin_pointer_closed_form(n: int, pointer: GaussianPointer) -> PointerResult:
    """Pointer distribution for the single-system N-spin measurement."""
    return superposed_pointer(*n_spin_weights_and_centers(n), pointer)

