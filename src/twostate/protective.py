"""Adiabatic and two-state-vector protective measurements.

Both simulations exploit the same structure: the measurement coupling is
momentum-diagonal (it involves the pointer only through P), so the joint
dynamics splits into independent system evolutions labelled by the pointer
momentum p.  Each momentum block is propagated with exact matrix
exponentials, one for each run of equal couplings (a flat stretch of the
schedule is a single exponential; a two-level system takes it in closed
form, with no eigh call, each matrix entry one array over runs and momenta),
and the pointer is reassembled afterwards; the only approximation anywhere
is the physical one (finite duration or finite coupling), never time
discretization of a fixed Hamiltonian.  The pointer's transforms take their
phase factors from `linalg.fourier_pair`'s cache, once per grid.

Protection of a single state uses a slow, weak coupling dominated by a
nondegenerate free Hamiltonian: the pointer then shifts by the expectation
value of the measured observable in the occupied eigenstate.  Protection
of a two-state vector couples the target to a large pre- and post-selected
spin, whose weak-value-substituted (non-Hermitian) coupling holds both the
forward and the backward state in place, so the pointer records a weak
value instead.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, PostSelectionImpossible, ValidationError
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DenseOperator,
    Record,
    WaveFunction1D,
    fourier_pair,
    require_integer,
    require_positive,
    top_eigenvector,
    unit_density,
    unit_vector,
)
from .pointer import GaussianPointer, density_mean, density_peak
from .states import StateVector, TwoStateVector
from .weak import weak_value

MOMENTUM_SIGNIFICANCE = 1e-10
LEAKAGE_FLAG_LEVEL = 0.01


class AdiabaticSchedule(Record):
    """Coupling profile with unit time integral, cosine-tapered over its first and last tenth."""

    total_time: float
    steps: int = 400

    def __post_init__(self):
        require_positive(self.total_time, "total time")
        require_integer(self.steps, "steps", 100)

    def sampled_coupling(self) -> tuple[np.ndarray, float]:
        """Midpoint samples of g(t), rescaled so sum(g)*dt is exactly 1."""
        dt = self.total_time / self.steps
        tm = (np.arange(self.steps) + 0.5) * dt
        ramp = 0.1 * self.total_time
        g = np.ones(self.steps)
        head = tm < ramp
        g[head] = 0.5 * (1.0 - np.cos(np.pi * tm[head] / ramp))
        tail = tm > self.total_time - ramp
        g[tail] = 0.5 * (1.0 - np.cos(np.pi * (self.total_time - tm[tail]) / ramp))
        g /= g.sum() * dt
        return g, dt


class LargeSpin(Record):
    """Spin-N triple (Sx, Sy, Sz) on the 2N+1 dimensional ladder basis."""

    spin_n: int

    def __post_init__(self):
        require_integer(self.spin_n, "spin quantum number", 1)

    @property
    def dim(self) -> int:
        return 2 * self.spin_n + 1

    def operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.spin_n
        m = np.arange(n, -n - 1, -1, dtype=float)
        sz = np.diag(m).astype(complex)
        raise_op = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(1, self.dim):
            mm = m[i]
            raise_op[i - 1, i] = math.sqrt(n * (n + 1) - mm * (mm + 1))
        sx = (raise_op + raise_op.conj().T) / 2
        sy = (raise_op - raise_op.conj().T) / 2j
        return sx, sy, sz

    def coherent_state(self, direction, operators: tuple) -> np.ndarray:
        """Top eigenstate |S.n = N> of the spin component along `direction`, from the spin's `operators()`."""
        d = unit_vector(direction)
        sx, sy, sz = operators
        return top_eigenvector(d[0] * sx + d[1] * sy + d[2] * sz)


def _significant_momentum(pointer: GaussianPointer):
    """Momentum wavefunction of the initial pointer and its significant window."""
    mom = fourier_pair(pointer.initial_wavefunction())
    mask = np.abs(mom.values) > MOMENTUM_SIGNIFICANCE * np.abs(mom.values).max()
    return mom, mask


def _position_densities(mom_grid, component_block: np.ndarray, conjugate_lo: float):
    """Position grid and the unnormalized |FT^-1 c_j(p)|^2 of each column j of a (points, d) block."""
    terms = []
    for j in range(component_block.shape[1]):
        pos = fourier_pair(WaveFunction1D(mom_grid, component_block[:, j], "momentum", conjugate_lo))
        terms.append(np.abs(pos.values) ** 2)
    return pos.grid, terms


# Runs of equal couplings exponentiated per batch, on either path; bounds the
# batch, and so the peak memory, independently of the number of steps.
_RUNS_PER_EIGH = 256


def _eigh_exponential(h: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(-i h tau) for a stack of Hermitian h, tau broadcast over the stack, by eigh."""
    w, v = np.linalg.eigh(h)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w * tau[..., None]), v.conj())


def _two_level_exponential(h0m: np.ndarray, am: np.ndarray, gp: np.ndarray, tau: np.ndarray) -> tuple:
    """Entries (u00, u01, u10, u11) of exp(-i h tau), h = h0 + gp am for 2x2 Hermitian h0 and am, in closed form.

    Each entry is one contiguous array of the shape of gp and tau broadcast.
    With h = a I + b.sigma, exp(-i h tau) = e^{-i a tau} [cos(|b| tau) I
    - i tau sinc(|b| tau / pi) (h - a I)]; np.sinc covers |b| = 0.  The
    cosine takes the very angle the sinc's sine does, so the result stays
    unitary to rounding even where |b| tau is large.
    """
    h00, h11, h01 = (h0m[i, k] + gp * am[i, k] for i, k in ((0, 0), (1, 1), (0, 1)))
    h00, h11 = h00.real, h11.real
    a, bz = (h00 + h11) / 2, (h00 - h11) / 2
    x = np.hypot(bz, np.abs(h01)) * tau / np.pi
    phase = np.exp(-1j * a * tau)
    c = phase * np.cos(np.pi * x)
    s = -1j * phase * tau * np.sinc(x)
    return c + s * bz, s * h01, s * h01.conj(), c - s * bz


def _two_level_product(x: tuple, y: tuple) -> tuple:
    """x @ y over equal stacks of 2x2 matrices held entry by entry, (m00, m01, m10, m11)."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return x00 * y00 + x01 * y10, x00 * y01 + x01 * y11, x10 * y00 + x11 * y10, x10 * y01 + x11 * y11


def _ordered_propagators(h0m: np.ndarray, am: np.ndarray, ps: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """prod_k exp(-i (h0 + g_k p am) dt), later steps on the left, for every momentum p.

    Consecutive steps with exactly equal couplings share one Hamiltonian, so
    each run of n of them is the single exact exponential exp(-i H n dt): in
    closed form for a two-level system, by eigh otherwise.  Each batch of
    runs is multiplied pairwise, in log2(runs) batched rounds.  A stack is a
    tuple over runs: the four entries of a 2x2, or one (runs, momenta, d, d).
    """
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    lengths = np.diff(np.r_[starts, g.size])
    d = h0m.shape[0]
    if d == 2:
        product, out = _two_level_product, tuple(np.full(ps.size, e, dtype=complex) for e in (1, 0, 0, 1))
    else:
        product, out = lambda x, y: (x[0] @ y[0],), (np.broadcast_to(np.eye(d, dtype=complex), (ps.size, d, d)),)
    for lo in range(0, starts.size, _RUNS_PER_EIGH):
        gp, tau = g[starts[lo : lo + _RUNS_PER_EIGH], None] * ps, (lengths[lo : lo + _RUNS_PER_EIGH] * dt)[:, None]
        if d == 2:
            steps = _two_level_exponential(h0m, am, gp, tau)
        else:
            steps = (_eigh_exponential(h0m + gp[:, :, None, None] * am, tau),)
        while len(steps[0]) > 1:
            n = len(steps[0])
            paired = product([e[1::2] for e in steps], [e[: n - 1 : 2] for e in steps])
            if n % 2:
                for e, last in zip(paired, product([e[-1] for e in steps], [e[-1] for e in paired])):
                    e[-1] = last
            steps = paired
        out = product([e[0] for e in steps], out)
    return np.stack(out, axis=-1).reshape(ps.size, 2, 2) if d == 2 else out[0]


class AdiabaticResult(Record):
    pointer_shift: float
    branch_weights: np.ndarray
    branch_shifts: np.ndarray
    branch_targets: np.ndarray
    leakage: float
    leakage_flagged: bool
    min_gap: float

    def to_dict(self) -> dict:
        return {
            "shift": self.pointer_shift,
            "branch_weights": self.branch_weights.tolist(),
            "branch_shifts": self.branch_shifts.tolist(),
            "branch_targets": self.branch_targets.tolist(),
            "adiabaticity_leakage": self.leakage,
            "leakage_flagged": self.leakage_flagged,
            "min_gap": self.min_gap,
        }


def adiabatic_protective_measurement(
    h0: DenseOperator,
    obs: DenseOperator,
    initial: StateVector,
    schedule: AdiabaticSchedule,
    pointer: GaussianPointer,
) -> AdiabaticResult:
    """Slow, weak measurement of `obs` protected by a nondegenerate `h0`.

    Per momentum block p the system propagator is the ordered product of
    exact exponentials of h0 + g(t_k) * p * obs; consecutive steps with
    equal couplings are taken as one exponential of the summed duration.
    An eigenstate input shifts the pointer by the corresponding expectation
    value with error O(1/T); a superposition splits into branches with
    weights |alpha_i|^2 whose per-branch shifts are the per-eigenstate
    expectation values.  `leakage` is the probability of ending in another
    h0 eigenstate, sum_p w_p sum_i |alpha_i|^2 sum_{j != i} |<E_j|U_p|E_i>|^2,
    summed directly so that a small leakage keeps its relative precision.
    """
    if h0.dim != obs.dim or h0.dim != initial.dim:
        raise ValidationError("dimension mismatch between Hamiltonian, observable, and state")
    energies, basis = np.linalg.eigh(h0.matrix)
    gaps = np.diff(np.sort(energies))
    min_gap = float(gaps.min()) if gaps.size else float("inf")
    if min_gap < 1e-9:
        raise ValidationError("free Hamiltonian must have a nondegenerate spectrum")

    mom, mask = _significant_momentum(pointer)
    ps = mom.grid.values[mask]
    g, dt = schedule.sampled_coupling()
    d = h0.dim

    am = obs.matrix
    propagators = _ordered_propagators(h0.matrix, am, ps, g, dt)

    psi0 = initial.normalized().amplitudes
    final_states = np.einsum("bij,j->bi", propagators, psi0)

    # branch decomposition in the h0 eigenbasis
    branch_amps = np.einsum("ji,bj->bi", basis.conj(), final_states)  # <E_i|psi_p>
    pointer_weights = np.abs(mom.values[mask]) ** 2
    pointer_weights = pointer_weights / pointer_weights.sum()

    alphas = basis.conj().T @ psi0
    transitions = np.abs(np.einsum("ji,bjk,kl->bil", basis.conj(), propagators, basis)) ** 2
    transitions[:, np.arange(d), np.arange(d)] = 0.0
    leakage = float(np.einsum("b,bji,i->", pointer_weights, transitions, np.abs(alphas) ** 2))

    # pointer density of each branch, one inverse transform each, and overall
    block = np.zeros((mom.grid.points, d), dtype=complex)
    block[mask] = branch_amps * mom.values[mask, None]
    grid, terms = _position_densities(mom.grid, block, mom.conjugate_lo)
    overall_shift = density_mean(grid, unit_density(sum(terms), grid.spacing))

    weights, shifts = [], []
    for i in range(d):
        wgt = float((np.abs(block[mask, i]) ** 2).sum() / (np.abs(block[mask]) ** 2).sum())
        weights.append(wgt)
        if wgt > 1e-12:
            shifts.append(density_mean(grid, unit_density(terms[i], grid.spacing)))
        else:
            shifts.append(float("nan"))
    targets = np.array([float(np.vdot(basis[:, i], am @ basis[:, i]).real) for i in range(d)])

    return AdiabaticResult(
        pointer_shift=overall_shift,
        branch_weights=np.array(weights),
        branch_shifts=np.array(shifts),
        branch_targets=targets,
        leakage=leakage,
        leakage_flagged=bool(leakage > LEAKAGE_FLAG_LEVEL),
        min_gap=min_gap,
    )


def _protection_matrix(operators: tuple, coupling: float, sigmas) -> np.ndarray:
    """-lambda * (S . sigma) = -lambda * sum_i S_i x sigma_i, protector factor first, from the spin's `operators()`."""
    sx, sy, sz = operators
    return -coupling * (np.kron(sx, sigmas[0]) + np.kron(sy, sigmas[1]) + np.kron(sz, sigmas[2]))


def _bloch_direction(spinor: np.ndarray) -> np.ndarray:
    v = spinor / np.linalg.norm(spinor)
    return np.array(
        [
            2.0 * (v[0].conjugate() * v[1]).real,
            2.0 * (v[0].conjugate() * v[1]).imag,
            (abs(v[0]) ** 2 - abs(v[1]) ** 2),
        ]
    )


class ProtectedMeasurementResult(Record):
    pointer_shift: float
    target_value: float
    error: float
    lambda_n_over_p0: float
    post_selection_prob: float
    peak_location: float

    def to_dict(self) -> dict:
        return {
            "shift": self.pointer_shift,
            "target_value": self.target_value,
            "error": self.error,
            "lambdaN_over_P0": self.lambda_n_over_p0,
            "post_selection_prob": self.post_selection_prob,
            "peak": self.peak_location,
        }


def protected_two_state_measurement(
    target_tsv: TwoStateVector,
    obs: DenseOperator,
    spin: LargeSpin,
    coupling: float,
    pointer: GaussianPointer,
) -> ProtectedMeasurementResult:
    """Measure `obs` on a spin-1/2 two-state vector protected by a large spin.

    The protector is pre-selected along the target ket's Bloch direction and
    post-selected along the bra's; the joint system evolves for unit time
    under -lambda*S.sigma + p*obs per momentum block, only the protector is
    post-selected, and the pointer mean then approaches the real part of
    the target's weak value as the protection dominates the momentum scale
    (reported as lambda*N/P0 with P0 = 1/delta).

    D = exp(-i pi J_z), up to a phase the signature (-1)^(spin + target index),
    commutes with the protection and negates I x obs when `obs` has a zero
    diagonal (any sigma in the xy-plane); then h(-p) = D h(p) D entry by entry
    and U(-p) init = D U(p) D init, so each exact +-p pair shares one eigh.
    """
    if target_tsv.dim != 2:
        raise ValidationError("the protected target must be a spin-1/2 description")
    if obs.dim != 2:
        raise DimensionMismatch(f"the protected observable must be 2x2, got {obs.dim}x{obs.dim}")
    if not math.isfinite(coupling):
        raise ValidationError(f"protection coupling must be finite, got {coupling}")
    alpha_dir = _bloch_direction(target_tsv.ket.normalized().amplitudes)
    beta_dir = _bloch_direction(target_tsv.bra.ket_form / np.linalg.norm(target_tsv.bra.ket_form))
    operators = spin.operators()
    pre_protector = spin.coherent_state(alpha_dir, operators)
    post_protector = spin.coherent_state(beta_dir, operators)
    dim_s = spin.dim

    protection = _protection_matrix(operators, coupling, (PAULI_X, PAULI_Y, PAULI_Z))
    coupling_op = np.kron(np.eye(dim_s), obs.matrix)
    init = np.kron(pre_protector, target_tsv.ket.normalized().amplitudes)

    mom, mask = _significant_momentum(pointer)
    ps, significant = mom.grid.values, np.flatnonzero(mask)
    partner = {} if obs.matrix.diagonal().any() else dict(zip(ps[significant].tolist(), significant))
    sign = np.kron((-1.0) ** np.arange(dim_s), [1.0, -1.0])
    out = np.zeros((mom.grid.points, 2), dtype=complex)
    for idx in significant:
        mirror = partner.get(-ps[idx], idx)
        if mirror < idx:
            continue
        w, v = np.linalg.eigh(protection + ps[idx] * coupling_op)
        for j, flip in ((idx, 1.0), (mirror, sign))[: 1 + (mirror != idx)]:
            evolved = flip * (v @ (np.exp(-1j * w) * (v.conj().T @ (flip * init))))
            out[j] = (post_protector.conj() @ evolved.reshape(dim_s, 2)) * mom.values[j]

    post_norm = float((np.abs(out[mask]) ** 2).sum() * mom.grid.spacing)
    if post_norm < 1e-20:
        raise PostSelectionImpossible("protector post-selection amplitude vanishes")

    grid, terms = _position_densities(mom.grid, out, mom.conjugate_lo)
    dens = unit_density(sum(terms), grid.spacing)
    shift = density_mean(grid, dens)
    target = weak_value(target_tsv, obs).real
    p0 = 1.0 / pointer.delta
    return ProtectedMeasurementResult(
        pointer_shift=shift,
        target_value=target,
        error=abs(shift - target),
        lambda_n_over_p0=coupling * spin.spin_n / p0,
        post_selection_prob=post_norm,
        peak_location=density_peak(grid, dens),
    )
