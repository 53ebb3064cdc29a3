"""Adiabatic and two-state-vector protective measurements.

Both simulations exploit the same structure: the measurement coupling is
momentum-diagonal (it involves the pointer only through P), so the joint
dynamics splits into independent system evolutions labelled by the pointer
momentum p.  Each momentum block is propagated with exact matrix
exponentials, one for each run of equal couplings (a flat stretch of the
schedule is a single exponential; a two-level system takes it in closed
form, with no eigh call), and the pointer is reassembled
afterwards; the only approximation anywhere is the physical one (finite
duration or finite coupling), never time discretization of a fixed
Hamiltonian.

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
from .states import CoStateVector, StateVector, TwoStateVector
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

    def coherent_state(self, direction) -> np.ndarray:
        """Top eigenstate |S.n = N> of the spin component along `direction`."""
        d = unit_vector(direction)
        sx, sy, sz = self.operators()
        return top_eigenvector(d[0] * sx + d[1] * sy + d[2] * sz)

    def verify_algebra(self) -> None:
        """[Sx, Sy] = i Sz and Casimir N(N+1), each to 1e-10 * N(N+1)."""
        sx, sy, sz = self.operators()
        scale = self.spin_n * (self.spin_n + 1)
        if np.abs(sx @ sy - sy @ sx - 1j * sz).max() > 1e-10 * scale:
            raise ValidationError("commutator [Sx, Sy] != i Sz")
        casimir = sx @ sx + sy @ sy + sz @ sz
        if np.abs(casimir - scale * np.eye(self.dim)).max() > 1e-10 * scale:
            raise ValidationError("Casimir invariant is not N(N+1)")


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


def _two_level_exponential(h: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(-i h tau) for a stack of Hermitian 2x2 h, in closed form (no LAPACK).

    With h = a I + b.sigma, exp(-i h tau) = e^{-i a tau} [cos(|b| tau) I
    - i tau sinc(|b| tau / pi) (h - a I)]; np.sinc covers |b| = 0.  The
    cosine takes the very angle the sinc's sine does, so the result stays
    unitary to rounding even where |b| tau is large.
    """
    h00, h11, h01 = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
    a, bz = (h00 + h11) / 2, (h00 - h11) / 2
    x = np.hypot(bz, np.abs(h01)) * tau / np.pi
    phase = np.exp(-1j * a * tau)
    c = phase * np.cos(np.pi * x)
    s = -1j * phase * tau * np.sinc(x)
    out = np.empty(h.shape, dtype=complex)
    out[..., 0, 0] = c + s * bz
    out[..., 0, 1] = s * h01
    out[..., 1, 0] = s * h01.conj()
    out[..., 1, 1] = c - s * bz
    return out


def _two_level_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over equal stacks of 2x2 matrices, entry by entry (an order of magnitude faster than matmul)."""
    out = np.empty(x.shape, dtype=complex)
    for i in range(2):
        for k in range(2):
            out[..., i, k] = x[..., i, 0] * y[..., 0, k] + x[..., i, 1] * y[..., 1, k]
    return out


def _ordered_propagators(h0m: np.ndarray, am: np.ndarray, ps: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """prod_k exp(-i (h0 + g_k p am) dt), later steps on the left, for every momentum p.

    Consecutive steps with exactly equal couplings share one Hamiltonian, so
    each run of n of them is the single exact exponential exp(-i H n dt): in
    closed form for a two-level system, by eigh otherwise.  Each batch of
    runs is multiplied pairwise, in log2(runs) batched rounds.
    """
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    lengths = np.diff(np.r_[starts, g.size])
    d = h0m.shape[0]
    exponential, product = (_two_level_exponential, _two_level_product) if d == 2 else (_eigh_exponential, np.matmul)
    out = np.broadcast_to(np.eye(d, dtype=complex), (ps.size, d, d)).copy()
    for lo in range(0, starts.size, _RUNS_PER_EIGH):
        gr, nr = g[starts[lo : lo + _RUNS_PER_EIGH]], lengths[lo : lo + _RUNS_PER_EIGH]
        steps = exponential(h0m + (gr[:, None] * ps)[:, :, None, None] * am, (nr * dt)[:, None])
        while len(steps) > 1:
            paired = product(steps[1::2], steps[: len(steps) - 1 : 2])
            if len(steps) % 2:
                paired[-1] = product(steps[-1], paired[-1])
            steps = paired
        out = product(steps[0], out)
    return out


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


def _protection_matrix(spin: LargeSpin, coupling: float, sigmas) -> np.ndarray:
    """-lambda * (S . sigma) = -lambda * sum_i S_i x sigma_i, protector factor first."""
    sx, sy, sz = spin.operators()
    return -coupling * (np.kron(sx, sigmas[0]) + np.kron(sy, sigmas[1]) + np.kron(sz, sigmas[2]))


def weak_value_substituted_hamiltonian(
    protector_tsv: TwoStateVector, spin: LargeSpin, coupling: float, sigmas=(PAULI_X, PAULI_Y, PAULI_Z)
) -> tuple[np.ndarray, np.ndarray]:
    """Effective target Hamiltonian matrix -lambda * (S_w . sigma) for a protected pair, and S_w.

    S_w holds the weak values of (Sx, Sy, Sz) in the protector's two-state
    description; they are complex in general, so the matrix is non-Hermitian
    (no `DenseOperator`) and acts differently on forward- and
    backward-evolving states.  `sigmas` are the target's Pauli operators: a
    model spin passes its own.
    """
    if protector_tsv.dim != spin.dim:
        raise ValidationError("protector description does not match the spin dimension")
    comps = np.array([weak_value(protector_tsv, DenseOperator(m)) for m in spin.operators()])
    return -coupling * (comps[0] * sigmas[0] + comps[1] * sigmas[1] + comps[2] * sigmas[2]), comps


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
    pre_protector = spin.coherent_state(alpha_dir)
    post_protector = spin.coherent_state(beta_dir)
    dim_s = spin.dim

    protection = _protection_matrix(spin, coupling, (PAULI_X, PAULI_Y, PAULI_Z))
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


class ModelSpinProtection(Record):
    """Protection recipe for an arbitrary pre/post pair via a model spin."""

    model_sigma: tuple
    protection_hamiltonian: DenseOperator
    effective_hamiltonian: np.ndarray  # non-Hermitian in general
    protector_pre: np.ndarray
    protector_post: np.ndarray
    chi_direction: np.ndarray
    weak_vector: np.ndarray


def model_spin_protection(
    pre: StateVector, post: StateVector, spin: LargeSpin, coupling: float
) -> ModelSpinProtection:
    """Build model-spin operators and the protector selections for (pre, post).

    The post state is decomposed as a|pre> + b|perp>; (pre, perp) define
    model Pauli operators on that plane (zero elsewhere), the protector is
    pre-selected along +z and post-selected along the Bloch direction of
    (a, b), and the weak-value-substituted coupling then has |pre> as its
    right eigenvector and <post| as its left eigenvector.
    """
    psi1 = pre.normalized().amplitudes
    psi2 = post.normalized().amplitudes
    a = complex(np.vdot(psi1, psi2))
    if abs(a) < 1e-12:
        raise ValidationError("orthogonal pre- and post-states cannot be jointly protected")
    residual = psi2 - a * psi1
    b = float(np.linalg.norm(residual))
    if b < 1e-14:
        # any direction orthogonal to psi1 works when post == pre
        seed = np.zeros_like(psi1)
        seed[int(np.argmin(np.abs(psi1)))] = 1.0
        perp = seed - np.vdot(psi1, seed) * psi1
        perp = perp / np.linalg.norm(perp)
        b = 0.0
    else:
        perp = residual / b

    up, down = psi1, perp
    sig_x = np.outer(up, down.conj()) + np.outer(down, up.conj())
    sig_y = -1j * np.outer(up, down.conj()) + 1j * np.outer(down, up.conj())
    sig_z = np.outer(up, up.conj()) - np.outer(down, down.conj())

    chi = _bloch_direction(np.array([a, b]))
    protector_pre = spin.coherent_state([0.0, 0.0, 1.0])
    protector_post = spin.coherent_state(chi)

    protection = DenseOperator(_protection_matrix(spin, coupling, (sig_x, sig_y, sig_z)))

    protector_tsv = TwoStateVector(CoStateVector.from_ket(protector_post), StateVector(protector_pre))
    effective, s_w = weak_value_substituted_hamiltonian(protector_tsv, spin, coupling, (sig_x, sig_y, sig_z))

    return ModelSpinProtection(
        model_sigma=(sig_x, sig_y, sig_z),
        protection_hamiltonian=protection,
        effective_hamiltonian=effective,
        protector_pre=protector_pre,
        protector_post=protector_post,
        chi_direction=chi,
        weak_vector=s_w,
    )
