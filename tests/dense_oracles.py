"""Dense oracles, built the slow way, that the tests check the library against.

The library evaluates its many-particle claims on (d,)*n product tensors,
one site at a time, and never forms a d**n x d**n operator.  These helpers
build the full vectors and operators with np.kron (or, for operators
diagonal in the product basis, their diagonals).  `projectors` forms a
spectral decomposition's dense d x d projectors, which `verify_projectors`
checks, and `evolve_unitary` moves states in time; the library does
neither.  `expectation_value` is the pre-selected-only end of the
weak-value chain.  `protected_measurement_per_momentum` is the protected
two-state measurement with one eigh for every momentum, which the library
shares between each +-p pair.  `stacked_two_level_propagators` is the
two-level ordered product on a strided (runs, momenta, 2, 2) stack of whole
matrices: the operations of the library's entry-by-entry kernel in the same
order, so the two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from twostate.errors import DimensionMismatch
from twostate.linalg import PAULI_X, PAULI_Y, PAULI_Z, DenseOperator, spin_direction, spin_up, unit_density
from twostate.pointer import density_peak, pointer_distribution_postselected
from twostate.protective import (
    _RUNS_PER_EIGH,
    ProtectedMeasurementResult,
    _bloch_direction,
    _position_densities,
    _protection_matrix,
    _significant_momentum,
)
from twostate.states import CoStateVector, StateVector, TwoStateVector
from twostate.weak import weak_value


def projectors(decomp) -> list:
    """P_n = V_n V_n^H for every eigenvector block of a spectral decomposition, as dense matrices."""
    return [v @ v.conj().T for v in decomp.blocks]


def verify_projectors(decomp) -> None:
    """Idempotent, mutually orthogonal projectors resolving the identity, each to 1e-10."""
    ps = projectors(decomp)
    total = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    for p in ps:
        assert np.abs(p @ p - p).max() <= 1e-10, "projector fails idempotency"
        total += p
    assert np.abs(total - np.eye(decomp.dim)).max() <= 1e-10, "projectors do not resolve the identity"
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            assert np.abs(ps[i] @ ps[j]).max() <= 1e-10, "projectors are not mutually orthogonal"


def evolve_unitary(state: np.ndarray, hamiltonian: DenseOperator, t: float) -> np.ndarray:
    """exp(-i*H*t) applied to a state vector (exact, via eigendecomposition)."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (hamiltonian.dim,):
        raise DimensionMismatch(f"state dim {psi.shape} vs operator dim {hamiltonian.dim}")
    w, v = np.linalg.eigh(hamiltonian.matrix)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))


def expectation_value(pre: StateVector, obs: DenseOperator) -> complex:
    """<psi|C|psi> / <psi|psi> with the dense matrix: the weak value with no post-selection."""
    psi = pre.amplitudes
    return complex(np.vdot(psi, obs.matrix @ psi) / np.vdot(psi, psi))


def kron_all(factors, dtype=complex) -> np.ndarray:
    """factors[0] x factors[1] x ..., for vectors or matrices."""
    out = np.asarray(factors[0], dtype=dtype)
    for factor in factors[1:]:
        out = np.kron(out, np.asarray(factor, dtype=dtype))
    return out


def site_sum(site_op, n: int, dtype=complex) -> np.ndarray:
    """sum_site 1 x ... x site_op x ... x 1 on n sites; a 1-D site_op is a diagonal and gives the diagonal."""
    d = len(site_op)
    one = np.ones(d) if np.ndim(site_op) == 1 else np.eye(d)
    return sum(kron_all([site_op if s == site else one for s in range(n)], dtype) for site in range(n))


def three_box_pressure(n: int, box: int) -> float:
    """(N_box)_w for n particles of the three-box state, from kron'd vectors and number-operator diagonals.

    Evaluated in np.longdouble: the 3**n terms of <Phi|Psi> = 3**-n cancel
    3**n-fold, which costs a double-precision flat sum up to 1e-12 at n = 9.
    """
    ket = np.full(3, 1 / np.sqrt(np.longdouble(3)))
    row = ket * np.array([1, 1, -1], dtype=np.longdouble)
    big_ket, big_row = kron_all([ket] * n, np.longdouble), kron_all([row] * n, np.longdouble)
    number = site_sum(np.eye(3, dtype=np.longdouble)[box], n, np.longdouble)
    return float(big_row @ (number * big_ket) / (big_row @ big_ket))


def n_spin_pointer(n: int, pointer):
    """The N-spin pointer from the dense 2**n x 2**n average of sigma_xi, decomposed by LAPACK."""
    avg = site_sum(spin_direction([1, 1, 0]).matrix, n) / n
    up_x, up_y = spin_up([1, 0, 0]), spin_up([0, 1, 0])
    tsv = TwoStateVector(CoStateVector.from_ket(kron_all([up_y] * n)), StateVector(kron_all([up_x] * n)))
    return pointer_distribution_postselected(tsv, DenseOperator(avg), pointer)


def protected_measurement_per_momentum(target_tsv, obs, spin, coupling, pointer) -> ProtectedMeasurementResult:
    """`protected_two_state_measurement` with its own eigh of -lambda*S.sigma + p*obs at every significant p."""
    ket, bra = target_tsv.ket.normalized().amplitudes, target_tsv.bra.ket_form
    operators = spin.operators()
    pre_protector = spin.coherent_state(_bloch_direction(ket), operators)
    post_protector = spin.coherent_state(_bloch_direction(bra / np.linalg.norm(bra)), operators)
    protection = _protection_matrix(operators, coupling, (PAULI_X, PAULI_Y, PAULI_Z))
    coupling_op = np.kron(np.eye(spin.dim), obs.matrix)
    init = np.kron(pre_protector, ket)
    mom, mask = _significant_momentum(pointer)
    out = np.zeros((mom.grid.points, 2), dtype=complex)
    for idx in np.flatnonzero(mask):
        w, v = np.linalg.eigh(protection + mom.grid.values[idx] * coupling_op)
        evolved = v @ (np.exp(-1j * w) * (v.conj().T @ init))
        out[idx] = (post_protector.conj() @ evolved.reshape(spin.dim, 2)) * mom.values[idx]
    post_norm = float((np.abs(out[mask]) ** 2).sum() * mom.grid.spacing)
    grid, terms = _position_densities(mom.grid, out, mom.conjugate_lo)
    dens = unit_density(sum(terms), grid.spacing)
    shift = float((grid.values * dens).sum() * grid.spacing)
    target = weak_value(target_tsv, obs).real
    return ProtectedMeasurementResult(
        pointer_shift=shift,
        target_value=target,
        error=abs(shift - target),
        lambda_n_over_p0=coupling * spin.spin_n / (1.0 / pointer.delta),
        post_selection_prob=post_norm,
        peak_location=density_peak(grid, dens),
    )


def stacked_two_level_exponential(h: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(-i h tau) for a (..., 2, 2) stack of Hermitian h, in closed form, as a (..., 2, 2) stack."""
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


def stacked_two_level_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over equal (..., 2, 2) stacks, entry by entry."""
    out = np.empty(x.shape, dtype=complex)
    for i in range(2):
        for k in range(2):
            out[..., i, k] = x[..., i, 0] * y[..., 0, k] + x[..., i, 1] * y[..., 1, k]
    return out


def stacked_two_level_propagators(h0m, am, ps, g, dt) -> np.ndarray:
    """prod_k exp(-i (h0 + g_k p am) dt) for 2x2 h0 and am, later steps on the left: a closed form per run, pairwise."""
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    lengths = np.diff(np.r_[starts, g.size])
    out = np.broadcast_to(np.eye(2, dtype=complex), (ps.size, 2, 2)).copy()
    for lo in range(0, starts.size, _RUNS_PER_EIGH):
        gr, nr = g[starts[lo : lo + _RUNS_PER_EIGH]], lengths[lo : lo + _RUNS_PER_EIGH]
        h = h0m + (gr[:, None] * ps)[:, :, None, None] * am
        steps = stacked_two_level_exponential(h, (nr * dt)[:, None])
        while len(steps) > 1:
            paired = stacked_two_level_product(steps[1::2], steps[: len(steps) - 1 : 2])
            if len(steps) % 2:
                paired[-1] = stacked_two_level_product(steps[-1], paired[-1])
            steps = paired
        out = stacked_two_level_product(steps[0], out)
    return out
