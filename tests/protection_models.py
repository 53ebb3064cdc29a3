"""Protection recipes that no scenario runs: the weak-value-substituted coupling and the model-spin protector.

`weak_value_substituted_hamiltonian` is the effective (non-Hermitian) coupling a pre- and post-selected
protector exerts on its target; `model_spin_protection` builds a protector for any pre/post pair through
model Pauli operators on their plane; `verify_spin_algebra` checks the ladder operators of
`twostate.protective.LargeSpin`.  The tests in `test_protective.py` check all three.
"""

from __future__ import annotations

import numpy as np

from twostate.errors import ValidationError
from twostate.linalg import PAULI_X, PAULI_Y, PAULI_Z, DenseOperator, Record
from twostate.protective import LargeSpin, _bloch_direction, _protection_matrix
from twostate.states import CoStateVector, StateVector, TwoStateVector
from twostate.weak import weak_value


def verify_spin_algebra(spin: LargeSpin) -> None:
    """[Sx, Sy] = i Sz and Casimir N(N+1), each to 1e-10 * N(N+1)."""
    sx, sy, sz = spin.operators()
    scale = spin.spin_n * (spin.spin_n + 1)
    if np.abs(sx @ sy - sy @ sx - 1j * sz).max() > 1e-10 * scale:
        raise ValidationError("commutator [Sx, Sy] != i Sz")
    casimir = sx @ sx + sy @ sy + sz @ sz
    if np.abs(casimir - scale * np.eye(spin.dim)).max() > 1e-10 * scale:
        raise ValidationError("Casimir invariant is not N(N+1)")


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
    operators = spin.operators()
    protector_pre = spin.coherent_state([0.0, 0.0, 1.0], operators)
    protector_post = spin.coherent_state(chi, operators)

    protection = DenseOperator(_protection_matrix(operators, coupling, (sig_x, sig_y, sig_z)))

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
