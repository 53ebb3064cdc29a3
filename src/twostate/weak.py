"""Weak values of observables for pre- and post-selected descriptions.

The weak value of C for <Phi||Psi> is the (generally complex) ratio

    C_w = <Phi|C|Psi> / <Phi|Psi>.

A sufficiently gentle pointer coupling reads Re(C_w) in position and
Im(C_w) in momentum; the value may lie far outside the spectrum of C.
Every denominator passes `states._require_overlap`, which refuses an
overlap too small to divide by.
"""

from __future__ import annotations

import numpy as np

from .errors import OverlapTooSmall, PostSelectionImpossible, ValidationError
from .ideal import CERTAINTY_THRESHOLD, _require_projector, abl_generalized, certain_outcome
from .linalg import DenseOperator, hermitian_eigendecomposition, pauli, require_integer
from .states import StateVector, TwoStateVector, _require_overlap, _unit_scaled


def weak_value(description, obs: DenseOperator) -> complex:
    """<Phi|C|Psi> / <Phi|Psi>, or its generalized form, for either description type."""
    return complex(description.bilinear(obs) / description.require_overlap())


def basis_weak_values(tsv: TwoStateVector) -> np.ndarray:
    """(|i><i|)_w = <Phi|i><i|Psi> / <Phi|Psi> for every basis state |i>, in one array pass (they sum to 1)."""
    return tsv.bra.row * tsv.ket.amplitudes / tsv.require_overlap()


def weak_value_degenerate_post(pre: StateVector, post_projector: DenseOperator, obs: DenseOperator) -> complex:
    """<Psi| P_B C |Psi> / <Psi| P_B |Psi>; the identity projector gives <C>."""
    pb = _require_projector(post_projector)
    psi, norm = _unit_scaled(pre.amplitudes, pre.norm())
    denom = _require_overlap(complex(np.vdot(psi, pb @ psi)), norm * norm)
    num = complex(np.vdot(psi, pb @ (obs.matrix @ psi)))
    return num / denom


def weak_vector(description) -> np.ndarray:
    """Weak values of (sigma_x, sigma_y, sigma_z) for a spin-1/2 description, as a (3,) complex array."""
    if description.dim != 2:
        raise ValidationError("weak vectors are defined for spin-1/2 descriptions only")
    return np.array([weak_value(description, pauli(ax)) for ax in "xyz"])


def _spinors(theta, phi) -> np.ndarray:
    """Rows v+, v-: the closed-form +-1 eigenvectors of sigma . n at polar angle theta, azimuth phi (or arrays)."""
    c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
    return np.stack([np.stack([c, e * s], axis=-1), np.stack([-e.conj() * s, c], axis=-1)], axis=-2)


def certainty_cone(description, samples: int = 16) -> np.ndarray:
    """Directions along which the spin component is +1 with certainty, as (theta, phi, probability) rows.

    The candidate set comes from the weak-vector criterion: the projection
    of the weak vector on the direction must equal 1 (two real constraints
    for a complex weak vector).  All candidates are built as one (m, 3)
    array, their angles and closed-form +-1 spinors in one pass; each is
    then cross-checked with one ABL contraction, and only directions whose
    probability reaches CERTAINTY_THRESHOLD are returned, as an (m, 3) float array
    (no direction: shape (0, 3)).
    """
    require_integer(samples, "azimuthal samples", 8)
    try:
        w = weak_vector(description)
    except OverlapTooSmall:
        return np.empty((0, 3))  # overlap vanishes: no finite weak vector, no certified cone
    w_re, w_im = w.real, w.imag
    complex_w = np.linalg.norm(w_im) > 1e-9
    pole = w_im if complex_w else w_re  # of the great circle Im(w) . n = 0, else of the cone Re(w) . n = 1
    length = np.linalg.norm(pole)
    if not complex_w and length < 1.0 - 1e-12:
        return np.empty((0, 3))
    axis = pole / length
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, seed)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    if complex_w:
        # solve Re(w) . n = 1 on the great circle
        a, b = float(w_re @ u), float(w_re @ v)
        r = np.hypot(a, b)
        if r < 1.0 - 1e-12:
            return np.empty((0, 3))
        ang = np.arctan2(b, a) + np.array([[1.0], [-1.0]]) * np.arccos(np.clip(1.0 / r, -1, 1))
        nhat = np.cos(ang) * u + np.sin(ang) * v
    elif length <= 1.0 + 1e-12:
        nhat = axis[None, :]  # cone degenerates to the single direction of w
    else:
        half_angle = np.arccos(1.0 / length)
        ang = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)[:, None]
        nhat = np.cos(half_angle) * axis + np.sin(half_angle) * (np.cos(ang) * u + np.sin(ang) * v)
    nhat = nhat / np.sqrt(nhat[:, None, :] @ nhat[:, :, None])[:, 0]  # each row's norm summed as np.linalg.norm sums it
    thetas = np.arccos(np.clip(nhat[:, 2], -1, 1))
    phis = np.arctan2(nhat[:, 1], nhat[:, 0]) % (2 * np.pi)
    out = []
    for theta, phi, spinors in zip(thetas.tolist(), phis.tolist(), _spinors(thetas, phis)):
        try:
            prob = float(abl_generalized(description, spinors))
        except PostSelectionImpossible:
            continue
        if prob >= CERTAINTY_THRESHOLD:
            out.append((theta, phi, prob))
    return np.array(out).reshape(-1, 3)


def theorem_i_check(description, obs: DenseOperator) -> bool | None:
    """Certain strong outcome implies a weak value at that eigenvalue (to 1e-10); None when no outcome is certain."""
    certain = certain_outcome(description, obs)
    if certain is None:
        return None
    return bool(abs(weak_value(description, obs) - certain) <= 1e-10)


def theorem_ii_check(description, obs: DenseOperator) -> bool | None:
    """For dichotomic observables, a weak value at an eigenvalue (to 1e-10) implies certainty; None if it is at none."""
    decomp = hermitian_eigendecomposition(obs)
    if len(decomp.eigenvalues) != 2:
        raise ValidationError("theorem (ii) applies to dichotomic observables only")
    wv = weak_value(description, obs)
    matches = [c for c in decomp.eigenvalues if abs(wv - c) <= 1e-10]
    if not matches:
        return None
    certain = certain_outcome(description, obs)
    return certain is not None and bool(abs(certain - matches[0]) <= 1e-10)
