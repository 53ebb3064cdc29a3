"""Weak values of observables for pre- and post-selected descriptions.

The weak value of C for <Phi||Psi> is the (generally complex) ratio

    C_w = <Phi|C|Psi> / <Phi|Psi>.

A sufficiently gentle pointer coupling reads Re(C_w) in position and
Im(C_w) in momentum; the value may lie far outside the spectrum of C.
Every function returns the overlap magnitude alongside the value so
callers can judge the conditioning of the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverlapTooSmall, PostSelectionImpossible, ValidationError
from .ideal import _require_projector, abl_generalized, certain_outcome
from .linalg import DenseOperator, hermitian_eigendecomposition, pauli, require_integer
from .states import StateVector, _require_overlap


@dataclass(frozen=True)
class WeakValue:
    value: complex
    overlap_magnitude: float


@dataclass(frozen=True)
class WeakVector:
    """Weak values of (sigma_x, sigma_y, sigma_z) for a spin-1/2 description."""

    wx: complex
    wy: complex
    wz: complex

    @property
    def components(self) -> np.ndarray:
        return np.array([self.wx, self.wy, self.wz])


def weak_value(description, obs: DenseOperator) -> WeakValue:
    """<Phi|C|Psi> / <Phi|Psi>, or its generalized form, for either description type."""
    ov = description.require_overlap()
    return WeakValue(complex(description.bilinear(obs) / ov), abs(ov))


def weak_value_degenerate_post(pre: StateVector, post_projector: DenseOperator, obs: DenseOperator) -> WeakValue:
    """<Psi| P_B C |Psi> / <Psi| P_B |Psi>; the identity projector gives <C>."""
    pb = _require_projector(post_projector)
    psi = pre.amplitudes
    denom = _require_overlap(complex(np.vdot(psi, pb @ psi)), pre.norm() ** 2)
    num = complex(np.vdot(psi, pb @ obs.apply(psi)))
    return WeakValue(num / denom, abs(denom))


def weak_vector(description) -> WeakVector:
    if description.dim != 2:
        raise ValidationError("weak vectors are defined for spin-1/2 descriptions only")
    return WeakVector(*(weak_value(description, pauli(ax)).value for ax in "xyz"))


@dataclass(frozen=True)
class ConeDirection:
    theta: float
    phi: float
    probability: float


def _spinors(theta, phi) -> np.ndarray:
    """Rows v+, v-: the closed-form +-1 eigenvectors of sigma . n at polar angle theta, azimuth phi (or arrays)."""
    c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
    return np.stack([np.stack([c, e * s], axis=-1), np.stack([-e.conj() * s, c], axis=-1)], axis=-2)


def _certainty_probability(description, theta: float, phi: float) -> float:
    return float(abl_generalized(description, _spinors(theta, phi)))


def certainty_cone(description, samples: int = 16) -> list[ConeDirection]:
    """Directions along which the spin component is +1 with certainty.

    The candidate set comes from the weak-vector criterion: the projection
    of the weak vector on the direction must equal 1 (two real constraints
    for a complex weak vector).  All candidates are built as one (m, 3)
    array, their angles and closed-form +-1 spinors in one pass; each is
    then cross-checked with one ABL contraction, and only directions whose
    probability reaches 1 - 1e-10 are returned.
    """
    require_integer(samples, "azimuthal samples", 8)
    try:
        w = weak_vector(description).components
    except OverlapTooSmall:
        return []  # overlap vanishes: no finite weak vector, no certified cone
    w_re, w_im = w.real, w.imag
    complex_w = np.linalg.norm(w_im) > 1e-9
    pole = w_im if complex_w else w_re  # of the great circle Im(w) . n = 0, else of the cone Re(w) . n = 1
    length = np.linalg.norm(pole)
    if not complex_w and length < 1.0 - 1e-12:
        return []
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
            return []
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
    out: list[ConeDirection] = []
    for theta, phi, spinors in zip(thetas.tolist(), phis.tolist(), _spinors(thetas, phis)):
        try:
            prob = float(abl_generalized(description, spinors))
        except PostSelectionImpossible:
            continue
        if prob >= 1.0 - 1e-10:
            out.append(ConeDirection(theta, phi, prob))
    return out


@dataclass(frozen=True)
class TheoremReport:
    applicable: bool
    passed: bool | None
    certain_value: float | None
    weak_value: complex | None


def theorem_i_check(description, obs: DenseOperator) -> TheoremReport:
    """Certain strong outcome implies the weak value equals that eigenvalue (to 1e-10)."""
    certain = certain_outcome(description, obs)
    if certain is None:
        return TheoremReport(False, None, None, None)
    wv = weak_value(description, obs).value
    ok = bool(abs(wv - certain) <= 1e-10)
    return TheoremReport(True, ok, certain, wv)


def theorem_ii_check(description, obs: DenseOperator) -> TheoremReport:
    """For dichotomic observables, a weak value at an eigenvalue (to 1e-10) implies certainty."""
    decomp = hermitian_eigendecomposition(obs)
    if len(decomp.eigenvalues) != 2:
        raise ValidationError("theorem (ii) applies to dichotomic observables only")
    wv = weak_value(description, obs).value
    matches = [c for c in decomp.eigenvalues if abs(wv - c) <= 1e-10]
    if not matches:
        return TheoremReport(False, None, None, wv)
    certain = certain_outcome(description, obs)
    ok = certain is not None and abs(certain - matches[0]) <= 1e-10
    return TheoremReport(True, bool(ok), certain, wv)
