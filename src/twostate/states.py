"""Forward, backward, paired and generalized state descriptions.

A system between two complete measurements is described by a pair
(bra, ket): a ket fixed by the earlier outcome evolving forward, and a
co-state fixed by the later outcome evolving backward.  A generalized
description is a weighted superposition of such pairs; its overall
normalization is deliberately not enforced because every consumer here is
a ratio formula.  A `TwoStateVector` is its one-term case (1, bra, ket), so
one implementation of each contraction (`overlap`, `require_overlap`,
`selection_amplitudes`, `stacked_terms`, `bilinear`) serves every rule.
Every refusal of a small ratio denominator is relative to the description's
`scale`, so multiplying a bra or a ket by a constant changes no result.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, OverlapTooSmall, ValidationError
from .linalg import DenseOperator, Record, SpectralDecomposition, _read_only

# Below this overlap magnitude, ratio formulas refuse to divide.
OVERLAP_EPSILON = 1e-12


def _require_overlap(ov: complex, scale: float) -> complex:
    """`ov`, refused when |ov| is at most OVERLAP_EPSILON times `scale`, the size of the norms it is made of.

    A subnormal |ov| is refused at any scale: numpy divides by multiplying with 1/ov, which overflows there.
    Every overlap a ratio divides by passes here: |ov| / scale is the conditioning of that ratio.
    """
    if not cmath.isfinite(ov):
        raise ValidationError(f"overlap {ov} is not finite")
    if abs(ov) <= max(OVERLAP_EPSILON * scale, sys.float_info.min):
        raise OverlapTooSmall(f"overlap {abs(ov):.3e} is below the division threshold")
    return ov


def _unit_scaled(values, scale: float):
    """`values` and `scale` times the power of two that takes `scale` into [0.5, 1); below 2**-960, refused.

    A power of two multiplies exactly, so every ratio of the values keeps its bits while their squares stop under-
    and overflowing: every ratio rule (`abl`, `born` and their kin) scales its amplitudes or its ket here.  Below
    2**-960, an amplitude that the ABL floor (1e-12 of the scale) lets through can carry more than 2**-52 of its
    size in products that underflow (2**-1074 each, up to 2**22 of them), so such a description cannot be scaled,
    and unscaled every amplitude (at most the scale) squares to 0.
    """
    if not scale >= 2.0**-960:
        raise ValidationError(f"description scale {scale:.3e} is below 2**-960: its squared amplitudes underflow")
    factor = 2.0 ** -math.frexp(scale)[1]
    return values * factor, scale * factor


def _as_state_array(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("state amplitudes must form a nonempty 1-D vector")
    if not np.all(np.isfinite(a)):
        raise ValidationError("state amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if not 0.0 < norm < np.inf:
        cause = "overflows" if norm else "underflows to 0" if a.any() else "is 0"
        raise ValidationError(f"state norm {cause}: a state needs a finite, positive norm")
    return a


class StateVector(Record):
    """Forward-evolving ket."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_state_array(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm())


class CoStateVector(Record):
    """Backward-evolving co-state.

    `row` holds the dual-vector entries, i.e. already-conjugated ket
    amplitudes, so pairing with a ket is the plain contraction row @ ket.
    """

    row: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row", _as_state_array(self.row))

    @classmethod
    def from_ket(cls, amplitudes) -> "CoStateVector":
        return cls(np.conj(np.asarray(amplitudes, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.row.size

    @property
    def ket_form(self) -> np.ndarray:
        """The outcome state |b> this co-state was built from."""
        return np.conj(self.row)

    def norm(self) -> float:
        return float(np.linalg.norm(self.row))

    def pair(self, state: StateVector | np.ndarray) -> complex:
        amps = state.amplitudes if isinstance(state, StateVector) else np.asarray(state, dtype=complex)
        if amps.shape != self.row.shape:
            raise DimensionMismatch(f"co-state dim {self.dim} vs state dim {amps.size}")
        return complex(self.row @ amps)


class GeneralizedTwoStateVector(Record):
    """Weighted superposition sum_i alpha_i <Phi_i| |Psi_i> (unnormalized) of (alpha_i, bra, ket) `terms`."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((complex(a), b, k) for a, b, k in self.terms)
        if not terms:
            raise ValidationError("generalized description needs at least one (weight, bra, ket) term")
        if not all(cmath.isfinite(a) for a, _, _ in terms):
            raise ValidationError("superposition weights must be finite")
        if all(a == 0 for a, _, _ in terms):
            raise ValidationError("all superposition weights vanish")
        dims = {v.dim for _, b, k in terms for v in (b, k)}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed dimensions in superposition terms: {sorted(dims)}")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.terms[0][2].dim

    def overlap(self) -> complex:
        return complex(sum(a * b.pair(k) for a, b, k in self.terms))

    @cached_property
    def scale(self) -> float:
        """sum_i |alpha_i| ||Phi_i|| ||Psi_i||, which bounds every amplitude: ratio refusals are relative to it."""
        size = sum(abs(a) * b.norm() * k.norm() for a, b, k in self.terms)
        if size == np.inf:
            raise ValidationError("description size sum_i |alpha_i| ||Phi_i|| ||Psi_i|| overflows: it is not finite")
        return size

    def require_overlap(self) -> complex:
        return _require_overlap(self.overlap(), self.scale)

    def selection_amplitudes(self, decomp: SpectralDecomposition) -> np.ndarray:
        """sum_i alpha_i <Phi_i|P_n|Psi_i> for every eigenvalue of `decomp`."""
        return sum(a * decomp.selection_amplitudes(b.row, k.amplitudes) for a, b, k in self.terms)

    @cached_property
    def stacked_terms(self) -> tuple:
        """(alpha, rows, kets, scale): weights, bra rows and kets as read-only arrays, one entry or row per term.

        The weights and the `scale` are `_unit_scaled` once here, so a contraction through them pays nothing for it.
        """
        alpha, rows, kets = zip(*((a, b.row, k.amplitudes) for a, b, k in self.terms))
        alpha, scale = _unit_scaled(np.array(alpha), self.scale)
        return _read_only(alpha), _read_only(np.array(rows)), _read_only(np.array(kets)), scale

    def bilinear(self, op: DenseOperator):
        """sum_i alpha_i <Phi_i| op |Psi_i>, as a numpy scalar: dividing it keeps numpy's complex division."""
        if op.dim != self.dim:
            raise DimensionMismatch(f"operator dim {op.dim} vs description dim {self.dim}")
        return sum(a * (b.row @ (op.matrix @ k.amplitudes)) for a, b, k in self.terms)


class TwoStateVector(GeneralizedTwoStateVector):
    """Paired description <Phi| |Psi> of a pre- and post-selected system: the one term (1, bra, ket)."""

    def __init__(self, bra: CoStateVector, ket: StateVector):
        super().__init__(((1.0, bra, ket),))

    @property
    def bra(self) -> CoStateVector:
        return self.terms[0][1]

    @property
    def ket(self) -> StateVector:
        return self.terms[0][2]


def interchange(description: GeneralizedTwoStateVector) -> GeneralizedTwoStateVector:
    """Time-reversal interchange sum_i alpha_i <Phi_i||Psi_i> -> sum_i conj(alpha_i) <Psi_i||Phi_i>.

    Applying it twice is the identity; a two-state vector stays one.
    """
    if not isinstance(description, GeneralizedTwoStateVector):
        raise ValidationError(f"cannot interchange {type(description).__name__}")
    terms = [(np.conj(a), CoStateVector.from_ket(k.amplitudes), StateVector(b.ket_form)) for a, b, k in description.terms]
    return TwoStateVector(*terms[0][1:]) if isinstance(description, TwoStateVector) else GeneralizedTwoStateVector(terms)
