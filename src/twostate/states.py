"""Forward, backward, paired, and generalized state descriptions.

A system between two complete measurements is described by a pair
(bra, ket): a ket fixed by the earlier outcome evolving forward, and a
co-state fixed by the later outcome evolving backward.  Generalized
descriptions are weighted superpositions of such pairs; their overall
normalization is deliberately not enforced because every consumer here is
a ratio formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OverlapTooSmall, ValidationError
from .linalg import DenseOperator

# Below this overlap magnitude, ratio formulas refuse to divide.
OVERLAP_EPSILON = 1e-12


def _as_state_array(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("state amplitudes must form a nonempty 1-D vector")
    if not np.all(np.isfinite(a)):
        raise ValidationError("state amplitudes must be finite")
    if np.linalg.norm(a) == 0.0:
        raise ValidationError("state must have nonzero norm")
    return a


@dataclass(frozen=True)
class StateVector:
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


@dataclass(frozen=True)
class CoStateVector:
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


@dataclass(frozen=True)
class TwoStateVector:
    """Paired description <Phi| |Psi> of a pre- and post-selected system."""

    bra: CoStateVector
    ket: StateVector

    def __post_init__(self):
        if self.bra.dim != self.ket.dim:
            raise DimensionMismatch(f"bra dim {self.bra.dim} vs ket dim {self.ket.dim}")

    @property
    def dim(self) -> int:
        return self.ket.dim

    def overlap(self) -> complex:
        return self.bra.pair(self.ket)

    def require_overlap(self) -> complex:
        ov = self.overlap()
        if abs(ov) <= OVERLAP_EPSILON * self.bra.norm() * self.ket.norm():
            raise OverlapTooSmall(f"|<Phi|Psi>| = {abs(ov):.3e} is below the division threshold")
        return ov


@dataclass(frozen=True)
class GeneralizedTwoStateVector:
    """Weighted superposition sum_i alpha_i <Phi_i| |Psi_i> (unnormalized)."""

    weights: tuple
    bras: tuple
    kets: tuple

    def __post_init__(self):
        if not (len(self.weights) == len(self.bras) == len(self.kets)) or len(self.weights) == 0:
            raise ValidationError("generalized description needs at least one (weight, bra, ket) term")
        w = tuple(complex(a) for a in self.weights)
        if all(a == 0 for a in w):
            raise ValidationError("all superposition weights vanish")
        dims = {b.dim for b in self.bras} | {k.dim for k in self.kets}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed dimensions in superposition terms: {sorted(dims)}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bras", tuple(self.bras))
        object.__setattr__(self, "kets", tuple(self.kets))

    @classmethod
    def from_terms(cls, terms) -> "GeneralizedTwoStateVector":
        terms = list(terms)
        if not terms:
            raise ValidationError("generalized description needs at least one (weight, bra, ket) term")
        weights, bras, kets = zip(*terms)
        return cls(weights, bras, kets)

    @classmethod
    def from_two_state(cls, tsv: TwoStateVector) -> "GeneralizedTwoStateVector":
        return cls((1.0,), (tsv.bra,), (tsv.ket,))

    @property
    def dim(self) -> int:
        return self.kets[0].dim

    def overlap(self) -> complex:
        return complex(sum(a * b.pair(k) for a, b, k in zip(self.weights, self.bras, self.kets)))

    def bilinear(self, op: DenseOperator) -> complex:
        """sum_i alpha_i <Phi_i| op |Psi_i>."""
        if op.dim != self.dim:
            raise DimensionMismatch(f"operator dim {op.dim} vs description dim {self.dim}")
        return complex(
            sum(a * (b.row @ op.apply(k.amplitudes)) for a, b, k in zip(self.weights, self.bras, self.kets))
        )


def interchange(description):
    """Time-reversal interchange <Phi||Psi> <-> <Psi||Phi>.

    For generalized descriptions the weights are conjugated along with the
    swap.  Applying it twice is the identity.
    """
    if isinstance(description, TwoStateVector):
        return TwoStateVector(
            bra=CoStateVector.from_ket(description.ket.amplitudes),
            ket=StateVector(description.bra.ket_form),
        )
    if isinstance(description, GeneralizedTwoStateVector):
        return GeneralizedTwoStateVector(
            weights=tuple(np.conj(a) for a in description.weights),
            bras=tuple(CoStateVector.from_ket(k.amplitudes) for k in description.kets),
            kets=tuple(StateVector(b.ket_form) for b in description.bras),
        )
    raise ValidationError(f"cannot interchange {type(description).__name__}")

