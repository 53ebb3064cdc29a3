"""Forward, backward, paired, and generalized state descriptions.

A system between two complete measurements is described by a pair
(bra, ket): a ket fixed by the earlier outcome evolving forward, and a
co-state fixed by the later outcome evolving backward.  Generalized
descriptions are weighted superpositions of such pairs; their overall
normalization is deliberately not enforced because every consumer here is
a ratio formula.  Both description types contract themselves with an
operator or a spectrum (`overlap`, `require_overlap`, `selection_amplitudes`,
`bilinear`), so every rule that uses only these takes either type.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, OverlapTooSmall, ValidationError
from .linalg import DenseOperator, SpectralDecomposition, _read_only

# Below this overlap magnitude, ratio formulas refuse to divide.
OVERLAP_EPSILON = 1e-12


def _require_overlap(ov: complex, scale: float) -> complex:
    """`ov`, refused when |ov| is at most OVERLAP_EPSILON times `scale`, the size of the norms it is made of.

    A subnormal |ov| is refused at any scale: numpy divides by multiplying with 1/ov, which overflows there.
    """
    if abs(ov) <= max(OVERLAP_EPSILON * scale, sys.float_info.min):
        raise OverlapTooSmall(f"overlap {abs(ov):.3e} is below the division threshold")
    return ov


def _check_operator_dim(op: DenseOperator, dim: int) -> None:
    if op.dim != dim:
        raise DimensionMismatch(f"operator dim {op.dim} vs description dim {dim}")


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
        return _require_overlap(self.overlap(), self.bra.norm() * self.ket.norm())

    def selection_amplitudes(self, decomp: SpectralDecomposition) -> np.ndarray:
        """<Phi|P_n|Psi> for every eigenvalue of `decomp`."""
        return decomp.selection_amplitudes(self.bra.row, self.ket.amplitudes)

    @cached_property
    def stacked_terms(self) -> tuple:
        """(alpha, rows, kets) of the one term (1, bra, ket), stacked as a generalized description stacks its terms."""
        return GeneralizedTwoStateVector([(1.0, self.bra, self.ket)]).stacked_terms

    def bilinear(self, op: DenseOperator):
        """<Phi| op |Psi>, as a numpy scalar: dividing it keeps numpy's complex division."""
        _check_operator_dim(op, self.dim)
        return self.bra.row @ op.apply(self.ket.amplitudes)


@dataclass(frozen=True)
class GeneralizedTwoStateVector:
    """Weighted superposition sum_i alpha_i <Phi_i| |Psi_i> (unnormalized) of (alpha_i, bra, ket) `terms`."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((complex(a), b, k) for a, b, k in self.terms)
        if not terms:
            raise ValidationError("generalized description needs at least one (weight, bra, ket) term")
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

    def require_overlap(self) -> complex:
        return _require_overlap(self.overlap(), sum(abs(a) * b.norm() * k.norm() for a, b, k in self.terms))

    def selection_amplitudes(self, decomp: SpectralDecomposition) -> np.ndarray:
        """sum_i alpha_i <Phi_i|P_n|Psi_i> for every eigenvalue of `decomp`."""
        return sum(a * decomp.selection_amplitudes(b.row, k.amplitudes) for a, b, k in self.terms)

    @cached_property
    def stacked_terms(self) -> tuple:
        """(alpha, rows, kets): weights, bra rows and kets as read-only arrays, one entry or row per term."""
        alpha, rows, kets = zip(*((a, b.row, k.amplitudes) for a, b, k in self.terms))
        return _read_only(np.array(alpha)), _read_only(np.array(rows)), _read_only(np.array(kets))

    def bilinear(self, op: DenseOperator) -> complex:
        """sum_i alpha_i <Phi_i| op |Psi_i>."""
        _check_operator_dim(op, self.dim)
        return complex(sum(a * (b.row @ op.apply(k.amplitudes)) for a, b, k in self.terms))


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
            [(np.conj(a), CoStateVector.from_ket(k.amplitudes), StateVector(b.ket_form)) for a, b, k in description.terms]
        )
    raise ValidationError(f"cannot interchange {type(description).__name__}")
