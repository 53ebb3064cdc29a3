"""Conditional outcome statistics for ideal (projective) measurements.

The central formula: for a system described by <Phi||Psi>, the probability
of outcome c_n of an ideal measurement of C at the intermediate time is

    Prob(c_n) = |<Phi| P_n |Psi>|^2 / sum_j |<Phi| P_j |Psi>|^2

with P_n the projector onto the c_n eigenspace; a generalized description
puts sum_i alpha_i <Phi_i|P_n|Psi_i> in its place.  Variants cover
degenerate post-selections and the pre-selected-only limit, which is the
Born rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, PostSelectionImpossible, ValidationError
from .linalg import DenseOperator, SpectralDecomposition, hermitian_eigendecomposition, is_hermitian
from .states import StateVector, TwoStateVector

# An outcome is "certain" when its conditional probability reaches this level.
CERTAINTY_THRESHOLD = 1.0 - 1e-10

# Identically zero ABL denominators are detected against this floor.
DENOMINATOR_FLOOR = 1e-24


@dataclass(frozen=True)
class OutcomeDistribution:
    """Eigenvalues of the measured observable with conditional probabilities."""

    eigenvalues: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.eigenvalues, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if e.shape != p.shape or e.ndim != 1 or not (np.isfinite(e).all() and np.isfinite(p).all()):
            raise ValidationError("eigenvalues and probabilities must be matching 1-D arrays of finite values")
        if np.any(p < -1e-12):
            raise ValidationError("negative probability")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValidationError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "eigenvalues", e)
        object.__setattr__(self, "probabilities", np.clip(p, 0.0, None))

    def probability_of(self, value: float, tol: float = 1e-9) -> float:
        hits = np.where(np.abs(self.eigenvalues - value) <= tol)[0]
        if hits.size == 0:
            raise ValidationError(f"{value} is not an eigenvalue of the measured observable")
        return float(self.probabilities[hits].sum())


def _require_denominator(total) -> None:
    if not ((total > DENOMINATOR_FLOOR) & (total < np.inf)).all():  # a NaN fails both comparisons
        cause = "zero: post-selection is incompatible with every outcome" if np.isfinite(total).all() else "not finite"
        raise PostSelectionImpossible(f"the ABL denominator is {cause}")


def _distribution_from_weights(decomp: SpectralDecomposition, weights: np.ndarray) -> OutcomeDistribution:
    total = weights.sum()
    _require_denominator(total)
    return OutcomeDistribution(decomp.eigenvalues, weights / total)


def abl(description, obs: DenseOperator) -> OutcomeDistribution:
    """Conditional probabilities for a two-state or a generalized description."""
    decomp = hermitian_eigendecomposition(obs)
    return _distribution_from_weights(decomp, np.abs(description.selection_amplitudes(decomp)) ** 2)


def basis_occupation_probabilities(tsv: TwoStateVector) -> np.ndarray:
    """abl(tsv, projector_onto(e_i)).probability_of(1.0) for every basis state |i>, in one array pass.

    a_i = <Phi|i><i|Psi>; the never-formed complement of |i> carries <Phi|Psi> - a_i.
    """
    a = tsv.bra.row * tsv.ket.amplitudes
    hit = np.abs(a) ** 2
    total = np.abs(tsv.bra.row @ tsv.ket.amplitudes - a) ** 2 + hit
    _require_denominator(total)
    return hit / total


def abl_generalized(description, spinors) -> float:
    """Prob(+1) = |A+|**2 / (|A+|**2 + |A-|**2) of sigma . n, for `spinors` the rows v+, v- (leading axes broadcast).

    A+- = sum_i alpha_i (row_i . v+-)(v+-^H . ket_i): `abl` on a spin-1/2 description, with no operator built.
    `bench/tracing.py` counts certainty-cone candidates by this name.
    """
    if description.dim != 2:
        raise DimensionMismatch(f"abl_generalized takes a spin-1/2 description, not dim {description.dim}")
    alpha, rows, kets = description.stacked_terms
    weights = np.abs(((spinors @ rows.T) * (spinors.conj() @ kets.T)) @ alpha) ** 2
    total = weights[..., 0] + weights[..., 1]
    _require_denominator(total)
    return weights[..., 0] / total


def _require_projector(post_projector: DenseOperator) -> np.ndarray:
    m = post_projector.matrix
    if not post_projector.hermitian or np.abs(m @ m - m).max() > 1e-10:
        raise ValidationError("post-selection operator must be a Hermitian projector")
    return m


def abl_degenerate_post(pre: StateVector, post_projector: DenseOperator, obs: DenseOperator) -> OutcomeDistribution:
    """Conditional probabilities when the later measurement is degenerate.

    Prob(c_n) = ||P_B P_n |Psi>||^2 / sum_j ||P_B P_j |Psi>||^2.  With the
    identity projector this reduces to the Born rule.
    """
    pb = _require_projector(post_projector)
    decomp = hermitian_eigendecomposition(obs)
    weights = np.linalg.norm(decomp.branches(pre.amplitudes) @ pb.T, axis=1) ** 2
    return _distribution_from_weights(decomp, weights)


def born(pre: StateVector, obs: DenseOperator) -> OutcomeDistribution:
    """Pre-selected-only outcome statistics, ||P_n |Psi>||^2 (normalized)."""
    decomp = hermitian_eigendecomposition(obs)
    weights = decomp.selection_amplitudes(pre.amplitudes.conj(), pre.amplitudes).real  # ||P_n psi||^2
    return _distribution_from_weights(decomp, weights)


def born_backward(bra, obs: DenseOperator) -> OutcomeDistribution:
    """Outcome statistics for a system described only by a backward state.

    ||<Phi| P_n||^2 equals <Phi|P_n|Phi>, so the statistics coincide with
    the Born rule for the ket form of the co-state.
    """
    return born(StateVector(bra.ket_form), obs)


def certain_outcome(description, obs: DenseOperator):
    """The eigenvalue obtained with certainty, or None if no outcome is certain."""
    dist = abl(description, obs)
    idx = int(np.argmax(dist.probabilities))
    if dist.probabilities[idx] >= CERTAINTY_THRESHOLD:
        return float(dist.eigenvalues[idx])
    return None


@dataclass(frozen=True)
class ProductRuleReport:
    a_certain: float | None
    b_certain: float | None
    ab_certain: float | None
    product_rule_holds: bool | None
    commutator_norm: float

    def to_dict(self) -> dict:
        return asdict(self)


def product_rule_report(tsv, obs_a: DenseOperator, obs_b: DenseOperator) -> ProductRuleReport:
    """Certainties of A, B, and the literal product AB, and whether they multiply.

    The product observable is formed as a matrix product and must itself be
    Hermitian (true whenever A and B commute).  For pre- and post-selected
    systems certainty of A and of B does not imply AB is certain at the
    product value; the report flags exactly that, comparing a*b with ab to 1e-9.
    """
    prod = obs_a.matrix @ obs_b.matrix
    if not is_hermitian(prod, 1e-10):
        raise ValidationError("product observable is not Hermitian; measure the factors separately")
    comm = float(np.linalg.norm(obs_a.matrix @ obs_b.matrix - obs_b.matrix @ obs_a.matrix, 2))
    obs_ab = DenseOperator(prod)
    a_c = certain_outcome(tsv, obs_a)
    b_c = certain_outcome(tsv, obs_b)
    ab_c = certain_outcome(tsv, obs_ab)
    holds = None
    if a_c is not None and b_c is not None and ab_c is not None:
        holds = bool(abs(a_c * b_c - ab_c) <= 1e-9)
    return ProductRuleReport(a_c, b_c, ab_c, holds, comm)


@dataclass(frozen=True)
class CounterfactualReport:
    """Two readings of the final-outcome decomposition of Prob(C = c_n).

    Reading (a) weighs the conditional probabilities by final-outcome
    probabilities computed as if C had not been measured; reading (b) weighs
    them by the sequential probabilities with the C measurement inserted.
    Only (b) reconstructs the pre-selected-only statistics in general.
    """

    c_eigenvalues: np.ndarray
    final_eigenvalues: np.ndarray
    weights_without: np.ndarray
    weights_with: np.ndarray
    marginal_without: np.ndarray
    marginal_with: np.ndarray
    born_marginal: np.ndarray
    deviation_without: float
    deviation_with: float


def counterfactual_decomposition_check(
    pre: StateVector, obs_c: DenseOperator, final_obs: DenseOperator
) -> CounterfactualReport:
    """Compare the fallacious and the correct conditioning of the decomposition.

    The decomposition Prob(C=c_n) = sum_f Prob(f) * Prob(C=c_n ; f) is exact
    only when Prob(f) is computed with the intermediate measurement of C
    actually performed.  The report returns both weightings, the assembled
    marginals, and the maximum deviations of the joint tables from the
    sequential (two-measurement) Born probabilities.
    """
    c_dec = hermitian_eigendecomposition(obs_c)
    f_dec = hermitian_eigendecomposition(final_obs)
    if len(f_dec.eigenvalues) < 2:
        raise ValidationError("final observable must have at least two outcomes")
    psi = pre.normalized().amplitudes

    # Sequential truth: Prob(c_n then f) = ||P_f P_n psi||^2
    joint_true = np.array([f_dec.selection_amplitudes(b.conj(), b).real for b in c_dec.branches(psi)])

    weights_with = joint_true.sum(axis=0)
    weights_without = f_dec.selection_amplitudes(psi.conj(), psi).real

    # Conditional ABL table Prob(c_n ; f); columns with zero weight cannot
    # occur under either reading and are left at zero.
    conditional = np.zeros_like(joint_true)
    for j in range(len(f_dec.eigenvalues)):
        denom = joint_true[:, j].sum()
        if denom > DENOMINATOR_FLOOR:
            conditional[:, j] = joint_true[:, j] / denom

    joint_without = conditional * weights_without[None, :]
    joint_with = conditional * weights_with[None, :]
    born_marginal = joint_true.sum(axis=1)

    return CounterfactualReport(
        c_eigenvalues=c_dec.eigenvalues,
        final_eigenvalues=f_dec.eigenvalues,
        weights_without=weights_without,
        weights_with=weights_with,
        marginal_without=joint_without.sum(axis=1),
        marginal_with=joint_with.sum(axis=1),
        born_marginal=born_marginal,
        deviation_without=float(np.abs(joint_without - joint_true).max()),
        deviation_with=float(np.abs(joint_with - joint_true).max()),
    )
