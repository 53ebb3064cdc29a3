import re

import numpy as np
import pytest
from dense_oracles import evolve_unitary

from twostate.errors import DimensionMismatch, OverlapTooSmall, ValidationError
from twostate.linalg import DenseOperator, pauli, spin_up
from twostate.states import (
    CoStateVector,
    GeneralizedTwoStateVector,
    StateVector,
    TwoStateVector,
    _require_overlap,
    interchange,
)


def _random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DenseOperator(raw + raw.conj().T)


def preselected(outcome: StateVector, h: DenseOperator, t1: float, t: float) -> StateVector:
    """The earlier outcome |a>, forward-evolved from t1 to t."""
    return StateVector(evolve_unitary(outcome.amplitudes, h, t - t1))


def postselected(outcome: CoStateVector, h: DenseOperator, t: float, t2: float) -> CoStateVector:
    """The later outcome <b|, backward-evolved from t2 to t: ket form exp(+iH(t2 - t))|b>."""
    return CoStateVector.from_ket(evolve_unitary(outcome.ket_form, h, -(t2 - t)))


def test_preselection_with_zero_hamiltonian_is_identity():
    psi = StateVector([0.6, 0.8j])
    out = preselected(psi, DenseOperator(np.zeros((2, 2))), t1=0.0, t=3.0)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_preselection_precession_to_the_y_axis():
    # oracle: exp(-i sz t / 2) for t = pi/2 is diag(e^{-i pi/4}, e^{i pi/4}),
    # sending |up_x> to e^{-i pi/4} |up_y>
    psi = StateVector(spin_up([1, 0, 0]))
    h = DenseOperator(pauli("z").matrix / 2)
    out = preselected(psi, h, t1=0.0, t=np.pi / 2)
    target = spin_up([0, 1, 0])
    overlap = abs(np.vdot(target, out.normalized().amplitudes))
    assert abs(overlap - 1.0) <= 1e-12
    explicit = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]) @ psi.amplitudes
    assert np.allclose(out.amplitudes, explicit, atol=1e-12)


def test_preselection_undone_by_backward_evolution():
    rng = np.random.default_rng(0)
    h = _random_hermitian(rng, 4)
    psi = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
    fwd = preselected(psi, h, t1=1.0, t=2.5)
    back = evolve_unitary(fwd.amplitudes, h, -(2.5 - 1.0))
    assert np.abs(back - psi.amplitudes).max() <= 1e-10


def test_postselection_mirrors_preselection():
    rng = np.random.default_rng(1)
    h = _random_hermitian(rng, 3)
    bra = CoStateVector.from_ket(rng.normal(size=3) + 1j * rng.normal(size=3))
    out = postselected(bra, h, t=1.0, t2=4.0)
    # the co-state at t pairs with a ket at t as <b| does with that ket carried forward to t2
    for _ in range(3):
        ket = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert abs(out.pair(ket) - bra.pair(evolve_unitary(ket, h, 3.0))) <= 1e-10
    same = postselected(bra, DenseOperator(np.zeros((3, 3))), t=0.0, t2=9.0)
    assert np.allclose(same.row, bra.row)


def test_overlap_is_invariant_under_common_time_transport():
    rng = np.random.default_rng(2)
    h = _random_hermitian(rng, 5)
    ket0 = StateVector(rng.normal(size=5) + 1j * rng.normal(size=5))
    bra2 = CoStateVector.from_ket(rng.normal(size=5) + 1j * rng.normal(size=5))
    overlaps = []
    for t in (0.0, 0.7, 2.0):
        tsv = TwoStateVector(
            postselected(bra2, h, t=t, t2=2.0),
            preselected(ket0, h, t1=0.0, t=t),
        )
        overlaps.append(tsv.overlap())
    assert np.abs(np.diff(overlaps)).max() <= 1e-10


def test_interchange_fixed_point_and_involution():
    psi = spin_up([0, 0, 1])
    tsv = TwoStateVector(CoStateVector.from_ket(psi), StateVector(psi))
    swapped = interchange(tsv)
    assert abs(abs(swapped.overlap()) - abs(tsv.overlap())) <= 1e-14

    ket = StateVector(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
    bra = CoStateVector.from_ket(np.array([1.0, 1.0, -1.0]) / np.sqrt(3))
    boxes = TwoStateVector(bra, ket)
    twice = interchange(interchange(boxes))
    assert np.allclose(twice.ket.amplitudes, boxes.ket.amplitudes)
    assert np.allclose(twice.bra.row, boxes.bra.row)


def test_interchange_conjugates_generalized_weights():
    rng = np.random.default_rng(3)
    terms = []
    for _ in range(3):
        alpha = complex(rng.normal(), rng.normal())
        bra = CoStateVector.from_ket(rng.normal(size=2) + 1j * rng.normal(size=2))
        ket = StateVector(rng.normal(size=2) + 1j * rng.normal(size=2))
        terms.append((alpha, bra, ket))
    gtsv = GeneralizedTwoStateVector(terms)
    swapped = interchange(gtsv)
    for (a, b, k), (a2, b2, k2) in zip(terms, swapped.terms):
        assert a2 == pytest.approx(np.conj(a), abs=0)
        assert np.allclose(b2.ket_form, k.amplitudes)
        assert np.allclose(k2.amplitudes, b.ket_form)
    # overlap of the swapped description is the conjugate of the original
    assert swapped.overlap() == pytest.approx(np.conj(gtsv.overlap()), abs=0)


def test_two_state_vector_dimension_check_and_overlap_floor():
    with pytest.raises(DimensionMismatch):
        TwoStateVector(CoStateVector.from_ket([1.0, 0.0]), StateVector([1.0, 0.0, 0.0]))
    orthogonal = TwoStateVector(CoStateVector.from_ket([1.0, 0.0]), StateVector([0.0, 1.0]))
    with pytest.raises(OverlapTooSmall):
        orthogonal.require_overlap()


@pytest.mark.parametrize(
    "amplitudes, cause",
    [([0.0, 0.0], "is 0"), ([1e-200, -1e-200j], "underflows to 0"), ([1e200, 1e200j], "overflows")],
    ids=["zero", "underflow", "overflow"],
)
def test_a_state_needs_a_finite_positive_norm(amplitudes, cause):
    for build in (StateVector, CoStateVector):
        with pytest.raises(ValidationError, match=f"state norm {cause}"):
            build(amplitudes)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_states_near_the_ends_of_the_float_range_keep_their_bits(scale):
    a = scale * np.array([1.0, -2.0j, 0.5])
    assert np.array_equal(StateVector(a).amplitudes, a)
    assert np.array_equal(CoStateVector(a).row, a)


def test_generalized_validation():
    with pytest.raises(ValidationError):
        GeneralizedTwoStateVector([])
    bra = CoStateVector.from_ket([1.0, 0.0])
    ket = StateVector([1.0, 0.0])
    with pytest.raises(ValidationError):
        GeneralizedTwoStateVector([(0.0, bra, ket)])
    with pytest.raises(DimensionMismatch):
        GeneralizedTwoStateVector(
            [(1.0, bra, ket), (1.0, CoStateVector.from_ket([1.0, 0.0, 0.0]), StateVector([1.0, 0.0, 0.0]))]
        )


@pytest.mark.parametrize("weight", [np.nan, np.inf, complex(1.0, -np.inf)], ids=["nan", "inf", "imaginary_inf"])
def test_a_non_finite_weight_is_refused(weight):
    bra, ket = CoStateVector.from_ket([1.0, 0.0]), StateVector([1.0, 0.0])
    with pytest.raises(ValidationError, match="weights must be finite"):
        GeneralizedTwoStateVector([(1.0, bra, ket), (weight, bra, ket)])


def test_a_description_whose_overlap_overflows_is_refused_by_its_overflowing_size():
    # the overlap 1e320 overflows, but the size sum_i |alpha_i| ||Phi_i|| ||Psi_i|| overflows with it and is refused
    # first; test_a_non_finite_overlap_is_refused_before_its_size_is_compared reaches the overlap's own check
    big = (CoStateVector.from_ket([1e10, 0.0]), StateVector([1e10, 0.0]))
    small = (CoStateVector.from_ket([0.0, 1.0]), StateVector([0.0, 1.0]))
    gtsv = GeneralizedTwoStateVector([(1e300, *big), (0.5, *small)])
    message = "description size sum_i |alpha_i| ||Phi_i|| ||Psi_i|| overflows: it is not finite"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        gtsv.require_overlap()


def test_an_overflowed_description_size_is_refused_as_an_overflow():
    # the overlap is a finite 0.5, but the size sum_i |alpha_i| ||Phi_i|| ||Psi_i|| = 1e320 is not a float:
    # measured against it, every overlap would read as vanishing
    big = (CoStateVector.from_ket([1e10, 0.0]), StateVector([0.0, 1e10]))
    small = (CoStateVector.from_ket([0.0, 1.0]), StateVector([0.0, 1.0]))
    gtsv = GeneralizedTwoStateVector([(1e300, *big), (0.5, *small)])
    assert gtsv.overlap() == 0.5
    with pytest.raises(ValidationError, match="size .* overflows"):
        gtsv.require_overlap()


def test_a_two_state_vector_is_the_one_term_generalized_description():
    bra, ket = CoStateVector.from_ket([1.0, 1.0j]), StateVector([2.0, 0.5])
    tsv = TwoStateVector(bra, ket)
    assert isinstance(tsv, GeneralizedTwoStateVector)
    assert tsv.terms == ((1.0, bra, ket),) and tsv.bra is bra and tsv.ket is ket
    assert repr(tsv).startswith("TwoStateVector(terms=")
    assert type(interchange(tsv)) is TwoStateVector
    assert type(interchange(GeneralizedTwoStateVector(tsv.terms))) is GeneralizedTwoStateVector


def test_co_state_pairing_is_the_conjugated_contraction():
    a = np.array([1.0 + 2.0j, -0.5j, 3.0])
    b = np.array([0.5, 1.0 - 1.0j, 2.0j])
    bra = CoStateVector.from_ket(a)
    assert bra.pair(StateVector(b)) == pytest.approx(np.sum(np.conj(a) * b), abs=0)
    assert np.allclose(bra.ket_form, a)
    with pytest.raises(DimensionMismatch):
        bra.pair(StateVector([1.0, 0.0]))


@pytest.mark.parametrize("amplitudes", [[1.0, np.nan], [np.inf, 0.0], [1.0, complex(0.0, -np.inf)]])
def test_non_finite_amplitudes_are_refused(amplitudes):
    for build in (StateVector, CoStateVector):
        with pytest.raises(ValidationError, match="amplitudes must be finite"):
            build(amplitudes)


def test_a_bilinear_across_dimensions_is_refused():
    tsv = TwoStateVector(CoStateVector.from_ket([1.0, 0.0]), StateVector([1.0, 1.0]))
    with pytest.raises(DimensionMismatch, match="operator dim 3 vs description dim 2"):
        tsv.bilinear(DenseOperator(np.eye(3)))


@pytest.mark.parametrize("overlap", [complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0)])
def test_a_non_finite_overlap_is_refused_before_its_size_is_compared(overlap):
    # every description whose overlap overflows overflows its size first, so the rule is called directly
    with pytest.raises(ValidationError, match="is not finite"):
        _require_overlap(overlap, 1.0)


@pytest.mark.parametrize("thing", [StateVector([1.0, 0.0]), CoStateVector.from_ket([1.0, 0.0]), None])
def test_only_a_description_can_be_interchanged(thing):
    with pytest.raises(ValidationError, match=f"cannot interchange {type(thing).__name__}"):
        interchange(thing)
