import numpy as np
import pytest

from twostate.errors import DimensionMismatch, PostSelectionImpossible, ValidationError
from twostate.ideal import (
    OutcomeDistribution,
    abl,
    abl_generalized,
    abl_degenerate_post,
    basis_occupation_probabilities,
    born,
    born_backward,
    certain_outcome,
    counterfactual_decomposition_check,
    product_rule_report,
)
from twostate.linalg import (
    DenseOperator,
    identity,
    pauli,
    projector_onto,
    spin_direction,
    spin_up,
    tensor_product,
)
from twostate.reporting import csv_table
from twostate.weak import weak_value_degenerate_post
from twostate.states import (
    CoStateVector,
    GeneralizedTwoStateVector,
    StateVector,
    TwoStateVector,
    interchange,
)


def three_box_tsv() -> TwoStateVector:
    ket = StateVector(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
    bra = CoStateVector.from_ket(np.array([1.0, 1.0, -1.0]) / np.sqrt(3))
    return TwoStateVector(bra, ket)


def epr_tsv() -> TwoStateVector:
    singlet = (tensor_product([1.0, 0.0], [0.0, 1.0]) - tensor_product([0.0, 1.0], [1.0, 0.0])) / np.sqrt(2)
    bra = CoStateVector.from_ket(tensor_product(spin_up([1, 0, 0]), spin_up([0, 1, 0])))
    return TwoStateVector(bra, StateVector(singlet))


def spin_cone_gtsv(chi: float) -> GeneralizedTwoStateVector:
    return GeneralizedTwoStateVector(
        [
            (np.cos(chi), CoStateVector.from_ket([1.0, 0.0]), StateVector([1.0, 0.0])),
            (-np.sin(chi), CoStateVector.from_ket([0.0, 1.0]), StateVector([0.0, 1.0])),
        ]
    )


def box_projector(i: int) -> DenseOperator:
    return projector_onto(np.eye(3)[i])


def test_three_box_certainties():
    tsv = three_box_tsv()
    assert abl(tsv, box_projector(0)).probability_of(1.0) == pytest.approx(1.0, abs=1e-14)
    assert abl(tsv, box_projector(1)).probability_of(1.0) == pytest.approx(1.0, abs=1e-14)


def test_symmetric_selection_reduces_to_born_rule():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    tsv = TwoStateVector(CoStateVector.from_ket(psi), StateVector(psi))
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obs = DenseOperator(raw + raw.conj().T)
    conditional = abl(tsv, obs)
    reference = born(StateVector(psi), obs)
    # identical eigenvalue grids, Born weights |<c_n|psi>|^4 renormalized
    quartic = reference.probabilities**2 / (reference.probabilities**2).sum()
    assert np.abs(conditional.probabilities - quartic).max() <= 1e-12


def test_epr_sigma_1y_certain():
    dist = abl(epr_tsv(), tensor_product(pauli("y"), identity(2)))
    assert dist.probability_of(-1.0) == pytest.approx(1.0, abs=1e-14)


def test_generalized_single_term_reduces_to_abl():
    rng = np.random.default_rng(1)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi))
    gtsv = GeneralizedTwoStateVector([(1.0, tsv.bra, tsv.ket)])
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obs = DenseOperator(raw + raw.conj().T)
    assert np.array_equal(abl(gtsv, obs).probabilities, abl(tsv, obs).probabilities)


def test_spin_cone_direction_is_certain():
    chi = np.pi / 8
    gtsv = spin_cone_gtsv(chi)
    cos_theta = (1 - np.tan(chi)) / (1 + np.tan(chi))
    theta = np.arccos(cos_theta)
    for phi in (0.0, 1.1, 4.0):
        direction = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        dist = abl(gtsv, spin_direction(direction))
        assert dist.probability_of(1.0) >= 1.0 - 1e-12


def test_spin_cone_at_chi_quarter_pi_has_empty_denominator_on_the_equator():
    gtsv = spin_cone_gtsv(np.pi / 4)
    # numerically determined: both conditional amplitudes vanish at theta = pi/2
    with pytest.raises(PostSelectionImpossible):
        abl(gtsv, spin_direction([1, 0, 0]))


def spinor_pair(n) -> np.ndarray:
    """Rows v+, v-: the +1 and -1 eigenvectors of sigma . n, from LAPACK."""
    return np.linalg.eigh(spin_direction(n).matrix)[1].T[::-1]


@pytest.mark.parametrize("chi", [np.pi / 8, 0.7, 1.3])
def test_abl_generalized_is_the_abl_probability_of_plus_one(chi):
    pair = TwoStateVector(CoStateVector.from_ket([1.0, 1j]), StateVector([2.0, 0.5]))
    for description in (spin_cone_gtsv(chi), pair):
        for n in ([1.0, 0.0, 0.0], [0.3, -0.2, 0.9], [0.0, 0.0, -1.0]):
            want = abl(description, spin_direction(n)).probability_of(1.0)
            assert abl_generalized(description, spinor_pair(n)) == pytest.approx(want, abs=1e-14)


def test_abl_generalized_broadcasts_over_a_leading_candidate_axis():
    gtsv = spin_cone_gtsv(np.pi / 8)
    directions = [[1.0, 0.0, 0.0], [0.3, -0.2, 0.9], [0.0, 1.0, 1.0]]
    batch = abl_generalized(gtsv, np.array([spinor_pair(n) for n in directions]))
    assert batch.tolist() == [abl_generalized(gtsv, spinor_pair(n)) for n in directions]


def test_abl_generalized_refuses_an_empty_denominator_and_a_description_that_is_not_spin_half():
    with pytest.raises(PostSelectionImpossible):
        abl_generalized(spin_cone_gtsv(np.pi / 4), spinor_pair([1, 0, 0]))
    with pytest.raises(DimensionMismatch):
        abl_generalized(three_box_tsv(), spinor_pair([1, 0, 0]))


def test_outcome_distribution_refuses_nan_probabilities():
    with pytest.raises(ValidationError, match="finite"):
        OutcomeDistribution([0.0, 1.0], [np.nan, np.nan])


def test_abl_and_born_refuse_states_whose_norm_overflows_rather_than_return_nan():
    big = np.array([1e200, 1e200j])
    with pytest.raises(ValidationError, match="overflows"):
        born(StateVector(big), pauli("x"))
    with pytest.raises(ValidationError, match="overflows"):
        abl(TwoStateVector(CoStateVector.from_ket(big), StateVector(big)), pauli("x"))


def test_abl_takes_selection_amplitudes_whose_squares_overflow():
    # each norm is finite, and |<Phi|P_+|Psi>|**2 = 16e600 is not, but the rule is a ratio: the unit-scale answer.
    # 1e150 is no power of two, so the -1 amplitude, 0 at unit scale, cancels to within about 4 eps of the +1 one.
    large = 1e150 * np.array([1.0, 1.0])
    tsv = TwoStateVector(CoStateVector.from_ket(large), StateVector(large))
    unit = TwoStateVector(CoStateVector.from_ket([1.0, 1.0]), StateVector([1.0, 1.0]))
    expected = abl(unit, pauli("x")).probabilities
    assert abl(tsv, pauli("x")).probabilities == pytest.approx(expected, rel=0, abs=(4 * np.finfo(float).eps) ** 2)
    assert abl_generalized(tsv, spinor_pair([1, 0, 0])) == abl_generalized(unit, spinor_pair([1, 0, 0])) == 1.0


SCALES = [-530, -450, -300, 300, 450]


def _scale_case():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obs = DenseOperator(raw + raw.conj().T)
    phi, psi = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2))
    post = DenseOperator(np.diag([1.0, 1.0, 0.0]).astype(complex))
    return obs, phi, psi, post


def _times_power_of_two(v, k: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)


def _pair_rules(phi, psi, obs, k):
    """abl, abl_generalized and basis_occupation_probabilities with every bra and ket times 2**k."""
    tsv = TwoStateVector(CoStateVector.from_ket(_times_power_of_two(phi, k)), StateVector(_times_power_of_two(psi, k)))
    gtsv = GeneralizedTwoStateVector([(0.6, tsv.bra, tsv.ket), (-0.3j, tsv.bra, tsv.ket)])
    rows, kets = [[1.0, 0.5], [0.0, 1.0]], [[0.25, 1.0], [1.0, 0.75]]
    spin = GeneralizedTwoStateVector(
        [(a, CoStateVector(_times_power_of_two(r, k)), StateVector(_times_power_of_two(v, k)))
         for a, r, v in zip((0.8, -0.4), rows, kets)]
    )
    return [
        abl(tsv, obs).probabilities,
        abl(gtsv, obs).probabilities,
        abl_generalized(spin, spinor_pair([1, 2, 3])),
        basis_occupation_probabilities(tsv),
    ]


def _ket_rules(psi, obs, post, k):
    """born, abl_degenerate_post and weak_value_degenerate_post with the ket times 2**k."""
    pre = StateVector(_times_power_of_two(psi, k))
    degenerate = abl_degenerate_post(pre, post, obs).probabilities
    return [born(pre, obs).probabilities, degenerate, weak_value_degenerate_post(pre, post, obs)]


@pytest.mark.parametrize("k", SCALES)
def test_ratio_rules_give_their_unit_scale_answer_bit_for_bit_at_any_scale(k):
    # each rule is a ratio, so a power of two on its amplitudes cancels exactly; only the squares could
    # underflow (2**-1060 is subnormal) or overflow (2**1800 is not a float), and the rules square unit-scaled values
    obs, phi, psi, post = _scale_case()
    if abs(k) <= 450:  # the bra and the ket each carry 2**k, so the amplitudes carry 2**(2k)
        for scaled, unit in zip(_pair_rules(phi, psi, obs, k), _pair_rules(phi, psi, obs, 0)):
            assert np.array_equal(scaled, unit)
    for scaled, unit in zip(_ket_rules(psi, obs, post, k), _ket_rules(psi, obs, post, 0)):
        assert np.array_equal(scaled, unit)


def test_abl_takes_a_description_whose_amplitudes_square_to_zero():
    # <1e-100 e1| |1e-100 e1>: the amplitude 1e-200 squares to 0 in floats
    tiny = TwoStateVector(CoStateVector.from_ket([1e-100, 0.0]), StateVector([1e-100, 0.0]))
    assert np.array_equal(abl(tiny, pauli("z")).probabilities, [0.0, 1.0])


@pytest.mark.parametrize("rule", ["abl", "basis_occupations", "abl_generalized"])
def test_a_description_below_the_scaling_range_is_refused_by_its_scale(rule):
    # <1e-150 e1| |1e-150 e1> has scale 1e-300, below 2**-960: its amplitudes square to 0, and the rules refused it as
    # "post-selection is incompatible with every outcome", which it is not
    tiny = TwoStateVector(CoStateVector.from_ket([1e-150, 0.0]), StateVector([1e-150, 0.0]))
    call = {
        "abl": lambda: abl(tiny, projector_onto([1.0, 0.0])),
        "basis_occupations": lambda: basis_occupation_probabilities(tiny),
        "abl_generalized": lambda: abl_generalized(tiny, np.eye(2)),
    }[rule]
    with pytest.raises(ValidationError, match=r"scale 1\.000e-300 is below 2\*\*-960"):
        call()


def test_degenerate_post_with_identity_is_born_rule():
    rng = np.random.default_rng(2)
    psi = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obs = DenseOperator(raw + raw.conj().T)
    via_post = abl_degenerate_post(psi, identity(4), obs)
    direct = born(psi, obs)
    assert np.abs(via_post.probabilities - direct.probabilities).max() <= 1e-12


def test_degenerate_post_rank_one_reduces_to_abl():
    rng = np.random.default_rng(3)
    psi = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obs = DenseOperator(raw + raw.conj().T)
    tsv = TwoStateVector(CoStateVector.from_ket(phi), psi)
    via_post = abl_degenerate_post(psi, projector_onto(phi), obs)
    assert np.abs(via_post.probabilities - abl(tsv, obs).probabilities).max() <= 1e-12


def test_degenerate_post_three_box_span_matches_brute_force():
    tsv = three_box_tsv()
    phi = tsv.bra.ket_form
    e3 = np.eye(3)[2]
    # orthonormal basis of span{phi, |3>} for the projector
    v1 = phi / np.linalg.norm(phi)
    v2 = e3 - np.vdot(v1, e3) * v1
    v2 = v2 / np.linalg.norm(v2)
    pb = DenseOperator(np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))
    dist = abl_degenerate_post(tsv.ket, pb, box_projector(0))

    # brute-force oracle: enumerate both outcomes of P1 and apply the
    # degenerate conditional formula from first principles
    psi = tsv.ket.amplitudes
    p1 = box_projector(0).matrix
    outcomes = {1.0: p1, 0.0: np.eye(3) - p1}
    weights = {c: np.linalg.norm(pb.matrix @ (proj @ psi)) ** 2 for c, proj in outcomes.items()}
    total = sum(weights.values())
    assert dist.probability_of(1.0) == pytest.approx(weights[1.0] / total, abs=1e-12)
    assert dist.probability_of(1.0) == pytest.approx(0.25, abs=1e-12)


def test_degenerate_post_rejects_non_projectors():
    psi = StateVector([1.0, 0.0])
    with pytest.raises(ValidationError):
        abl_degenerate_post(psi, DenseOperator(0.5 * np.eye(2)), pauli("z"))


def test_certain_outcome_cases():
    tsv = three_box_tsv()
    assert certain_outcome(tsv, box_projector(1)) == pytest.approx(1.0, abs=0)
    prod = DenseOperator(box_projector(0).matrix @ box_projector(1).matrix)
    assert certain_outcome(tsv, prod) == 0.0
    up_x = spin_up([1, 0, 0])
    plain = TwoStateVector(CoStateVector.from_ket(up_x), StateVector(up_x))
    assert certain_outcome(plain, pauli("z")) is None


def test_product_rule_failure_for_epr_pair():
    report = product_rule_report(epr_tsv(), tensor_product(pauli("y"), identity(2)), tensor_product(identity(2), pauli("x")))
    assert report["a_certain"] == pytest.approx(-1.0, abs=0)
    assert report["b_certain"] == pytest.approx(-1.0, abs=0)
    assert report["ab_certain"] == pytest.approx(-1.0, abs=0)
    assert report["product_rule_holds"] is False
    assert report["commutator_norm"] == pytest.approx(0.0, abs=1e-12)


def test_product_rule_failure_for_boxes():
    report = product_rule_report(three_box_tsv(), box_projector(0), box_projector(1))
    assert (report["a_certain"], report["b_certain"], report["ab_certain"]) == (1.0, 1.0, 0.0)
    assert report["product_rule_holds"] is False


def test_product_rule_holds_for_symmetric_eigenstate_selection():
    up_z = spin_up([0, 0, 1])
    tsv = TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))
    report = product_rule_report(tsv, pauli("z"), pauli("z"))
    assert report["product_rule_holds"] is True


def test_product_rule_rejects_non_hermitian_products():
    up_z = spin_up([0, 0, 1])
    tsv = TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))
    with pytest.raises(ValidationError):
        product_rule_report(tsv, pauli("x"), pauli("y"))


def test_product_rule_refuses_observables_of_two_dimensions_before_the_product():
    up_z = spin_up([0, 0, 1])
    tsv = TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))
    with pytest.raises(DimensionMismatch, match="observable dims 2 and 3"):
        product_rule_report(tsv, pauli("z"), identity(3))


def test_a_product_hermitian_only_to_1e_10_is_refused_with_the_product_message():
    # AB - (AB)^H is 2e-11 off the diagonal: inside a 1e-10 check, outside the operator's HERMITIAN_RTOL of 1e-12
    up_z = spin_up([0, 0, 1])
    tsv = TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))
    nearly_one = DenseOperator(np.array([[1.0, 1e-11], [1e-11, 1.0]]))
    with pytest.raises(ValidationError, match="product observable is not Hermitian"):
        product_rule_report(tsv, pauli("z"), nearly_one)


def test_a_small_three_box_description_keeps_its_certainties():
    # x 1e-6 on the bra and the ket puts every ABL total near 1e-24 x its unit-scale value
    tsv = three_box_tsv()
    small = TwoStateVector(CoStateVector(1e-6 * tsv.bra.row), StateVector(1e-6 * tsv.ket.amplitudes))
    for box in (0, 1):
        assert certain_outcome(small, box_projector(box)) == certain_outcome(tsv, box_projector(box)) == 1.0
    assert basis_occupation_probabilities(small) == pytest.approx(basis_occupation_probabilities(tsv), rel=1e-12, abs=0)


def test_backward_only_description_measures_like_its_ket_form():
    bra = CoStateVector.from_ket(spin_up([1, 0, 0]))
    for axis in "xyz":
        back = born_backward(bra, pauli(axis))
        fwd = born(StateVector(spin_up([1, 0, 0])), pauli(axis))
        assert np.abs(back.probabilities - fwd.probabilities).max() <= 1e-14


def test_counterfactual_commuting_case_agrees():
    report = counterfactual_decomposition_check(StateVector([0.6, 0.8]), pauli("z"), pauli("z"))
    assert report.deviation_without <= 1e-14
    assert report.deviation_with <= 1e-14


def test_counterfactual_sigma_x_sigma_z_instance():
    # oracle (closed forms): without the intermediate measurement the final
    # weights are (1, 0); with it they are (1/2, 1/2); the conditional table
    # is flat at 1/2, so the fallacious joint overweights the up_z column.
    report = counterfactual_decomposition_check(StateVector([1.0, 0.0]), pauli("x"), pauli("z"))
    assert report.deviation_with <= 1e-12
    assert report.deviation_without == pytest.approx(0.25, abs=1e-12)
    assert np.abs(report.marginal_with - report.born_marginal).max() <= 1e-12
    assert np.allclose(sorted(report.weights_without), [0.0, 1.0], atol=1e-12)
    assert np.allclose(report.weights_with, [0.5, 0.5], atol=1e-12)


def test_counterfactual_eigenstate_of_c_agrees():
    report = counterfactual_decomposition_check(StateVector([1.0, 0.0]), pauli("z"), pauli("x"))
    assert report.deviation_without <= 1e-12
    assert report.deviation_with <= 1e-12


def test_counterfactual_requires_two_final_outcomes():
    with pytest.raises(ValidationError):
        counterfactual_decomposition_check(StateVector([1.0, 0.0]), pauli("x"), identity(2))


def test_zero_denominator_is_an_error():
    # post-selection orthogonal to everything the observable can produce
    ket = StateVector([1.0, 0.0, 0.0])
    bra = CoStateVector.from_ket([0.0, 1.0, 0.0])
    obs = DenseOperator(np.diag([1.0, 1.0, 2.0]).astype(complex))
    # P(1) spans e1,e2; P(2) spans e3: <e2| P |e1> = 0 for both projectors
    with pytest.raises(PostSelectionImpossible):
        abl(TwoStateVector(bra, ket), obs)


def test_scale_invariance_of_distributions():
    rng = np.random.default_rng(4)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obs = DenseOperator(raw + raw.conj().T)
    base = abl(TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi)), obs)
    scaled = abl(
        TwoStateVector(CoStateVector.from_ket((2.0 - 1.5j) * phi), StateVector(0.3j * psi)), obs
    )
    assert np.abs(base.probabilities - scaled.probabilities).max() <= 1e-12


def test_interchange_invariance_of_abl():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = DenseOperator(raw + raw.conj().T)
        tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi))
        a = abl(tsv, obs)
        b = abl(interchange(tsv), obs)
        assert np.abs(a.probabilities - b.probabilities).max() <= 1e-12


def test_probabilities_always_sum_to_one():
    rng = np.random.default_rng(6)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = DenseOperator(raw + raw.conj().T)
        dist = abl(TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi)), obs)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_distribution_serialization_surfaces():
    dist = abl(three_box_tsv(), box_projector(0))
    csv = csv_table(["eigenvalue", "probability"], [dist.eigenvalues, dist.probabilities])
    assert csv.startswith("eigenvalue,probability\n")
    assert len(csv.strip().split("\n")) == 1 + len(dist.eigenvalues)


def n_box_tsv(n: int) -> TwoStateVector:
    root = np.sqrt(n - 2.0)
    ket = StateVector(np.concatenate([np.ones(n - 1), [root]]))
    return TwoStateVector(CoStateVector.from_ket(np.concatenate([np.ones(n - 1), [-root]])), ket)


@pytest.mark.parametrize("boxes", [3, 120, 1000])
def test_basis_occupation_probabilities_equal_the_per_box_abl_rule(boxes):
    tsv = n_box_tsv(boxes)
    batched = basis_occupation_probabilities(tsv)
    per_box = [abl(tsv, projector_onto(np.eye(boxes)[i])).probability_of(1.0) for i in range(boxes)]
    assert batched.tolist() == per_box
    assert np.abs(batched[:-1] - 1.0).max() <= 1e-10


@pytest.mark.parametrize("dim", [2, 64])
def test_abl_and_certain_outcome_on_a_projector_off_the_basis(dim):
    # the dense projector goes through LAPACK, so its eigenvalues are 0 and 1 only to rounding
    rng = np.random.default_rng(dim)
    v = np.ones(2) if dim == 2 else rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u = v / np.linalg.norm(v)
    phi, psi = (rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2))
    proj = projector_onto(v)
    dist = abl(TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi)), proj)
    assert np.abs(dist.eigenvalues - [0.0, 1.0]).max() <= 1e-14
    hit = (phi.conj() @ u) * (u.conj() @ psi)
    miss = phi.conj() @ psi - hit
    expected = abs(hit) ** 2 / (abs(hit) ** 2 + abs(miss) ** 2)
    assert abs(dist.probability_of(1.0) - expected) <= 1e-13
    assert abs(dist.probability_of(0.0) - (1.0 - expected)) <= 1e-13
    post = CoStateVector.from_ket(phi)
    inside = certain_outcome(TwoStateVector(post, StateVector(u)), proj)
    outside = certain_outcome(TwoStateVector(post, StateVector(psi - u * (u.conj() @ psi))), proj)
    assert abs(inside - 1.0) <= 1e-14 and abs(outside) <= 1e-14


def test_basis_occupation_probabilities_refuse_a_zero_denominator():
    tsv = TwoStateVector(CoStateVector.from_ket([1.0, 0.0, 0.0]), StateVector([0.0, 1.0, 0.0]))
    with pytest.raises(PostSelectionImpossible):
        abl(tsv, projector_onto([0.0, 0.0, 1.0]))
    with pytest.raises(PostSelectionImpossible):
        basis_occupation_probabilities(tsv)
