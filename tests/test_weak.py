import numpy as np
import pytest
from dense_oracles import expectation_value, kron_all, projectors

import twostate.weak as weak
from twostate.errors import OverlapTooSmall, PostSelectionImpossible, ValidationError
from twostate.ideal import abl, abl_generalized, certain_outcome
from twostate.linalg import (
    DenseOperator,
    identity,
    pauli,
    projector_onto,
    hermitian_eigendecomposition,
    spin_direction,
    spin_up,
)
from twostate.reporting import csv_table
from twostate.states import (
    CoStateVector,
    GeneralizedTwoStateVector,
    StateVector,
    TwoStateVector,
    interchange,
)
from twostate.weak import (
    _spinors,
    certainty_cone,
    theorem_i_check,
    theorem_ii_check,
    weak_value,
    weak_value_degenerate_post,
    weak_vector,
)


def three_box_tsv() -> TwoStateVector:
    ket = StateVector(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
    bra = CoStateVector.from_ket(np.array([1.0, 1.0, -1.0]) / np.sqrt(3))
    return TwoStateVector(bra, ket)


def bisector_tsv() -> TwoStateVector:
    return TwoStateVector(CoStateVector.from_ket(spin_up([0, 1, 0])), StateVector(spin_up([1, 0, 0])))


def spin_cone_gtsv(chi: float) -> GeneralizedTwoStateVector:
    return GeneralizedTwoStateVector(
        [
            (np.cos(chi), CoStateVector.from_ket([1.0, 0.0]), StateVector([1.0, 0.0])),
            (-np.sin(chi), CoStateVector.from_ket([0.0, 1.0]), StateVector([0.0, 1.0])),
        ]
    )


def up_z_pair() -> TwoStateVector:
    up_z = spin_up([0, 0, 1])
    return TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))


def test_bisector_weak_value_is_sqrt_two():
    tsv = bisector_tsv()
    assert weak_value(tsv, spin_direction([1, 1, 0])) == pytest.approx(np.sqrt(2), abs=1e-14)
    assert abs(tsv.require_overlap()) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


WEAK_VALUE_FORMS = {
    "two-state vector": (lambda: weak_value(bisector_tsv(), spin_direction([1, 1, 0])), np.sqrt(2)),
    "generalized two-state vector": (
        lambda: weak_value(spin_cone_gtsv(np.pi / 8), pauli("z")),
        (np.cos(np.pi / 8) + np.sin(np.pi / 8)) / (np.cos(np.pi / 8) - np.sin(np.pi / 8)),
    ),
    "degenerate post-selection": (
        lambda: weak_value_degenerate_post(StateVector([0.6, 0.8]), identity(2), pauli("z")),
        0.36 - 0.64,
    ),
}


@pytest.mark.parametrize("form", WEAK_VALUE_FORMS)
def test_a_weak_value_is_returned_as_a_complex_number(form):
    # it used to come wrapped in a record beside the overlap magnitude
    compute, want = WEAK_VALUE_FORMS[form]
    value = compute()
    assert type(value) is complex
    assert value == pytest.approx(want, abs=1e-12)


def test_identity_weak_value_is_one():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi))
    assert weak_value(tsv, identity(5)) == pytest.approx(1.0, abs=1e-13)


def test_three_box_occupation_weak_values():
    tsv = three_box_tsv()
    values = [weak_value(tsv, projector_onto(np.eye(3)[i])) for i in range(3)]
    assert values[0] == pytest.approx(1.0, abs=1e-13)
    assert values[1] == pytest.approx(1.0, abs=1e-13)
    assert values[2] == pytest.approx(-1.0, abs=1e-13)
    assert sum(values) == pytest.approx(1.0, abs=1e-12)  # projector completeness


def test_near_orthogonal_selection_raises():
    tsv = TwoStateVector(CoStateVector.from_ket([1.0, 1e-14]), StateVector([0.0, 1.0]))
    with pytest.raises(OverlapTooSmall):
        weak_value(tsv, pauli("z"))


def test_subnormal_overlaps_are_refused_for_both_description_types():
    # |<Phi|Psi>| = 2.3e-320 passes the relative floor (1e-12 * norms underflows to 0),
    # and numpy's 0j / 2.3e-320 multiplies 0 by an overflowed 1/2.3e-320: nan, not 0
    a = 7.63533376e-161 * (1 + 1j)
    tsv = TwoStateVector(CoStateVector.from_ket([a, a]), StateVector([a, a]))
    for description in (tsv, GeneralizedTwoStateVector([(1.0, tsv.bra, tsv.ket)])):
        with pytest.raises(OverlapTooSmall):
            weak_value(description, DenseOperator(np.zeros((2, 2))))


def test_generalized_single_term_matches_plain_weak_value():
    rng = np.random.default_rng(1)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obs = DenseOperator(raw + raw.conj().T)
    tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi))
    gtsv = GeneralizedTwoStateVector([(1.0, tsv.bra, tsv.ket)])
    assert weak_value(gtsv, obs) == weak_value(tsv, obs)


def test_spin_cone_weak_values_closed_form():
    # oracle: only diagonal matrix elements survive, so
    # (sigma_z)_w = (cos+sin)/(cos-sin) and (sigma_x)_w = 0
    chi = np.pi / 8
    gtsv = spin_cone_gtsv(chi)
    wz = weak_value(gtsv, pauli("z"))
    wx = weak_value(gtsv, pauli("x"))
    expected = (np.cos(chi) + np.sin(chi)) / (np.cos(chi) - np.sin(chi))
    assert wz == pytest.approx(expected, abs=1e-12)
    assert wx == pytest.approx(0.0, abs=1e-13)


def test_degenerate_post_expectation_and_rank_one_limits():
    rng = np.random.default_rng(2)
    psi = StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obs = DenseOperator(raw + raw.conj().T)
    assert weak_value_degenerate_post(psi, identity(3), obs) == pytest.approx(
        expectation_value(psi, obs), abs=1e-12
    )
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    tsv = TwoStateVector(CoStateVector.from_ket(phi), psi)
    assert weak_value_degenerate_post(psi, projector_onto(phi), obs) == pytest.approx(
        weak_value(tsv, obs), abs=1e-12
    )


def test_degenerate_post_two_by_two_oracle():
    # oracle by direct matrix arithmetic: psi = up_x, P = |up_z><up_z|,
    # C = sigma_xi: <psi|P C|psi> / <psi|P|psi> = (1 - i)/sqrt(2)
    psi = StateVector(spin_up([1, 0, 0]))
    proj = projector_onto([1.0, 0.0])
    wv = weak_value_degenerate_post(psi, proj, spin_direction([1, 1, 0]))
    p = proj.matrix
    c = spin_direction([1, 1, 0]).matrix
    v = psi.normalized().amplitudes
    oracle = np.vdot(v, p @ (c @ v)) / np.vdot(v, p @ v)
    assert wv == pytest.approx(oracle, abs=1e-14)
    assert wv == pytest.approx((1 - 1j) / np.sqrt(2), abs=1e-12)


def test_weak_vector_cases():
    up_z = spin_up([0, 0, 1])
    plain = TwoStateVector(CoStateVector.from_ket(up_z), StateVector(up_z))
    w = weak_vector(plain)
    assert np.allclose(w, [0.0, 0.0, 1.0], atol=1e-13)

    w2 = weak_vector(bisector_tsv())
    assert np.allclose(w2, [1.0, 1.0, 1j], atol=1e-12)

    chi = np.pi / 8
    w3 = weak_vector(spin_cone_gtsv(chi))
    expected = (np.cos(chi) + np.sin(chi)) / (np.cos(chi) - np.sin(chi))
    assert np.allclose(w3, [0.0, 0.0, expected], atol=1e-12)

    with pytest.raises(ValidationError):
        weak_vector(three_box_tsv())


def test_certainty_cone_against_analytic_half_angle():
    # oracle: the +1-outcome condition cos(chi) sin^2(t/2) = sin(chi) cos^2(t/2)
    # gives tan^2(t/2) = tan(chi), i.e. cos(t) = (1 - tan chi)/(1 + tan chi)
    for chi in (np.pi / 16, np.pi / 8, 3 * np.pi / 16):
        cone = certainty_cone(spin_cone_gtsv(chi), samples=12)
        assert len(cone) == 12
        cos_theta = (1 - np.tan(chi)) / (1 + np.tan(chi))
        for theta, _, probability in cone:
            assert np.cos(theta) == pytest.approx(cos_theta, abs=1e-10)
            assert probability >= 1.0 - 1e-10


def test_certainty_cone_exists_for_long_real_weak_vectors():
    cone = certainty_cone(spin_cone_gtsv(np.pi / 8), samples=8)
    assert len(cone) > 0


def test_certainty_cone_degenerates_for_plain_expectation():
    cone = certainty_cone(up_z_pair(), samples=8)
    assert len(cone) == 1
    assert cone[0, 0] == pytest.approx(0.0, abs=1e-10)


def test_certainty_cone_empty_at_chi_quarter_pi():
    assert certainty_cone(spin_cone_gtsv(np.pi / 4), samples=8).shape == (0, 3)


def test_a_tiny_two_state_vector_keeps_its_abl_answers_and_cone():
    # <+y| s |+x> s at s = 1e-7: every ABL total is about s**4 = 1e-28, the overlap about s**2
    s = 1e-7
    tiny = TwoStateVector(CoStateVector.from_ket(s * spin_up([0, 1, 0])), StateVector(s * spin_up([1, 0, 0])))
    assert weak_value(tiny, pauli("z")) == pytest.approx(1j, abs=1e-12)
    assert np.allclose(abl(tiny, pauli("z")).probabilities, [0.5, 0.5], rtol=0, atol=1e-12)
    assert certain_outcome(tiny, pauli("x")) == pytest.approx(1.0, abs=1e-12)
    assert len(certainty_cone(tiny, samples=8)) == len(certainty_cone(bisector_tsv(), samples=8)) == 2


def test_certainty_cone_with_complex_weak_vector():
    # bisector pair: w = (1, 1, i); Im(w).n = 0 forces the equator in z,
    # and Re(w).n = 1 picks two candidate azimuths; both must certify +1.
    cone = certainty_cone(bisector_tsv(), samples=8)
    assert len(cone) == 2
    for theta, _, probability in cone:
        assert probability >= 1.0 - 1e-10
        assert np.cos(theta) == pytest.approx(0.0, abs=1e-10)
    phis = sorted(cone[:, 1])
    assert phis[0] == pytest.approx(0.0, abs=1e-9)
    assert phis[1] == pytest.approx(np.pi / 2, abs=1e-9)


def scalar_cone_oracle(description, samples):
    """(theta, phi, probability) of every certified direction, one candidate built at a time."""
    w = weak_vector(description)
    w_re, w_im = w.real, w.imag
    out = []

    def certify(nhat):
        nhat = nhat / np.linalg.norm(nhat)
        theta = float(np.arccos(np.clip(nhat[2], -1, 1)))
        phi = float(np.arctan2(nhat[1], nhat[0]) % (2 * np.pi))
        try:
            prob = float(abl_generalized(description, _spinors(theta, phi)))
        except PostSelectionImpossible:
            return
        if prob >= 1.0 - 1e-10:
            out.append((theta, phi, prob))

    def frame(axis):
        seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = np.cross(axis, seed)
        u /= np.linalg.norm(u)
        return u, np.cross(axis, u)

    if np.linalg.norm(w_im) > 1e-9:
        u, v = frame(w_im / np.linalg.norm(w_im))
        a, b = float(w_re @ u), float(w_re @ v)
        r = np.hypot(a, b)
        if r >= 1.0 - 1e-12:
            for s in (+1.0, -1.0):
                ang = np.arctan2(b, a) + s * np.arccos(np.clip(1.0 / r, -1, 1))
                certify(np.cos(ang) * u + np.sin(ang) * v)
        return out
    length = np.linalg.norm(w_re)
    if length < 1.0 - 1e-12:
        return out
    axis = w_re / length
    if length <= 1.0 + 1e-12:
        certify(axis)
        return out
    half_angle = np.arccos(1.0 / length)
    u, v = frame(axis)
    for ang in np.linspace(0.0, 2 * np.pi, samples, endpoint=False):
        certify(np.cos(half_angle) * axis + np.sin(half_angle) * (np.cos(ang) * u + np.sin(ang) * v))
    return out


@pytest.mark.parametrize(
    "description, samples, checks",
    [
        (spin_cone_gtsv(np.pi / 8), 256, 256),
        (spin_cone_gtsv(np.pi / 16), 12, 12),
        (bisector_tsv(), 256, 2),
        (up_z_pair(), 256, 1),
    ],
    ids=["cone-256", "cone-12", "great-circle", "single-direction"],
)
def test_certainty_cone_checks_each_candidate_once_and_matches_the_scalar_construction(
    monkeypatch, description, samples, checks
):
    oracle = np.array(scalar_cone_oracle(description, samples))
    calls = []
    abl_generalized = weak.abl_generalized
    monkeypatch.setattr(weak, "abl_generalized", lambda desc, obs: calls.append(obs) or abl_generalized(desc, obs))
    cone = certainty_cone(description, samples=samples)
    assert len(calls) == checks  # the benchmark tracer's certified ratio counts exactly these calls
    got = cone
    assert got.dtype == float and got.shape == oracle.shape == (checks, 3)
    ulps = np.abs(got - oracle) / np.spacing(np.maximum(np.abs(got), np.abs(oracle)))
    assert ulps.max() <= 4


@pytest.mark.parametrize("samples", [8.5, 16.0, "16", True, 7, np.int64(4)])
def test_certainty_cone_refuses_samples_that_are_not_an_integer_of_at_least_8(samples):
    with pytest.raises(ValidationError, match="azimuthal samples must be an integer of at least 8"):
        certainty_cone(spin_cone_gtsv(np.pi / 8), samples)


def test_weak_value_refuses_states_whose_norm_overflows():
    big = [1e200, 1e200j]
    with pytest.raises(ValidationError, match="overflows"):
        weak_value(TwoStateVector(CoStateVector.from_ket(big), StateVector(big)), pauli("x"))


def test_theorem_i_for_boxes_and_epr():
    tsv = three_box_tsv()
    p1 = projector_onto(np.eye(3)[0])
    assert theorem_i_check(tsv, p1) is True
    assert certain_outcome(tsv, p1) == pytest.approx(1.0, abs=0)
    assert weak_value(tsv, p1) == pytest.approx(1.0, abs=1e-12)

    singlet = (kron_all([[1, 0], [0, 1]]).reshape(4) - kron_all([[0, 1], [1, 0]]).reshape(4)) / np.sqrt(2)
    bra = CoStateVector.from_ket(np.kron(spin_up([1, 0, 0]), spin_up([0, 1, 0])))
    epr = TwoStateVector(bra, StateVector(singlet))
    obs = DenseOperator(np.kron(pauli("y").matrix, np.eye(2)))
    assert theorem_i_check(epr, obs) is True
    assert weak_value(epr, obs) == pytest.approx(-1.0, abs=1e-12)

    up_x = spin_up([1, 0, 0])
    assert theorem_i_check(TwoStateVector(CoStateVector.from_ket(up_x), StateVector(up_x)), pauli("z")) is None


def test_theorem_ii_branches():
    tsv = three_box_tsv()
    # (P3)_w = -1 is not an eigenvalue of a projector: not applicable
    assert theorem_ii_check(tsv, projector_onto(np.eye(3)[2])) is None

    # engineered (sigma_z)_w = 1: post-select up_z against a generic ket
    engineered = TwoStateVector(CoStateVector.from_ket([1.0, 0.0]), StateVector([0.7, 0.3 + 0.4j]))
    assert weak_value(engineered, pauli("z")) == pytest.approx(1.0, abs=1e-13)
    assert theorem_ii_check(engineered, pauli("z")) is True

    assert theorem_ii_check(tsv, projector_onto(np.eye(3)[0])) is True

    with pytest.raises(ValidationError):
        theorem_ii_check(tsv, DenseOperator(np.diag([0.0, 1.0, 2.0]).astype(complex)))


def test_weak_value_linearity():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi))
    ra = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rb = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = DenseOperator(ra + ra.conj().T)
    b = DenseOperator(rb + rb.conj().T)
    combined = DenseOperator(2.5 * a.matrix - 1.25 * b.matrix)
    lhs = weak_value(tsv, combined)
    rhs = 2.5 * weak_value(tsv, a) - 1.25 * weak_value(tsv, b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_interchange_conjugates_weak_values():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = DenseOperator(raw + raw.conj().T)
        tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi))
        direct = weak_value(tsv, obs)
        swapped = weak_value(interchange(tsv), obs)
        assert swapped == pytest.approx(np.conj(direct), abs=1e-12)


def test_reduction_chain_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        psi = StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = DenseOperator(raw + raw.conj().T)
        tsv = TwoStateVector(CoStateVector.from_ket(phi), psi)
        one_term = weak_value(GeneralizedTwoStateVector([(1.0, tsv.bra, tsv.ket)]), obs)
        direct = weak_value(tsv, obs)
        rank_one = weak_value_degenerate_post(psi, projector_onto(phi), obs)
        expect = weak_value_degenerate_post(psi, identity(dim), obs)
        scale = max(1.0, abs(direct))  # relative where the ratio blows up
        assert abs(one_term - direct) <= 1e-12 * scale
        assert abs(rank_one - direct) <= 1e-12 * scale
        assert expect == pytest.approx(expectation_value(psi, obs), abs=1e-12)


def test_number_operator_weak_value_scales_with_particle_count():
    base = three_box_tsv()
    p3 = projector_onto(np.eye(3)[2]).matrix
    for n in (2, 4, 6):
        ket = kron_all([base.ket.amplitudes] * n)
        bra = kron_all([base.bra.ket_form] * n)
        tsv = TwoStateVector(CoStateVector.from_ket(bra), StateVector(ket))
        dim = 3**n
        number_op = np.zeros((dim, dim), dtype=complex)
        for site in range(n):
            ops = [np.eye(3)] * n
            ops[site] = p3
            number_op += kron_all(ops)
        wv = weak_value(tsv, DenseOperator(number_op))
        assert wv == pytest.approx(-n, abs=1e-12)


def test_certain_strong_outcome_matches_weak_value_for_cone_direction():
    chi = np.pi / 8
    gtsv = spin_cone_gtsv(chi)
    cos_theta = (1 - np.tan(chi)) / (1 + np.tan(chi))
    theta = np.arccos(cos_theta)
    obs = spin_direction([np.sin(theta), 0.0, np.cos(theta)])
    assert certain_outcome(gtsv, obs) == pytest.approx(1.0, abs=0)
    assert weak_value(gtsv, obs) == pytest.approx(1.0, abs=1e-10)


def test_weak_value_and_cone_serialization_surfaces():
    tsv = bisector_tsv()
    assert weak_value(tsv, spin_direction([1, 1, 0])).real == pytest.approx(np.sqrt(2), abs=0)
    assert abs(tsv.require_overlap()) > 0
    cone = certainty_cone(spin_cone_gtsv(np.pi / 8), samples=8)
    text = csv_table(["theta", "phi", "probability"], cone.T)
    assert text.startswith("theta,phi,probability\n")
    assert len(text.strip().split("\n")) == 9


ANGLES = [(0.0, 0.0), (0.7, 2.1), (np.pi, 5.5), (2.9, -1.0)]


@pytest.mark.parametrize("theta, phi", ANGLES)
def test_direction_spinors_are_the_eigenvectors_of_sigma_dot_n(theta, phi):
    spinors = _spinors(theta, phi)
    n = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    dense = spin_direction(n)
    for v, eigenvalue in zip(spinors, [1.0, -1.0]):
        assert np.abs(dense.matrix @ v - eigenvalue * v).max() <= 1e-15
    assert np.abs(spinors @ spinors.conj().T - np.eye(2)).max() <= 1e-15
    # LAPACK's projectors, eigenvalues ascending, are those of the spinors read from -1 to +1
    for v, want in zip(spinors[::-1], projectors(hermitian_eigendecomposition(dense))):
        assert np.abs(np.outer(v, v.conj()) - want).max() <= 1e-15


def test_direction_spinors_of_an_angle_array_are_those_of_each_angle():
    thetas, phis = np.array(ANGLES).T
    assert np.array_equal(_spinors(thetas, phis), [_spinors(t, p) for t, p in ANGLES])
