"""Property tests: a two-state vector and its one-term generalized description obey the same rules.

Random kets, bras and Hermitian observables of dimension 2-6, every entry
drawn from [-1, 1] (zeros and subnormals included).  Where one description
is refused (a vanishing overlap or ABL denominator, a pointer the grid cannot
resolve), the other must be refused with the same error.

The certainty cone's ABL contraction on closed-form spinors is checked
against `abl` on sigma . n over random spin-1/2 descriptions of 1-4 terms,
and the time-reversal interchange against the ABL probabilities and weak
values it must keep and conjugate, each within a bound derived from how
much the terms cancel.

The basis states' weak values, taken in one array pass, sum to 1 and each
is the weak value of its dense basis projector, within a bound derived from
how much the overlap cancels.

The pointer sampler's sorted-order CDF inversion is checked against
np.interp in draw order, bit for bit.

Multiplying every bra and ket by a power of two changes no ABL probability,
certain outcome or certainty-cone direction, bit for bit, and no refusal.

The degenerate-post rules reduce, at the identity, to the Born rule and to
<psi|C|psi> / <psi|psi> (against exact rationals), and at a rank-one
projector onto phi to the ABL rule on <phi| |psi>, over random kets,
co-states and Hermitian observables of dimension 1-6, each within a bound
derived from the rounding of every step.

On rational entries n/m (|n|, m <= 20) and a diagonal observable, abl, born
and the basis occupations match the same probabilities taken in exact
Fractions from the float inputs, within a bound derived from the rounding
of each product and sum.

csv_table writes any finite float64 bit pattern as Python's `'%.17g' % x`,
byte for byte.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from twostate.errors import OverlapTooSmall, PostSelectionImpossible, TwoStateError  # noqa: E402
from twostate.ideal import (  # noqa: E402
    abl,
    abl_degenerate_post,
    abl_generalized,
    basis_occupation_probabilities,
    born,
    certain_outcome,
)
from twostate.linalg import (  # noqa: E402
    DenseOperator,
    hermitian_eigendecomposition,
    identity,
    projector_onto,
    spin_direction,
)
from twostate.pointer import GaussianPointer, _invert_cdf, _sorted_draws, pointer_distribution_postselected  # noqa: E402
from twostate.reporting import csv_table  # noqa: E402
from twostate.states import CoStateVector, GeneralizedTwoStateVector, StateVector, TwoStateVector, interchange  # noqa: E402
from twostate.weak import (  # noqa: E402
    _spinors,
    basis_weak_values,
    certainty_cone,
    weak_value,
    weak_value_degenerate_post,
)

EPS = math.ulp(1.0)
TINY = math.ulp(0.0)  # the smallest subnormal: twice the largest error of a product that underflows
PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)


def complex_entries(n: int):
    return arrays(np.float64, (2, n), elements=st.floats(-1.0, 1.0)).map(lambda x: x[0] + 1j * x[1])


@st.composite
def descriptions(draw):
    """(TwoStateVector, its one-term GeneralizedTwoStateVector, a Hermitian observable)."""
    d = draw(st.integers(2, 6))
    ket, phi = draw(complex_entries(d)), draw(complex_entries(d))
    assume(np.linalg.norm(ket) > 0 and np.linalg.norm(phi) > 0)
    raw = draw(complex_entries(d * d)).reshape(d, d)
    tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(ket))
    return tsv, GeneralizedTwoStateVector([(1.0, tsv.bra, tsv.ket)]), DenseOperator(raw + raw.conj().T)


def outcome(fn, *args):
    """fn(*args), or the type of the TwoStateError it raises."""
    try:
        return fn(*args)
    except TwoStateError as exc:
        return type(exc)


def assert_agree(plain, general, same, near_floor: bool = False) -> None:
    """The same TwoStateError on both sides (or on one side alone, if `near_floor`), or same(general, plain)."""
    if isinstance(plain, type) and isinstance(general, type):
        assert general is plain
    elif isinstance(plain, type) or isinstance(general, type):
        assert near_floor, (plain, general)
    else:
        assert same(general, plain)


def assert_same(fn, args, general_args, same) -> None:
    """fn on both descriptions: the same TwoStateError, or results for which same(general, plain) holds."""
    assert_agree(outcome(fn, *args), outcome(fn, *general_args), same)


def scaled_norm(a: np.ndarray) -> float:
    """|a|, taken on a / max|a| so that a vector of tiny entries does not underflow its sum of squares to 0."""
    size = np.abs(a)
    top = size.max()
    return float(top * np.linalg.norm(size / top)) if top > 0 else 0.0


def term_size(description) -> float:
    """S = sum_i |alpha_i| |row_i| |ket_i|: what the terms' contractions would add up to if nothing cancelled."""
    return float(sum(abs(a) * scaled_norm(b.row) * scaled_norm(k.amplitudes) for a, b, k in description.terms))


@PROPERTY
@given(descriptions(), st.floats(0.05, 5.0))
def test_one_term_description_obeys_the_same_rules(case, delta):
    tsv, gtsv, obs = case
    assert_same(abl, (tsv, obs), (gtsv, obs), lambda g, p: np.array_equal(g.probabilities, p.probabilities))
    assert_same(
        weak_value,
        (tsv, obs),
        (gtsv, obs),
        lambda g, p: g == p and abs(gtsv.overlap()) == abs(tsv.overlap()),
    )
    assert_same(certain_outcome, (tsv, obs), (gtsv, obs), lambda g, p: g == p)
    pointer = GaussianPointer.for_spectrum(delta, hermitian_eigendecomposition(obs).eigenvalues, points=256)
    assert_same(
        pointer_distribution_postselected,
        (tsv, obs, pointer),
        (gtsv, obs, pointer),
        lambda g, p: np.array_equal(g.q_density, p.q_density) and np.array_equal(g.p_density, p.p_density),
    )


@PROPERTY
@given(descriptions(), st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=3))
def test_interchange_twice_is_the_identity(case, weights):
    tsv, _, _ = case
    twice = interchange(interchange(tsv))
    assert np.array_equal(twice.bra.row, tsv.bra.row) and np.array_equal(twice.ket.amplitudes, tsv.ket.amplitudes)
    assume(any(w != (0.0, 0.0) for w in weights))
    gtsv = GeneralizedTwoStateVector([(complex(*w), tsv.bra, interchange(tsv).ket) for w in weights])
    twice = interchange(interchange(gtsv))
    for (a, b, k), (a2, b2, k2) in zip(gtsv.terms, twice.terms, strict=True):
        assert a2 == a and np.array_equal(b2.row, b.row) and np.array_equal(k2.amplitudes, k.amplitudes)


def dyadic_entries(n: int):
    """Complex entries on the grid 2**-20 * [-2**20, 2**20]: products of a few of them are never subnormal."""
    return arrays(np.int64, (2, n), elements=st.integers(-(2**20), 2**20)).map(lambda x: (x[0] + 1j * x[1]) / 2**20)


@st.composite
def spin_half_descriptions(draw, entries=complex_entries):
    """A spin-1/2 description of 1-4 (weight, bra, ket) terms; a single term is a TwoStateVector half the time."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        weight, phi, psi = draw(entries(1))[0], draw(entries(2)), draw(entries(2))
        assume(np.linalg.norm(phi) > 0 and np.linalg.norm(psi) > 0)
        terms.append((weight, CoStateVector.from_ket(phi), StateVector(psi)))
    assume(any(a != 0 for a, _, _ in terms))
    if len(terms) == 1 and draw(st.booleans()):
        return TwoStateVector(terms[0][1], terms[0][2])
    return GeneralizedTwoStateVector(terms)


@PROPERTY
@given(spin_half_descriptions(), st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
def test_the_cone_kernel_is_the_abl_probability_of_plus_one(description, theta, phi):
    """abl_generalized on closed-form spinors against abl on sigma . n, diagonalized by LAPACK.

    Each side's A+- carries an absolute error of at most about 8 eps S (the
    spinors to 3 eps, two dot products of length 2, one product, a sum of at
    most 4 terms; S from `term_size`), and Prob(+1) = |A+|**2 / R**2, with
    R**2 = |A+|**2 + |A-|**2, moves by at most sqrt(2) |dA| / R.  So the two
    agree within 32 eps (kappa + 1), where kappa = S / R is the factor by
    which the terms cancel.
    """
    obs = spin_direction([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    spread = scaled_norm(description.selection_amplitudes(hermitian_eigendecomposition(obs)))
    assert_agree(
        outcome(abl, description, obs),
        outcome(abl_generalized, description, _spinors(theta, phi)),
        lambda g, p: abs(g - p.probability_of(1.0)) <= 32 * EPS * (term_size(description) / spread + 1),
    )


@PROPERTY
@given(descriptions(), st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=3))
def test_interchange_keeps_abl_probabilities_and_conjugates_weak_values(case, weights):
    """Time symmetry: <Psi||Phi>, weights conjugated, has the same ABL probabilities and the conjugate weak value.

    Both sides contract the same eigenvector blocks and operator, in
    conjugated dot products that may only be summed in another order.  So
    each amplitude moves by at most 4 d eps S (S from `term_size`); a
    probability then moves by at most 2 (1 + sqrt(d)) 4 d eps S / R, with R
    the norm of the amplitudes.  The weak value B / O moves by at most
    2 d eps S (2 |C| + |C_w|) / |O| on each side, plus its division, with
    |C| = d max_jk |C_jk| (no square taken, so it cannot underflow); an
    operator with subnormal entries adds an absolute error of up to TINY per
    product that underflows, at most 2 d**2 TINY U on each side, where
    U = sum_i (|alpha_i| (|row_i| + 1) + 1).
    """
    tsv, one_term, obs = case
    assume(any(w != (0.0, 0.0) for w in weights))
    several = GeneralizedTwoStateVector([(complex(*w), tsv.bra, interchange(tsv).ket) for w in weights])
    d, decomp = tsv.dim, hermitian_eigendecomposition(obs)
    norm_c = d * np.abs(obs.matrix).max()
    for description in (tsv, one_term, several):
        size = term_size(description)
        underflow = 4 * d * d * TINY * sum(abs(a) * (np.linalg.norm(b.row) + 1) + 1 for a, b, _ in description.terms)
        spread = scaled_norm(description.selection_amplitudes(decomp))
        assert_same(
            abl,
            (description, obs),
            (interchange(description), obs),
            lambda g, p: np.abs(g.probabilities - p.probabilities).max()
            <= 8 * d * (1 + math.sqrt(d)) * EPS * size / spread,
        )
        assert_same(
            weak_value,
            (description, obs),
            (interchange(description), obs),
            lambda g, p: abs(g - p.conjugate())
            <= (4 * d * EPS * size * (2 * norm_c + abs(p)) + underflow) / abs(description.overlap())
            + 4 * EPS * abs(p) + 2 * TINY,
        )


@st.composite
def two_state_vectors(draw):
    """A TwoStateVector of dimension 1-8 with complex entries."""
    d = draw(st.integers(1, 8))
    ket, phi = draw(complex_entries(d)), draw(complex_entries(d))
    assume(np.linalg.norm(ket) > 0 and np.linalg.norm(phi) > 0)
    return TwoStateVector(CoStateVector.from_ket(phi), StateVector(ket))


@PROPERTY
@given(two_state_vectors())
def test_basis_weak_values_sum_to_one_and_are_those_of_the_basis_projectors(tsv):
    """(|i><i|)_w = a_i / <Phi|Psi>, with a_i = <Phi|i><i|Psi>, for every i in one pass.

    They sum to 1 within 4 kappa eps, where kappa = sum_i |a_i| / |sum_i a_i|
    is the factor by which the overlap cancels.  Each is within 4 eps of its
    size of weak_value on the dense projector |i><i|, which forms the same
    product a_i in a matrix contraction.
    """
    values = outcome(basis_weak_values, tsv)
    for i, e in enumerate(np.eye(tsv.dim)):
        assert_agree(
            outcome(weak_value, tsv, projector_onto(e)),
            values,
            lambda g, p: abs(g[i] - p) <= 4 * EPS * abs(g[i]),
        )
    if not isinstance(values, type):
        a = tsv.bra.row * tsv.ket.amplitudes
        kappa = np.abs(a).sum() / abs(a.sum())
        total = complex(math.fsum(values.real), math.fsum(values.imag))
        assert abs(total - 1.0) <= 4 * kappa * EPS


def scaled(description, s: float):
    """The description with every bra and ket multiplied by s, of the same type."""
    terms = [(a, CoStateVector(s * b.row), StateVector(s * k.amplitudes)) for a, b, k in description.terms]
    return TwoStateVector(*terms[0][1:]) if isinstance(description, TwoStateVector) else GeneralizedTwoStateVector(terms)


BISECTOR = TwoStateVector(CoStateVector.from_ket([1.0, 1.0j]), StateVector([1.0, 1.0]))  # weak vector (1, 1, i)


@PROPERTY
@given(spin_half_descriptions(dyadic_entries), st.integers(-60, 60), st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
@example(BISECTOR, -60, math.pi / 2, 0.0)
@example(BISECTOR, 60, math.pi / 2, math.pi / 2)
def test_scaling_the_bra_and_ket_by_a_power_of_two_changes_no_result(description, k, theta, phi):
    """Every rule is a ratio, and each of its refusals is relative to the description's size.

    With s = 2**k and entries far from the subnormal range, s <Phi| s |Psi> has
    every amplitude, overlap and size of <Phi| |Psi> times 2**(2k) exactly.
    """
    big = scaled(description, 2.0**k)
    obs = spin_direction([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    assert_agree(
        outcome(abl, description, obs),
        outcome(abl, big, obs),
        lambda g, p: np.array_equal(g.probabilities, p.probabilities) and np.array_equal(g.eigenvalues, p.eigenvalues),
    )
    assert_agree(outcome(certain_outcome, description, obs), outcome(certain_outcome, big, obs), lambda g, p: g == p)
    assert_agree(
        outcome(certainty_cone, description, 8), outcome(certainty_cone, big, 8), lambda g, p: np.array_equal(g, p)
    )


@st.composite
def cdfs_and_draws(draw):
    """A sampler CDF with flat runs (zero-density bins and a 1.0 plateau), a draw count and seed, and knots to put draws on."""
    knots = draw(st.integers(16, 256))
    density = draw(arrays(float, knots, elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    density[knots - draw(st.integers(1, knots // 4)):] = 0.0
    assume(density.sum() > 0)
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    n = draw(st.sampled_from([1, 2, 4096, 5000]))
    seed = draw(st.integers(0, 2**32 - 1))
    on_knots = draw(st.lists(st.integers(0, knots - 1), max_size=min(n, 64)))
    return n, seed, on_knots, cdf, np.linspace(-draw(st.floats(1.0, 100.0)), 50.0, knots)


@PROPERTY
@given(cdfs_and_draws())
def test_the_sorted_cdf_inversion_is_np_interp_in_draw_order(case):
    n, seed, on_knots, cdf, q = case
    u = np.random.default_rng(seed).random(n)
    assert np.array_equal(_invert_cdf(_sorted_draws(n, seed), cdf, q), np.interp(u, cdf, q))
    u[: len(on_knots)] = cdf[on_knots]  # draws exactly on knots, sorted as _sorted_draws sorts
    order = np.argsort(u)
    assert np.array_equal(_invert_cdf((order, u[order]), cdf, q), np.interp(u, cdf, q))


@st.composite
def selections(draw):
    """(pre, phi, obs): a ket, the ket form of a co-state and a Hermitian observable of dimension 1-6."""
    d = draw(st.integers(1, 6))
    psi, phi = draw(complex_entries(d)), draw(complex_entries(d))
    assume(np.linalg.norm(psi) > 0 and np.linalg.norm(phi) > 0)
    raw = draw(complex_entries(d * d)).reshape(d, d)
    return StateVector(psi), phi, DenseOperator(raw + raw.conj().T)  # r + r^H is Hermitian exactly


def exact_expectation(psi: np.ndarray, c: np.ndarray) -> tuple:
    """(<psi|C|psi> / <psi|psi> as a (real, imag) pair of Fractions, <psi|psi> as a Fraction), with no rounding."""
    re, im = [Fraction(x) for x in psi.real], [Fraction(x) for x in psi.imag]
    cr, ci = ([[Fraction(x) for x in row] for row in part] for part in (c.real, c.imag))
    d = len(re)
    yr = [sum(cr[i][j] * re[j] - ci[i][j] * im[j] for j in range(d)) for i in range(d)]
    yi = [sum(cr[i][j] * im[j] + ci[i][j] * re[j] for j in range(d)) for i in range(d)]
    den = sum(x * x + y * y for x, y in zip(re, im))
    num_r = sum(re[i] * yr[i] + im[i] * yi[i] for i in range(d))
    num_i = sum(re[i] * yi[i] - im[i] * yr[i] for i in range(d))
    return (num_r / den, num_i / den), den


TINY_SQUARES = (  # weights of about 1e-316: their squares underflow, which each bound must budget
    StateVector([2.363380835410426e-158, 0.0, 0.0]),
    np.array([0.5, 0.0, 0.0], dtype=complex),
    DenseOperator(np.full((3, 3), 2.0)),
)


@PROPERTY
@given(selections())
@example(TINY_SQUARES)
@example((StateVector([1 + 1j]), np.array([3e-162 + 3e-162j]), DenseOperator([[0.0]])))  # P was no projector
def test_the_degenerate_post_rules_reduce_to_born_and_to_abl(case):
    """abl_degenerate_post and weak_value_degenerate_post at their two ends: the identity and a rank-one projector.

    Write s = |psi|, S = |phi| s, V for the cached eigenvector matrix (the
    same on every side, so the bounds take it as exact data), and
    delta >= |V^H V - I|_2, taken as the Frobenius norm of the computed
    V^H V - I plus its own rounding, 2 d (d + 2) eps.  A complex dot product
    of length m is within gamma_{m+2} <= (m + 2) eps of its sum of
    magnitudes; products that underflow add at most U = 64 d**2 TINY to any
    amplitude or weight (at most 16 d**2 real products a side, each off by
    TINY/2, reaching a result multiplied by at most 8).  Weights off by e in
    all from weights of total T move each probability by at most
    2 e / (T - e); amplitudes X off by |dX| move each |X_n|**2 / |X|**2 by
    at most 4 |dX| / |X|.

    1. Identity post against Born.  Both form c = V^H psi, each entry within
       gamma_{d+2} |V_j| s.  Born's weights Re(conj(c) . c) are off by at
       most 4 d (d + 2) eps (1 + delta) s**2 + U in all; the post side's
       |V_n c_n|**2 (the identity product is exact) by delta |c|**2 for V's
       departure from orthonormality plus (4.2 sqrt(d) + 1.01) gamma_{d+4}
       for rounding: at most (1 + delta)**2 (delta + 6 sqrt(d) (d + 4) eps)
       s**2 + U.  T >= (1 - delta) s**2 less either error, and each side's
       final division adds (2d + 5) eps.
    2. Identity post against <psi|C|psi> / <psi|psi> in exact rationals.  The
       numerator is within 3 (d + 2) eps |psi|^T |C| |psi| + 3 d**2 TINY, the
       denominator within (d + 2) eps s**2 + d TINY, and Smith's division
       adds 4 eps |q|.  A denominator that rounds to a subnormal is refused
       as OverlapTooSmall, as every overlap is; the exact s**2 is then at most
       float_info.min (1 + (d + 2) eps) + d TINY.
    3. Rank-one post P = |v><v|, v = phi / |phi|, against abl(<phi| |psi>).
       With exact data, |P V_n c_n| = |A_n| / |phi| for the ABL amplitudes
       A_n = <phi|V_n c_n>, so both sides have the same exact probabilities.
       The ABL amplitudes are off by at most 4 d (d + 2) eps (1 + delta) S + U
       in all, and the post side's vectors P V_n c_n (c, V_n c_n, and P within
       2 gamma_{d+5} entrywise) by at most 5.2 d (d + 5) eps (1 + delta) s +
       2 U, against |X| = R / |phi| with R = |A| >= |A computed| less its
       error.  Squares that underflow cost the ABL weights (total R**2) at
       most d TINY / 2 and the post side's (total (R / |phi|)**2) at most
       2 d**2 TINY, and each final division adds (2d + 8) eps.

    Both rules refuse a total at or below 1e-24 times the squared size; for
    claims 1 and 3 that floor is the same in exact arithmetic, so one side
    alone may refuse only where the lower bound of the exact total is
    within a factor 2 of the floor, or where it is no larger than what the
    squares can lose to underflow.
    """
    pre, phi, obs = case
    d, psi = pre.dim, pre.amplitudes
    v = np.hstack(hermitian_eigendecomposition(obs).blocks)
    delta = float(np.linalg.norm(v.conj().T @ v - np.eye(d))) + 2 * d * (d + 2) * EPS
    under = 64 * d * d * TINY
    exact_q, den = exact_expectation(psi, obs.matrix)
    s2 = float(den) * (1 + EPS)  # s**2 rounded up

    # 1. the identity post is the Born rule
    e_born = 4 * d * (d + 2) * EPS * (1 + delta) * s2 + under
    e_post = (1 + delta) ** 2 * (delta + 6 * math.sqrt(d) * (d + 4) * EPS) * s2 + under
    low = (1 - delta) * s2 - max(e_born, e_post)
    bound = 2 * (e_born + e_post) / low + 2 * (2 * d + 5) * EPS if low > 0 else math.inf
    assert_agree(
        outcome(born, pre, obs),
        outcome(abl_degenerate_post, pre, identity(d), obs),
        lambda g, p: np.array_equal(g.eigenvalues, p.eigenvalues)
        and np.abs(g.probabilities - p.probabilities).max() <= bound,
        near_floor=low <= 2e-24 * s2,
    )

    # 2. the identity post's weak value is the expectation value
    got = outcome(weak_value_degenerate_post, pre, identity(d), obs)
    if isinstance(got, type):
        assert got is OverlapTooSmall and den <= Fraction(sys.float_info.min) * (1 + (d + 2) * EPS) + d * TINY
    else:
        size = float(np.abs(psi) @ np.abs(obs.matrix) @ np.abs(psi)) * (1 + 2 * d * EPS)
        q = math.hypot(*map(float, exact_q))
        d_num = 3 * (d + 2) * EPS * size + 3 * d * d * TINY
        d_den = (d + 2) * EPS * s2 + d * TINY
        limit = (d_num + q * d_den) / (float(den) - d_den) + 4 * EPS * q
        assert math.hypot(float(Fraction(got.real) - exact_q[0]), float(Fraction(got.imag) - exact_q[1])) <= limit

    # 3. a rank-one post is the ABL rule on <phi| |psi>
    tsv = TwoStateVector(CoStateVector.from_ket(phi), pre)
    phi_norm = scaled_norm(phi) * (1 + 2 * d * EPS)
    big_s = phi_norm * scaled_norm(psi) * (1 + 2 * d * EPS)
    e_abl = 4 * d * (d + 2) * EPS * (1 + delta) * big_s + under
    e_vec = 5.2 * d * (d + 5) * EPS * (1 + delta) * big_s + 2 * under * phi_norm
    r_low = scaled_norm(tsv.selection_amplitudes(hermitian_eigendecomposition(obs))) - e_abl
    t_abl, t_post = r_low**2 - d * TINY, (r_low / phi_norm) ** 2 - 3 * d * d * TINY
    bound = math.inf
    if r_low > 0 and t_abl > 0 and t_post > 0:
        bound = 4 * (e_abl + e_vec) / r_low + d * TINY / t_abl + 4 * d * d * TINY / t_post + 2 * (2 * d + 8) * EPS
    assert_agree(
        outcome(abl, tsv, obs),
        outcome(abl_degenerate_post, pre, projector_onto(phi), obs),
        lambda g, p: np.array_equal(g.eigenvalues, p.eigenvalues)
        and np.abs(g.probabilities - p.probabilities).max() <= bound,
        near_floor=r_low <= 2e-12 * big_s or t_abl <= 0 or t_post <= 0,
    )


RATIONAL = st.builds(lambda n, m: n / m, st.integers(-20, 20), st.integers(1, 20))  # zero included


@st.composite
def rational_selections(draw):
    """(row, psi, diagonal): a bra row, a ket and an observable's diagonal of dimension 2-5, every part a float n/m."""
    d = draw(st.integers(2, 5))
    row, psi = (np.array([complex(draw(RATIONAL), draw(RATIONAL)) for _ in range(d)]) for _ in range(2))
    assume(row.any() and psi.any())
    return row, psi, np.array([draw(RATIONAL) for _ in range(d)])


def exact(z: complex) -> tuple:
    return Fraction(z.real), Fraction(z.imag)


def exact_product(x: complex, y: complex) -> tuple:
    (xr, xi), (yr, yi) = exact(x), exact(y)
    return xr * yr - xi * yi, xr * yi + xi * yr


def exact_sum(zs) -> tuple:
    zs = list(zs)
    return sum((z[0] for z in zs), Fraction(0)), sum((z[1] for z in zs), Fraction(0))


def squared(z: tuple) -> Fraction:
    return z[0] ** 2 + z[1] ** 2


def ratio_bound(error: float, total: Fraction, outcomes: int) -> float:
    """Weights off by `error` in all from exact weights of sum `total`, summed and divided in floats."""
    low = float(total) * (1 - EPS) - error
    return 2 * error / low + (outcomes + 1) * EPS if low > 0 else math.inf


def assert_near_exact(got, exact_probabilities, bound: float, refused_low: float, scale: float) -> None:
    """Each probability within `bound` of its exact value; a refusal only where `refused_low` is near the floor."""
    if isinstance(got, type):
        assert got is PostSelectionImpossible and refused_low <= 2e-24 * scale * scale
    else:
        assert len(got) == len(exact_probabilities)
        assert max(float(abs(Fraction(float(g)) - p)) for g, p in zip(got, exact_probabilities)) <= bound


@PROPERTY
@given(rational_selections())
def test_abl_born_and_basis_occupations_match_exact_rationals(case):
    """abl, born and basis_occupation_probabilities against the same probabilities in Fractions.

    Every real and imaginary part of the bra row and the ket, and every
    entry of the diagonal observable, is a float n/m with |n| <= 20 and
    1 <= m <= 20.  The observable takes the diagonal path of `_decompose`:
    its eigenvectors are basis vectors, and each block holds the indices of
    one diagonal value (distinct values differ by at least 1/380, far above
    the 1e-9 grouping tolerance).  The reference works in Fractions on the
    exact values of the float inputs, so every difference is the library's
    rounding.  No product of two nonzero parts is below 1/400, so nothing
    underflows, and the scaling by a power of two is exact.

    With eps = ulp(1) and S = sum_i |row_i| |psi_i| (rounded up):

    - Contracting with 0/1 eigenvector blocks is exact.  Each ABL amplitude
      A_g = sum_{i in g} row_i psi_i is one complex dot product of length at
      most d, within (d + 2) eps S of A_g; Born's weight ||P_g psi||**2 is
      the real part of one, within (d + 2) eps s**2 in all (s = |psi|).
    - |X|**2, a hypot within 1 ulp and a square, is within 3 eps of |X|**2
      relative, so an amplitude within e of A gives a weight within
      e (2 |A| + e) + 3 eps (|A| + e)**2.  Over the groups, with
      sum |A_g| <= S, the ABL weights are off by at most
      E = (d + 2) eps S**2 (2 + (d + 2) eps) + 3 eps S**2 (1 + (d + 2) eps)**2.
    - For basis state i, a_i = row_i psi_i is one complex product, within
      2 eps |row_i| |psi_i| <= 2 eps S; the overlap is a dot product within
      (d + 2) eps S, and the rounded difference c_i = <Phi|Psi> - a_i is
      within (d + 5) eps S, with |a_i|, |c_i| <= S.
    - Weights off by E in all from exact weights of total T move each
      probability by at most 2 E / (T - E); summing at most d weights and
      dividing add (d + 1) eps.

    Each rule refuses a total at or below 1e-24 times its squared scale, so a
    refusal is allowed only where T - E is within a factor 2 of that floor.
    """
    row, psi, diagonal = case
    d = row.size
    tsv = TwoStateVector(CoStateVector(row), StateVector(psi))
    obs = DenseOperator(np.diag(diagonal).astype(complex))
    groups = [np.flatnonzero(diagonal == c) for c in sorted(set(diagonal.tolist()))]
    products = [exact_product(r, p) for r, p in zip(row, psi)]
    size = float(np.abs(row) @ np.abs(psi)) * (1 + 2 * d * EPS)
    scale = float(np.linalg.norm(row) * np.linalg.norm(psi))

    amplitudes = [exact_sum(products[i] for i in g) for g in groups]
    total = sum(map(squared, amplitudes))
    overlap = exact_sum(products)
    misses = [squared((overlap[0] - a[0], overlap[1] - a[1])) for a in products]
    assume(total != 0 and all(squared(a) + m != 0 for a, m in zip(products, misses)))

    e_a = (d + 2) * EPS * size
    error = e_a * (2 * size + e_a) + 3 * EPS * (size + e_a) ** 2
    assert_near_exact(
        outcome(lambda: abl(tsv, obs).probabilities),
        [squared(a) / total for a in amplitudes],
        ratio_bound(error, total, len(groups)),
        float(total) - error,
        scale,
    )

    born_weights = [sum((squared(exact(psi[i])) for i in g), Fraction(0)) for g in groups]
    s2 = sum(born_weights)
    assert_near_exact(
        outcome(lambda: born(tsv.ket, obs).probabilities),
        [w / s2 for w in born_weights],
        ratio_bound((d + 2) * EPS * float(s2) * (1 + EPS), s2, len(groups)),
        float(s2),
        float(np.linalg.norm(psi)),
    )

    e_hit, e_miss = 2 * EPS * size, (d + 5) * EPS * size
    error = e_hit * (2 * size + e_hit) + e_miss * (2 * size + e_miss)
    error += 3 * EPS * ((size + e_hit) ** 2 + (size + e_miss) ** 2)
    hits = [squared(a) for a in products]
    got = outcome(lambda: basis_occupation_probabilities(tsv))
    totals = [h + m for h, m in zip(hits, misses)]
    assert_near_exact(
        got,
        [h / t for h, t in zip(hits, totals)],
        max(ratio_bound(error, t, 2) for t in totals),
        min(float(t) for t in totals) - error,
        scale,
    )


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_csv_table_writes_finite_float64_bit_patterns_as_percent_17g(patterns):
    # the array passes of csv_table against Python's correctly rounded conversion, cell by cell
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    assert csv_table(["x"], [x]) == "x\n" + "".join("%.17g\n" % v for v in x.tolist())
