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

The pointer sampler's sorted-order CDF inversion is checked against
np.interp in draw order, bit for bit.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from twostate.errors import TwoStateError  # noqa: E402
from twostate.ideal import abl, abl_generalized, certain_outcome  # noqa: E402
from twostate.linalg import DenseOperator, hermitian_eigendecomposition, spin_direction  # noqa: E402
from twostate.pointer import GaussianPointer, _invert_cdf, pointer_distribution_postselected  # noqa: E402
from twostate.states import CoStateVector, GeneralizedTwoStateVector, StateVector, TwoStateVector, interchange  # noqa: E402
from twostate.weak import _spinors, weak_value  # noqa: E402

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


def assert_agree(plain, general, same) -> None:
    """The same TwoStateError on both sides, or results for which same(general, plain) holds."""
    if isinstance(plain, type) or isinstance(general, type):
        assert general is plain
    else:
        assert same(general, plain)


def assert_same(fn, args, general_args, same) -> None:
    """fn on both descriptions: the same TwoStateError, or results for which same(general, plain) holds."""
    assert_agree(outcome(fn, *args), outcome(fn, *general_args), same)


def term_size(description) -> float:
    """S = sum_i |alpha_i| |row_i| |ket_i|: what the terms' contractions would add up to if nothing cancelled."""
    alpha, rows, kets = description.stacked_terms
    return float(np.sum(np.abs(alpha) * np.linalg.norm(rows, axis=1) * np.linalg.norm(kets, axis=1)))


@PROPERTY
@given(descriptions(), st.floats(0.05, 5.0))
def test_one_term_description_obeys_the_same_rules(case, delta):
    tsv, gtsv, obs = case
    assert_same(abl, (tsv, obs), (gtsv, obs), lambda g, p: np.array_equal(g.probabilities, p.probabilities))
    assert_same(
        weak_value,
        (tsv, obs),
        (gtsv, obs),
        lambda g, p: g.overlap_magnitude == p.overlap_magnitude and abs(g.value - p.value) <= 4 * EPS * abs(p.value),
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


@st.composite
def spin_half_descriptions(draw):
    """A spin-1/2 description of 1-4 (weight, bra, ket) terms; a single term is a TwoStateVector half the time."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        weight, phi, psi = draw(complex_entries(1))[0], draw(complex_entries(2)), draw(complex_entries(2))
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
    spread = np.linalg.norm(description.selection_amplitudes(hermitian_eigendecomposition(obs)))
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
        alpha, rows, _ = description.stacked_terms
        underflow = 4 * d * d * TINY * np.sum(np.abs(alpha) * (np.linalg.norm(rows, axis=1) + 1) + 1)
        spread = np.linalg.norm(description.selection_amplitudes(decomp))
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
            lambda g, p: abs(g.value - p.value.conjugate())
            <= (4 * d * EPS * size * (2 * norm_c + abs(p.value)) + underflow) / p.overlap_magnitude
            + 4 * EPS * abs(p.value) + 2 * TINY,
        )


@st.composite
def cdfs_and_draws(draw):
    """A sampler CDF with flat runs (zero-density bins and a 1.0 plateau), and n draws, some exactly on its knots."""
    knots = draw(st.integers(16, 256))
    density = draw(arrays(float, knots, elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    density[knots - draw(st.integers(1, knots // 4)):] = 0.0
    assume(density.sum() > 0)
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    n = draw(st.sampled_from([1, 2, 4096, 5000]))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n)
    on_knots = draw(st.lists(st.integers(0, knots - 1), max_size=min(n, 64)))
    u[: len(on_knots)] = cdf[on_knots]
    return u, cdf, np.linspace(-draw(st.floats(1.0, 100.0)), 50.0, knots)


@PROPERTY
@given(cdfs_and_draws())
def test_the_sorted_cdf_inversion_is_np_interp_in_draw_order(case):
    u, cdf, q = case
    assert np.array_equal(_invert_cdf(u.copy(), cdf, q), np.interp(u, cdf, q))
