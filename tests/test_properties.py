"""Property tests: a two-state vector and its one-term generalized description obey the same rules.

Random kets, bras and Hermitian observables of dimension 2-6, every entry
drawn from [-1, 1] (zeros and subnormals included).  Where one description
is refused (a vanishing overlap or ABL denominator, a pointer the grid cannot
resolve), the other must be refused with the same error.

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
from twostate.ideal import abl, certain_outcome  # noqa: E402
from twostate.linalg import DenseOperator, hermitian_eigendecomposition  # noqa: E402
from twostate.pointer import GaussianPointer, _invert_cdf, pointer_distribution_postselected  # noqa: E402
from twostate.states import CoStateVector, GeneralizedTwoStateVector, StateVector, TwoStateVector, interchange  # noqa: E402
from twostate.weak import weak_value  # noqa: E402

EPS = math.ulp(1.0)
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


def assert_same(fn, args, general_args, same) -> None:
    """fn on both descriptions: the same TwoStateError, or results for which same(general, plain) holds."""
    results = []
    for a in (args, general_args):
        try:
            results.append(fn(*a))
        except TwoStateError as exc:
            results.append(type(exc))
    plain, general = results
    if isinstance(plain, type) or isinstance(general, type):
        assert general is plain
    else:
        assert same(general, plain)


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
