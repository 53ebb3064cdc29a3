import numpy as np
import pytest
from dense_oracles import evolve_unitary, projectors, verify_projectors

from twostate.errors import DimensionMismatch, ResourceLimit, ValidationError
from twostate.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DenseOperator,
    Grid1D,
    WaveFunction1D,
    _fourier_factors,
    apply_on_site,
    fourier_pair,
    gaussian_wavefunction,
    hermitian_eigendecomposition,
    identity,
    is_hermitian,
    pauli,
    projector_onto,
    spin_direction,
    tensor_product,
    top_eigenvector,
    unit_density,
    unit_vector,
)


def test_identity_decomposes_to_single_projector():
    dec = hermitian_eigendecomposition(identity(3))
    assert dec.eigenvalues.tolist() == [1.0]
    assert np.allclose(projectors(dec)[0], np.eye(3))


def test_near_degenerate_eigenvalues_are_grouped():
    op = DenseOperator(np.diag([1.0, 1.0 + 1e-12, -1.0]).astype(complex))
    dec = hermitian_eigendecomposition(op)
    assert np.allclose(sorted(dec.eigenvalues), [-1.0, 1.0])
    ranks = sorted(int(round(np.trace(p).real)) for p in projectors(dec))
    assert ranks == [1, 2]


def test_each_eigenvalue_group_is_the_mean_of_its_levels():
    # 161 levels (the negative_kinetic_energy lattice size) with one planted
    # degenerate pair, rotated so LAPACK splits the pair by round-off
    rng = np.random.default_rng(11)
    levels = np.sort(rng.uniform(-5.0, 5.0, 161))
    levels[80] = levels[79]
    q, _ = np.linalg.qr(rng.normal(size=(161, 161)))
    m = q @ np.diag(levels) @ q.T
    op = DenseOperator((m + m.T) / 2)
    w = np.linalg.eigh(op.matrix.real)[0]
    tol = 1e-9 * np.abs(w).max()
    groups, start = [], 0
    for i in range(1, 162):
        if i == 161 or w[i] - w[start] > tol:
            groups.append(np.mean(w[start:i]))
            start = i
    dec = hermitian_eigendecomposition(op)
    assert len(dec.eigenvalues) == 160
    assert np.array_equal(dec.eigenvalues, groups)


def test_bisector_spin_component_has_unit_eigenvalues():
    # oracle: roots of the 2x2 characteristic polynomial lambda^2 - tr*lambda + det
    m = spin_direction([1, 1, 0]).matrix
    tr = np.trace(m)
    det = np.linalg.det(m)
    roots = sorted(np.roots([1.0, -tr, det]).real)
    dec = hermitian_eigendecomposition(spin_direction([1, 1, 0]))
    assert np.allclose(sorted(dec.eigenvalues), roots, atol=1e-12)
    assert np.allclose(sorted(dec.eigenvalues), [-1.0, 1.0], atol=1e-12)


def test_non_hermitian_inputs_rejected():
    with pytest.raises(ValidationError):
        DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        DenseOperator(np.zeros((0, 0)))


def test_hermiticity_check_is_relative_to_the_largest_entry_or_one():
    skew = np.array([[0.0, 1.0], [1.0 + 2e-12, 0.0]])
    assert not is_hermitian(skew)
    # a large entry widens the tolerance; entries below 1 do not narrow it (relative to 1e-3, 2e-15 would fail)
    assert is_hermitian(skew + np.diag([1e3, 0.0]))
    assert is_hermitian(1e-3 * skew)


def test_spectral_invariants_on_random_hermitian_matrices():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(2, 17))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        op = DenseOperator(raw + raw.conj().T)
        dec = hermitian_eigendecomposition(op)
        verify_projectors(dec)
        reconstructed = sum(c * p for c, p in zip(dec.eigenvalues, projectors(dec)))
        assert np.abs(reconstructed - op.matrix).max() <= 1e-10 * max(1, np.abs(op.matrix).max())


# Spectrum with degenerate groups of sizes 2, 1, 3, 1 (ascending), unit scale.
GROUPED_SPECTRUM = [(-1.5, 2), (-0.25, 1), (0.75, 3), (2.0, 1)]


def _hermitian_with_known_eigenspaces(rng, real: bool):
    """A Hermitian matrix U diag(c) U^H and the exact projectors onto its groups."""
    dim = sum(k for _, k in GROUPED_SPECTRUM)
    raw = rng.normal(size=(dim, dim))
    if not real:
        raw = raw + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(raw)
    diag = np.concatenate([[c] * k for c, k in GROUPED_SPECTRUM])
    m = (u * diag) @ u.conj().T
    m = (m + m.conj().T) / 2
    projectors, start = [], 0
    for _, k in GROUPED_SPECTRUM:
        block = u[:, start : start + k]
        projectors.append(block @ block.conj().T)
        start += k
    return m, projectors


@pytest.mark.parametrize("real", [False, True])
def test_selection_amplitudes_and_branches_match_explicit_projectors(real):
    rng = np.random.default_rng(5 + real)
    for _ in range(5):
        m, oracle = _hermitian_with_known_eigenspaces(rng, real)
        dec = hermitian_eigendecomposition(DenseOperator(m))
        assert np.allclose(dec.eigenvalues, [c for c, _ in GROUPED_SPECTRUM], atol=1e-12)
        assert [b.shape[1] for b in dec.blocks] == [k for _, k in GROUPED_SPECTRUM]
        dim = m.shape[0]
        row = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        row, ket = row / np.linalg.norm(row), ket / np.linalg.norm(ket)
        expected = np.array([row @ p @ ket for p in oracle])
        assert np.abs(dec.selection_amplitudes(row, ket) - expected).max() <= 1e-12
        expected_branches = np.array([p @ ket for p in oracle])
        assert np.abs(dec.branches(ket) - expected_branches).max() <= 1e-12


def test_kernel_rejects_vectors_of_the_wrong_dimension():
    dec = hermitian_eigendecomposition(pauli("z"))
    with pytest.raises(DimensionMismatch):
        dec.selection_amplitudes(np.ones(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        dec.branches(np.ones(3))


def test_real_and_complex_lapack_paths_agree():
    # D M D^H with a diagonal phase D is genuinely complex (complex LAPACK),
    # has the spectrum of the real M (real LAPACK) and projectors D P_n D^H.
    rng = np.random.default_rng(9)
    m, _ = _hermitian_with_known_eigenspaces(rng, real=True)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=m.shape[0]))
    rotated = (phases[:, None] * m) * phases.conj()[None, :]
    assert np.abs(rotated.imag).max() > 0.1
    real_dec = hermitian_eigendecomposition(DenseOperator(m))
    complex_dec = hermitian_eigendecomposition(DenseOperator(rotated))
    assert np.abs(real_dec.eigenvalues - complex_dec.eigenvalues).max() <= 1e-12
    for p_real, p_complex in zip(projectors(real_dec), projectors(complex_dec)):
        undone = (phases.conj()[:, None] * p_complex) * phases[None, :]
        assert np.abs(undone - p_real).max() <= 1e-12


def test_decomposition_is_cached_per_operator_at_the_default_tolerance():
    op = spin_direction([1, 2, 3])
    dec = hermitian_eigendecomposition(op)
    assert hermitian_eigendecomposition(op) is dec
    fresh = hermitian_eigendecomposition(DenseOperator(op.matrix))
    assert fresh is not dec
    assert hermitian_eigendecomposition(op) is dec
    assert np.array_equal(fresh.eigenvalues, dec.eigenvalues)
    # an equal but distinct operator has its own cache
    assert hermitian_eigendecomposition(spin_direction([1, 2, 3])) is not dec


def test_operator_matrix_is_a_read_only_copy():
    source = np.diag([1.0, 2.0, 4.0]).astype(complex)
    op = DenseOperator(source)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 3.0
    before = hermitian_eigendecomposition(op).eigenvalues.copy()
    source[0, 0] = 7.0
    source[1, 1] = -5.0
    assert np.array_equal(hermitian_eigendecomposition(op).eigenvalues, before)
    assert np.array_equal(hermitian_eigendecomposition(DenseOperator(op.matrix)).eigenvalues, before)
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(op).blocks[0][0, 0] = 2.0
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(op).eigenvalues[0] = 2.0


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts calls of numpy.linalg.eigh while the test runs."""
    calls = []
    lapack = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return lapack(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def eigh_groups(m, tol):
    """Grouped eigenvalues and projectors from an explicit LAPACK decomposition."""
    w, v = np.linalg.eigh(m)
    values, projectors, start = [], [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[start] > tol:
            values.append(w[start:i].mean())
            projectors.append(v[:, start:i] @ v[:, start:i].conj().T)
            start = i
    return np.array(values), projectors


# Unsorted, with degenerate groups (-1.0 twice, a signed zero pair, 0.5 three times).
DIAGONAL = [0.5, -1.0, -0.0, 0.5, 2.0, -1.0, 0.0, 0.5, -3.25]


@pytest.mark.parametrize("dtype", [float, complex])
def test_diagonal_operators_are_read_off_their_diagonal(dtype, eigh_calls):
    m = np.diag(DIAGONAL).astype(dtype)
    op = DenseOperator(m)
    dec = hermitian_eigendecomposition(op)
    assert hermitian_eigendecomposition(op) is dec
    assert eigh_calls == []
    values, expected_projectors = eigh_groups(m, 1e-9 * 3.25)  # the grouping tolerance: 1e-9 of the spectral radius
    assert [b.shape[1] for b in dec.blocks] == [int(round(np.trace(p).real)) for p in expected_projectors]
    assert np.abs(dec.eigenvalues - values).max() <= 1e-15
    for got, want in zip(projectors(dec), expected_projectors):
        assert np.abs(got - want).max() <= 1e-15
    rng = np.random.default_rng(4)
    row = rng.normal(size=len(DIAGONAL)) + 1j * rng.normal(size=len(DIAGONAL))
    ket = rng.normal(size=len(DIAGONAL)) + 1j * rng.normal(size=len(DIAGONAL))
    row, ket = row / np.linalg.norm(row), ket / np.linalg.norm(ket)
    expected = np.array([row @ p @ ket for p in expected_projectors])
    assert np.abs(dec.selection_amplitudes(row, ket) - expected).max() <= 1e-15
    assert not dec.eigenvalues.flags.writeable
    assert not any(b.flags.writeable for b in dec.blocks)


@pytest.mark.parametrize(
    "entry",
    [((0, 1), 1e-300), ((2, 2), 3.0 + 1e-14j)],
    ids=["tiny_off_diagonal", "imaginary_diagonal"],
)
def test_nearly_diagonal_operators_go_through_lapack(entry, eigh_calls):
    (i, j), value = entry
    m = np.diag([2.0, -1.0, 3.0, 0.0]).astype(complex)
    m[i, j] = value
    dec = hermitian_eigendecomposition(DenseOperator(m))
    assert len(eigh_calls) == 1
    assert np.abs(dec.eigenvalues - [-1.0, 0.0, 2.0, 3.0]).max() <= 1e-14


def test_n_box_makes_no_lapack_call(eigh_calls):
    from twostate.scenarios import get_scenario

    result = get_scenario("n_box").run({"boxes": "120"})
    assert result.passed
    assert eigh_calls == []


def test_zero_hamiltonian_evolution_is_identity():
    psi = np.array([0.3 + 0.1j, 0.8, -0.5j])
    out = evolve_unitary(psi, DenseOperator(np.zeros((3, 3))), t=2.7)
    assert np.allclose(out, psi, atol=1e-14)


def test_sigma_z_half_turn_is_a_global_phase():
    out = evolve_unitary(np.array([1.0, 0.0]), pauli("z"), t=np.pi)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
    overlap = abs(np.vdot(np.array([1.0, 0.0]), out))
    assert abs(overlap - 1.0) <= 1e-12


def test_sigma_x_quarter_turn_matches_closed_form():
    # oracle: exp(-i sx t) = cos(t) I - i sin(t) sx, so (1,0) -> (cos t, -i sin t)
    t = np.pi / 2
    out = evolve_unitary(np.array([1.0, 0.0]), pauli("x"), t=t)
    assert np.allclose(out, [np.cos(t), -1j * np.sin(t)], atol=1e-12)
    assert np.allclose(out, [0.0, -1j], atol=1e-12)


def test_unitary_evolution_preserves_norm_for_random_hamiltonians():
    rng = np.random.default_rng(3)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = DenseOperator(raw + raw.conj().T)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out = evolve_unitary(psi, h, t=float(rng.normal()))
        assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e-10


def test_evolution_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evolve_unitary(np.array([1.0, 0.0, 0.0]), pauli("z"), 1.0)


def test_tensor_product_basics():
    assert np.allclose(tensor_product(identity(2), identity(2)).matrix, np.eye(4))
    vec = tensor_product(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(vec, [0, 1, 0, 0])
    zz = tensor_product(pauli("z"), pauli("z"))
    assert np.vdot(vec, zz.matrix @ vec).real == pytest.approx(-1.0, abs=0)


def test_apply_on_site_matches_the_kron_embedded_operator():
    from dense_oracles import kron_all

    rng = np.random.default_rng(4)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ket = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    for site in range(4):
        embedded = kron_all([op if s == site else np.eye(3) for s in range(4)])
        local = apply_on_site(op, ket, site)
        assert local.shape == ket.shape
        assert np.abs(local.ravel() - embedded @ ket.ravel()).max() <= 1e-13 * np.abs(local).max()


def test_tensor_product_dimension_cap():
    big = DenseOperator(np.eye(1100))
    with pytest.raises(ResourceLimit):
        tensor_product(big, big)


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid1D(0.0, 1.0, 8)
    with pytest.raises(ValidationError):
        Grid1D(1.0, 1.0, 32)
    g = Grid1D(-1.0, 1.0, 21)
    assert g.spacing == pytest.approx(0.1, abs=0)


def test_grid_coordinates_are_built_once_and_read_only(monkeypatch):
    calls = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: calls.append(1) or linspace(*args, **kwargs))
    g = Grid1D(-1.0, 1.0, 21)
    assert g.values is g.values is g.values
    assert len(calls) == 1 and g == Grid1D(-1.0, 1.0, 21)
    with pytest.raises(ValueError):
        g.values[0] = 0.0


@pytest.mark.parametrize(
    "lo, hi, points",
    [(-np.inf, np.inf, 64), (0.0, np.inf, 64), (np.nan, 1.0, 64), (0.0, np.nan, 64), (-1e308, 1e308, 64),
     (0.0, 1.0, 16.5), (0.0, 1.0, 64.0), (0.0, 1.0, True), (0.0, 1.0, "64")],
)
def test_grid_refuses_unbounded_spans_and_fractional_point_counts(lo, hi, points):
    # at the parent Grid1D(-inf, inf, 64) was accepted with spacing inf, and 16.5 points raised a bare TypeError
    with pytest.raises(ValidationError):
        Grid1D(lo, hi, points)
    assert Grid1D(0.0, 1.0, np.int64(64)).points == 64


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf, 1e-155, 1e155])
def test_gaussian_widths_must_be_finite_and_positive(width):
    with pytest.raises(ValidationError, match="width"):
        gaussian_wavefunction(Grid1D(-8.0, 8.0, 256), width)


@pytest.mark.parametrize("direction", [[0, 0, 0], [0.0, np.nan, 1.0], [np.inf, 0.0, 0.0]])
def test_a_zero_or_non_finite_direction_is_refused_as_such(direction):
    # at the parent [0, 0, 0] was reported as "operator entries must be finite"
    with pytest.raises(ValidationError, match="nonzero, finite"):
        with np.errstate(invalid="ignore", over="ignore"):
            spin_direction(direction)


def test_a_finite_nonzero_direction_is_accepted_at_any_scale():
    # their plain norms overflow to inf or underflow to 0
    unit = spin_direction([1.0, 0.0, 0.0]).matrix
    assert np.array_equal(spin_direction([1e200, 0.0, 0.0]).matrix, unit)
    assert np.array_equal(spin_direction([1e-200, 0.0, 0.0]).matrix, unit)
    assert np.array_equal(spin_direction([3e-170, 4e-170, 0.0]).matrix, spin_direction([3.0, 4.0, 0.0]).matrix)


def test_a_vector_whose_squared_norm_is_subnormal_is_normalized_to_full_precision():
    # at the parent its norm came from a subnormal sum of squares, a few units of 5e-324: for [3e-162 (1 + i)]
    # P = |v><v| missed idempotency by far more than 1e-10, and abl_degenerate_post refused it as no projector
    eps = np.finfo(float).eps
    for vec in ([3e-162 + 3e-162j], [1e-160, 2e-160j, 0.0], [3e-156, 4e-156]):
        p = projector_onto(vec).matrix
        assert abs(np.trace(p) - 1) <= 4 * eps and np.abs(p @ p - p).max() <= 4 * eps
    assert np.abs(unit_vector([3e-160, 4e-160]) - [0.6, 0.8]).max() <= 2 * eps


def test_normalizing_a_vector_keeps_the_division_by_its_norm():
    n = np.array([1.0, 2.0, 3.0])
    u = n / np.linalg.norm(n)
    assert np.array_equal(spin_direction(n).matrix, u[0] * PAULI_X + u[1] * PAULI_Y + u[2] * PAULI_Z)
    v = np.array([1.0 - 2.0j, 0.5j, 3.0])
    assert np.array_equal(unit_vector(v, complex), v / np.linalg.norm(v))


def test_pauli_returns_one_shared_read_only_operator_per_axis_decomposed_once():
    for axis, matrix in zip("xyz", (PAULI_X, PAULI_Y, PAULI_Z)):
        op = pauli(axis)
        assert op is pauli(axis) and np.array_equal(op.matrix, matrix) and not op.matrix.flags.writeable
        assert hermitian_eigendecomposition(op) is hermitian_eigendecomposition(pauli(axis))


def test_fourier_gaussian_is_self_conjugate():
    g = Grid1D(-40.0, 40.0, 2048)
    mom = fourier_pair(gaussian_wavefunction(g, 1.0))
    analytic = np.pi**-0.25 * np.exp(-mom.grid.values**2 / 2)
    assert np.abs(mom.values - analytic).max() <= 1e-10
    # width D in position maps to width 1/D in momentum
    width = 3.0
    mom_wide = fourier_pair(gaussian_wavefunction(g, width))
    analytic_wide = (np.pi / width**2) ** -0.25 * np.exp(-mom_wide.grid.values**2 * width**2 / 2)
    assert np.abs(mom_wide.values - analytic_wide).max() <= 1e-10


def test_fourier_point_spike_has_flat_magnitude():
    g = Grid1D(-8.0, 8.0, 256)
    vals = np.zeros(256, dtype=complex)
    vals[100] = 1.0
    mom = fourier_pair(WaveFunction1D(g, vals))
    mags = np.abs(mom.values)
    assert mags.std() <= 1e-12 * mags.mean()


def test_fourier_shift_theorem():
    g = Grid1D(-40.0, 40.0, 2048)
    mom0 = fourier_pair(gaussian_wavefunction(g, 1.0))
    mom2 = fourier_pair(gaussian_wavefunction(g, 1.0, center=2.0))
    predicted = mom0.values * np.exp(-1j * mom0.grid.values * 2.0)
    assert np.abs(mom2.values - predicted).max() <= 1e-10


def test_fourier_round_trip_and_parseval_on_band_limited_inputs():
    rng = np.random.default_rng(7)
    g = Grid1D(-15.0, 17.0, 512)
    q = g.values
    for _ in range(5):
        vals = np.zeros(512, dtype=complex)
        for _ in range(6):
            k = rng.uniform(-1.5, 1.5)
            vals += (rng.normal() + 1j * rng.normal()) * np.exp(1j * k * q) * np.exp(-((q - rng.uniform(-3, 3)) ** 2) / 8)
        wf = WaveFunction1D(g, vals)
        mom = fourier_pair(wf)
        back = fourier_pair(mom)
        assert np.abs(back.values - wf.values).max() <= 1e-10 * np.abs(wf.values).max()
        assert abs(mom.norm_squared() - wf.norm_squared()) <= 1e-10 * wf.norm_squared()


def uncached_fourier_pair(wf: WaveFunction1D) -> WaveFunction1D:
    """`fourier_pair` with every phase factor evaluated in the call, uncached: the same operations, bit for bit."""
    n, dx, x0 = wf.grid.points, wf.grid.spacing, wf.grid.lo
    if wf.representation == "position":
        p = np.fft.fftshift(2 * np.pi * np.fft.fftfreq(n, d=dx))
        inner = wf.values * np.exp(-1j * p[0] * dx * np.arange(n))
        out_vals = dx / np.sqrt(2 * np.pi) * np.exp(-1j * p * x0) * np.fft.fft(inner)
        return WaveFunction1D(Grid1D(float(p[0]), float(p[-1]), n), out_vals, "momentum", conjugate_lo=x0)
    p0, dp = wf.grid.lo, wf.grid.spacing
    x_lo = wf.conjugate_lo if wf.conjugate_lo is not None else -np.pi / dp
    x = x_lo + 2 * np.pi / (n * dp) * np.arange(n)
    inner = wf.values * np.exp(1j * wf.grid.values * x_lo)
    out_vals = dp / np.sqrt(2 * np.pi) * np.exp(1j * p0 * (x - x_lo)) * (np.fft.ifft(inner) * n)
    return WaveFunction1D(Grid1D(float(x[0]), float(x[-1]), n), out_vals, "position", conjugate_lo=p0)


def _bits(wf: WaveFunction1D) -> tuple:
    g = wf.grid
    lo = None if wf.conjugate_lo is None else float(wf.conjugate_lo).hex()
    return float(g.lo).hex(), float(g.hi).hex(), g.points, wf.values.tobytes(), wf.representation, lo


# pairs of grids that differ only in the sign of a zero bound or in the last bit of a bound, each pair in turn,
# so that a cache that took one for the other would hand the second the first one's factors
BIT_TWIN_GRIDS = [
    (-1.0, -0.0, 16),
    (-1.0, 0.0, 16),
    (-0.0, 3.0, 17),
    (0.0, 3.0, 17),
    (-5.0, 5.0, 64),
    (-5.0, np.nextafter(5.0, 6.0), 64),
    (np.nextafter(-5.0, -6.0), 5.0, 64),
    (-40.0, 40.0, 4096),
]


def test_fourier_pair_equals_an_uncached_evaluation_bit_for_bit():
    rng = np.random.default_rng(41)
    sides = [("position", None), ("momentum", None), ("momentum", -0.0), ("momentum", 0.0), ("momentum", -3.5)]
    for lo, hi, n in BIT_TWIN_GRIDS:
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        for representation, conjugate_lo in sides:
            wf = WaveFunction1D(Grid1D(lo, hi, n), vals, representation, conjugate_lo)
            got, want = fourier_pair(wf), uncached_fourier_pair(wf)
            assert _bits(got) == _bits(want)
            assert _bits(fourier_pair(got)) == _bits(uncached_fourier_pair(want))  # the way back


def test_fourier_factors_are_cached_once_for_each_grid_by_its_bits():
    _fourier_factors.cache_clear()
    for lo, hi, n in BIT_TWIN_GRIDS * 2:
        fourier_pair(WaveFunction1D(Grid1D(lo, hi, n), np.ones(n)))
    assert _fourier_factors.cache_info()[:2] == (len(BIT_TWIN_GRIDS), len(BIT_TWIN_GRIDS))  # hits, misses


def test_fourier_factors_are_read_only_and_shared_per_grid():
    wf = gaussian_wavefunction(Grid1D(-8.0, 8.0, 256), 1.0)
    assert fourier_pair(wf).grid is fourier_pair(wf).grid
    for factor in _fourier_factors(float(-8.0).hex(), float(8.0).hex(), 256, None)[1:]:
        with pytest.raises(ValueError):
            factor[0] = 0.0


def test_wavefunction_requires_matching_grid():
    g = Grid1D(-1.0, 1.0, 32)
    with pytest.raises(DimensionMismatch):
        WaveFunction1D(g, np.zeros(31, dtype=complex))
    with pytest.raises(ValidationError):
        WaveFunction1D(g, np.full(32, np.nan, dtype=complex))


def test_one_dimensional_projector_has_the_single_eigenvalue_one():
    op = projector_onto([2.0 - 1.0j])
    dec = hermitian_eigendecomposition(op)
    assert dec.eigenvalues.tolist() == pytest.approx([1.0], abs=1e-15)  # |v|**2 of the unit vector, rounded
    assert op.matrix.shape == (1, 1) and abs(op.matrix[0, 0] - 1.0) <= 1e-15
    assert dec.selection_amplitudes(np.array([1j]), np.array([3.0 + 0j])).tolist() == [3j]


@pytest.mark.parametrize("vec", [[0.0, 0.0], [1.0, np.nan], [], [[1.0, 0.0]]])
def test_projector_onto_rejects_vectors_it_cannot_normalize(vec):
    with pytest.raises(ValidationError):
        with np.errstate(invalid="ignore"):
            projector_onto(vec)


def test_top_eigenvector_is_phase_fixed_and_unit_density_refuses_zero():
    m = spin_direction([1, 1, 1]).matrix
    vec = top_eigenvector(m)
    assert np.abs(m @ vec - vec).max() <= 1e-14
    lead = vec[np.argmax(np.abs(vec))]
    assert abs(lead.imag) <= 1e-15 and lead.real > 0
    dens = unit_density(np.arange(64.0), 0.25)
    assert dens.sum() * 0.25 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        unit_density(np.zeros(64), 0.25)


@pytest.mark.parametrize(
    "matrix, message",
    [(np.ones((2, 3)), "expected a square matrix"), (np.ones(4), "expected a square matrix"),
     ([[1.0, np.nan], [np.nan, 1.0]], "entries must be finite"), ([[np.inf]], "entries must be finite")],
)
def test_an_operator_matrix_that_is_not_square_or_not_finite_is_refused(matrix, message):
    with pytest.raises(ValidationError, match=message):
        DenseOperator(matrix)


def test_operators_of_different_dimensions_do_not_add():
    with pytest.raises(DimensionMismatch, match="operator dims 2 and 3"):
        pauli("z") + identity(3)


def test_a_tensor_product_of_vectors_past_the_cap_is_refused_before_it_is_built():
    short, long = np.ones(2**10), np.ones(2**10 + 1)  # 2**20 + 2**10 entries: past DIMENSION_CAP by one row
    assert tensor_product(short, short).size == 2**20
    with pytest.raises(ResourceLimit, match="exceeds cap"):
        tensor_product(short, long)


@pytest.mark.parametrize("pair", [(lambda: (pauli("x"), np.ones(2))), (lambda: (np.ones(2), pauli("x")))])
def test_a_tensor_product_of_an_operator_and_a_vector_is_refused(pair):
    with pytest.raises(ValidationError, match="two operators or two vectors"):
        tensor_product(*pair())
