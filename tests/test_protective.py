import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from dense_oracles import protected_measurement_per_momentum, stacked_two_level_propagators
from protection_models import model_spin_protection, verify_spin_algebra, weak_value_substituted_hamiltonian
from twostate.errors import DimensionMismatch, PostSelectionImpossible, ValidationError
from twostate.linalg import (
    DenseOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    identity,
    is_hermitian,
    pauli,
    spin_direction,
    spin_up,
)
from twostate.pointer import GaussianPointer
from twostate.protective import (
    _RUNS_PER_EIGH,
    AdiabaticSchedule,
    LargeSpin,
    _eigh_exponential,
    _ordered_propagators,
    _protection_matrix,
    _significant_momentum,
    _two_level_exponential,
    adiabatic_protective_measurement,
    protected_two_state_measurement,
)
from twostate.states import CoStateVector, StateVector, TwoStateVector

SQRT2 = np.sqrt(2.0)


def protector_pair(spin: LargeSpin, pre_dir, post_dir) -> TwoStateVector:
    operators = spin.operators()
    return TwoStateVector(
        CoStateVector.from_ket(spin.coherent_state(post_dir, operators)),
        StateVector(spin.coherent_state(pre_dir, operators)),
    )


def bisector_target() -> TwoStateVector:
    return TwoStateVector(CoStateVector.from_ket(spin_up([0, 1, 0])), StateVector(spin_up([1, 0, 0])))


def test_spin_algebra_holds_up_to_n_twenty():
    for n in (1, 5, 10, 20):
        verify_spin_algebra(LargeSpin(n))


def test_the_spin_algebra_check_refuses_a_wrong_commutator_and_a_wrong_casimir():
    sx, sy, sz = LargeSpin(1).operators()
    flipped = SimpleNamespace(spin_n=1, dim=3, operators=lambda: (sx, sy, -sz))
    with pytest.raises(ValidationError, match=r"commutator \[Sx, Sy\] != i Sz"):
        verify_spin_algebra(flipped)
    # spin-2 operators keep the commutator but carry the Casimir 6, not the 2 of a spin 1
    relabelled = SimpleNamespace(spin_n=1, dim=5, operators=LargeSpin(2).operators)
    with pytest.raises(ValidationError, match=r"Casimir invariant is not N\(N\+1\)"):
        verify_spin_algebra(relabelled)


def test_spin_quantum_number_must_be_an_integer():
    for spin_n in (2.5, 2.0, True, np.bool_(True), "2"):
        with pytest.raises(ValidationError, match="integer"):
            LargeSpin(spin_n)
    assert LargeSpin(np.int64(3)).dim == 7


def test_coherent_states_are_top_eigenvectors():
    spin = LargeSpin(6)
    sx, sy, sz = spin.operators()
    for direction, op in (((1, 0, 0), sx), ((0, 1, 0), sy), ((0, 0, 1), sz)):
        vec = spin.coherent_state(direction, (sx, sy, sz))
        assert np.abs(op @ vec - 6 * vec).max() <= 1e-10


def test_a_zero_coherent_state_direction_is_refused():
    # at the parent this raised numpy's LinAlgError "Eigenvalues did not converge"
    for direction in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]):
        with pytest.raises(ValidationError, match="nonzero, finite"):
            LargeSpin(3).coherent_state(direction, LargeSpin(3).operators())


def test_weak_value_substituted_hamiltonian_for_the_xy_protector():
    spin = LargeSpin(10)
    h_eff, s_w = weak_value_substituted_hamiltonian(protector_pair(spin, (1, 0, 0), (0, 1, 0)), spin, 1.0)
    assert np.allclose(s_w, [10.0, 10.0, 10.0j], atol=1e-9)
    assert not is_hermitian(h_eff)
    # right eigenvector |up_x>, left eigenvector <up_y|, both at -lambda*N
    up_x, up_y = spin_up([1, 0, 0]), spin_up([0, 1, 0])
    assert np.abs(h_eff @ up_x - (-10.0) * up_x).max() <= 1e-10
    assert np.abs(up_y.conj() @ h_eff - (-10.0) * up_y.conj()).max() <= 1e-10


def test_weak_value_substitution_is_componentwise_consistent():
    # cross-module consistency: the substituted components are the literal
    # bilinear ratios <post|S_k|pre>/<post|pre>
    spin = LargeSpin(7)
    tsv = protector_pair(spin, (0, 1, 0), (0, 0, 1))
    _, s_w = weak_value_substituted_hamiltonian(tsv, spin, 0.3)
    post = tsv.bra.ket_form
    pre = tsv.ket.amplitudes
    for comp, op in zip(s_w, spin.operators()):
        direct = np.vdot(post, op @ pre) / np.vdot(post, pre)
        assert comp == pytest.approx(direct, abs=1e-12)


def test_aligned_protector_gives_a_hermitian_zeeman_coupling():
    spin = LargeSpin(10)
    h_eff, s_w = weak_value_substituted_hamiltonian(protector_pair(spin, (0, 0, 1), (0, 0, 1)), spin, 1.0)
    assert np.allclose(s_w, [0.0, 0.0, 10.0], atol=1e-10)
    assert is_hermitian(h_eff)


def test_identity_observable_shifts_by_exactly_one():
    schedule = AdiabaticSchedule(total_time=5.0, steps=150)
    pointer = GaussianPointer.for_spectrum(4.0, [1.0], points=1024)
    res = adiabatic_protective_measurement(pauli("z"), identity(2), StateVector([1.0, 0.0]), schedule, pointer)
    assert res.pointer_shift == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_observable_reads_zero_in_an_eigenstate():
    schedule = AdiabaticSchedule(total_time=10.0, steps=300)
    pointer = GaussianPointer.for_spectrum(4.0, [1.0], points=1024)
    res = adiabatic_protective_measurement(pauli("z"), pauli("x"), StateVector([1.0, 0.0]), schedule, pointer)
    assert abs(res.pointer_shift) <= 1e-6
    assert res.leakage <= 1e-3


def test_adiabatic_shift_converges_to_the_expectation_value():
    obs = DenseOperator(PAULI_Z + 0.3 * PAULI_X)
    pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
    errors = []
    for total_time in (10.0, 20.0, 40.0, 80.0):
        schedule = AdiabaticSchedule(total_time=total_time, steps=int(30 * total_time))
        res = adiabatic_protective_measurement(pauli("z"), obs, StateVector([1.0, 0.0]), schedule, pointer)
        errors.append(abs(res.pointer_shift - 1.0))
    for faster, slower in zip(errors[1:], errors[:-1]):
        assert faster <= 0.75 * slower


def test_adiabatic_branches_reuse_the_overall_inverse_transforms(monkeypatch):
    # the benchmark's adiabatic input: one inverse FFT per h0 eigenstate column
    calls = []
    ifft = np.fft.ifft

    def counting_ifft(*args, **kwargs):
        calls.append(1)
        return ifft(*args, **kwargs)

    obs = DenseOperator(PAULI_Z + 0.3 * PAULI_X)
    pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
    schedule = AdiabaticSchedule(total_time=40.0, steps=1200)
    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    res = adiabatic_protective_measurement(pauli("z"), obs, StateVector([1.0, 0.0]), schedule, pointer)
    assert np.all(res.branch_weights > 1e-12)
    assert len(calls) == 2


def test_superposition_input_splits_into_expectation_branches():
    obs = DenseOperator(PAULI_Z + 0.3 * PAULI_X)
    schedule = AdiabaticSchedule(total_time=20.0, steps=600)
    pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
    res = adiabatic_protective_measurement(pauli("z"), obs, StateVector([0.6, 0.8]), schedule, pointer)
    # eigh orders energies ascending: branch 0 is spin-down (weight 0.64)
    assert np.allclose(res.branch_weights, [0.64, 0.36], atol=1e-3)
    assert np.allclose(res.branch_targets, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(res.branch_shifts, res.branch_targets, atol=0.01)


def test_repeated_measurement_on_the_surviving_branch_is_stable():
    obs = DenseOperator(PAULI_Z + 0.3 * PAULI_X)
    schedule = AdiabaticSchedule(total_time=20.0, steps=600)
    pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
    first = adiabatic_protective_measurement(pauli("z"), obs, StateVector([1.0, 0.0]), schedule, pointer)
    again = adiabatic_protective_measurement(pauli("z"), obs, StateVector([1.0, 0.0]), schedule, pointer)
    assert again.pointer_shift == pytest.approx(first.pointer_shift, abs=1e-12)
    assert abs(again.pointer_shift - 1.0) <= 1e-3


def test_eigenstate_leakage_is_the_other_branch_weight():
    # 1 - survival would cancel about 6.5e-6 of this 2.7e-8 leakage away
    obs = DenseOperator(PAULI_Z + 0.3 * PAULI_X)
    schedule = AdiabaticSchedule(total_time=40.0, steps=1200)
    pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
    res = adiabatic_protective_measurement(pauli("z"), obs, StateVector([1.0, 0.0]), schedule, pointer)
    # the input is the upper h0 eigenstate, branch 1; what leaks lands in branch 0
    assert 1e-9 < res.leakage < 1e-6
    assert res.leakage == pytest.approx(res.branch_weights[0], rel=1e-10, abs=0)


def stepwise_propagators(h0m, am, ps, g, dt):
    """The ordered product built one exact exponential per step."""
    d = h0m.shape[0]
    propagators = np.broadcast_to(np.eye(d, dtype=complex), (ps.size, d, d)).copy()
    for gk in g:
        blocks = h0m[None, :, :] + (gk * ps)[:, None, None] * am[None, :, :]
        w, v = np.linalg.eigh(blocks)
        phases = np.exp(-1j * w * dt)
        step = np.einsum("bij,bj,bkj->bik", v, phases, v.conj())
        propagators = np.einsum("bij,bjk->bik", step, propagators)
    return propagators


def _adiabatic_blocks():
    """(h0, obs, momenta) of the slow measurement the benchmark runs."""
    mom, mask = _significant_momentum(GaussianPointer.for_spectrum(4.0, [1.3], points=1024))
    return PAULI_Z, PAULI_Z + 0.3 * PAULI_X, mom.grid.values[mask]


def _runs(g):
    return int(np.count_nonzero(g[1:] != g[:-1])) + 1


@pytest.mark.parametrize("steps", [1200, 2400])
def test_run_propagators_match_the_stepwise_product_on_cosine_schedules(steps):
    h0m, am, ps = _adiabatic_blocks()
    g, dt = AdiabaticSchedule(total_time=40.0, steps=steps).sampled_coupling()
    if steps == 2400:
        assert _runs(g) == 481 > _RUNS_PER_EIGH  # more than one eigh batch
    got = _ordered_propagators(h0m, am, ps, g, dt)
    assert np.abs(got - stepwise_propagators(h0m, am, ps, g, dt)).max() <= 1e-12


def test_run_propagators_match_the_stepwise_product_without_equal_neighbours():
    rng = np.random.default_rng(17)
    raw_h0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    raw_obs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0m, am = raw_h0 + raw_h0.conj().T, raw_obs + raw_obs.conj().T
    ps = np.linspace(-3.0, 3.0, 11)
    g = rng.uniform(0.0, 2.0, size=300)
    assert _runs(g) == g.size
    got = _ordered_propagators(h0m, am, ps, g, 0.05)
    assert np.abs(got - stepwise_propagators(h0m, am, ps, g, 0.05)).max() <= 1e-12


def _assert_bit_equal(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # bytes: signed zeros and NaN payloads too


@pytest.mark.parametrize("steps", [300, 1200, 2400])
def test_two_level_propagators_equal_the_stacked_kernel_bit_for_bit_on_the_benchmark_input(steps):
    h0m, am, ps = _adiabatic_blocks()
    g, dt = AdiabaticSchedule(total_time=40.0, steps=steps).sampled_coupling()
    if steps == 2400:
        assert _runs(g) == 481 > _RUNS_PER_EIGH  # two batches
    _assert_bit_equal(_ordered_propagators(h0m, am, ps, g, dt), stacked_two_level_propagators(h0m, am, ps, g, dt))


# one run; an odd number in one batch; two batches; three, the last holding one run
@pytest.mark.parametrize("runs", [1, 7, 300, 513])
def test_two_level_propagators_equal_the_stacked_kernel_bit_for_bit_on_random_complex_blocks(runs):
    rng = np.random.default_rng(runs)
    h0m, am = _random_hermitian_pairs(rng, (2,))
    ps = rng.normal(scale=2.0, size=23)
    g = rng.uniform(-1.0, 2.0, size=runs)
    assert _runs(g) == runs
    _assert_bit_equal(_ordered_propagators(h0m, am, ps, g, 0.05), stacked_two_level_propagators(h0m, am, ps, g, 0.05))


def _random_hermitian_pairs(rng, shape):
    raw = rng.normal(size=(*shape, 2, 2)) + 1j * rng.normal(size=(*shape, 2, 2))
    return raw + np.swapaxes(raw, -1, -2).conj()


def two_level_exponential(h, tau):
    """The closed form on a (..., 2, 2) stack of h, entered entry by entry as h0 with no coupling, as a stack."""
    entries = _two_level_exponential(np.moveaxis(h, (-2, -1), (0, 1)), np.zeros((2, 2)), 0.0, tau)
    return np.stack(entries, axis=-1).reshape(*entries[0].shape, 2, 2)


def _assert_matches_eigh(h, tau, c=64):
    """Closed form against eigh, within c * eps * max(1, ||h|| tau), and unitary."""
    got = two_level_exponential(h, tau)
    scale = max(1.0, float((np.linalg.norm(h, ord=2, axis=(-2, -1)) * np.abs(tau)).max()))
    assert np.abs(got - _eigh_exponential(h, tau)).max() <= c * np.finfo(float).eps * scale
    unitarity = np.einsum("...ij,...kj->...ik", got, got.conj()) - np.eye(2)
    assert np.abs(unitarity).max() <= 1e-14


def test_two_level_exponential_matches_eigh_on_random_stacks():
    rng = np.random.default_rng(23)
    _assert_matches_eigh(_random_hermitian_pairs(rng, (9, 13)), rng.uniform(0.0, 3.0, size=(9, 1)))


def test_two_level_exponential_of_a_multiple_of_the_identity_is_a_phase():
    h = np.broadcast_to(2.5 * np.eye(2, dtype=complex), (4, 3, 2, 2))
    tau = np.array([[0.0], [0.1], [1.0], [7.3]])
    _assert_matches_eigh(h, tau)
    got = two_level_exponential(h, tau)
    assert np.array_equal(got[..., 0, 1], np.zeros((4, 3)))
    assert np.abs(got[..., 0, 0] - np.exp(-2.5j * tau)).max() <= 1e-15


def test_two_level_exponential_of_a_near_degenerate_pair():
    # 0.7 I + 0.5e-12 n.sigma for random unit n: the levels are 1e-12 apart
    rng = np.random.default_rng(29)
    n = rng.normal(size=(5, 4, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    h = 0.7 * np.eye(2) + 0.5e-12 * np.einsum("...k,kij->...ij", n, np.array([PAULI_X, PAULI_Y, PAULI_Z]))
    assert np.allclose(np.diff(np.linalg.eigvalsh(h)), 1e-12, rtol=1e-3, atol=0)
    _assert_matches_eigh(h, rng.uniform(0.5, 5.0, size=(5, 1)))


def test_two_level_exponential_of_a_long_evolution():
    rng = np.random.default_rng(31)
    h = _random_hermitian_pairs(rng, (6, 5))
    tau = 2e4 / np.linalg.norm(h, ord=2, axis=(-2, -1)).max(axis=1, keepdims=True)
    _assert_matches_eigh(h, tau)


def test_two_level_adiabatic_run_decomposes_only_the_free_hamiltonian(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    obs = DenseOperator(PAULI_Z + 0.3 * PAULI_X)
    pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
    schedule = AdiabaticSchedule(total_time=40.0, steps=1200)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    adiabatic_protective_measurement(pauli("z"), obs, StateVector([1.0, 0.0]), schedule, pointer)
    assert calls == [(2, 2)]


def _peak_bytes(steps):
    h0m, am, ps = _adiabatic_blocks()
    g, dt = AdiabaticSchedule(total_time=40.0, steps=steps).sampled_coupling()
    tracemalloc.start()
    try:
        _ordered_propagators(h0m, am, ps, g, dt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_propagator_memory_does_not_grow_with_the_step_count():
    assert _peak_bytes(20000) <= 2 * _peak_bytes(1200)


def test_degenerate_free_hamiltonian_is_rejected():
    schedule = AdiabaticSchedule(total_time=5.0, steps=150)
    pointer = GaussianPointer.for_spectrum(2.0, [1.0], points=512)
    with pytest.raises(ValidationError):
        adiabatic_protective_measurement(identity(2), pauli("x"), StateVector([1.0, 0.0]), schedule, pointer)


def test_violent_schedules_flag_their_leakage():
    schedule = AdiabaticSchedule(total_time=0.3, steps=100)
    pointer = GaussianPointer.for_spectrum(1.0, [1.5], points=1024)
    res = adiabatic_protective_measurement(
        pauli("z"), DenseOperator(PAULI_Z + 0.7 * PAULI_X), StateVector([1.0, 0.0]), schedule, pointer
    )
    assert res.leakage > 0.01
    assert res.leakage_flagged


def test_schedule_validation_and_unit_integral():
    with pytest.raises(ValidationError):
        AdiabaticSchedule(total_time=1.0, steps=50)
    for total_time in (float("nan"), float("inf"), -float("inf"), 0.0):
        with pytest.raises(ValidationError, match="finite and positive"):
            AdiabaticSchedule(total_time=total_time, steps=200)
    for steps in (1200.5, 1200.0, True, "1200"):
        with pytest.raises(ValidationError, match="integer"):
            AdiabaticSchedule(total_time=40.0, steps=steps)
    assert AdiabaticSchedule(total_time=40.0, steps=np.int64(1200)).sampled_coupling()[0].size == 1200
    g, dt = AdiabaticSchedule(total_time=7.0, steps=233).sampled_coupling()
    assert g.sum() * dt == pytest.approx(1.0, abs=1e-14)


def test_protected_two_state_measurement_reads_the_weak_value():
    # protection strength chosen by an oracle sweep: coupling 0.5 with a
    # width-10 pointer (P0 = 0.1) puts lambda*N/P0 at 50 for N = 10
    spin = LargeSpin(10)
    pointer = GaussianPointer.for_spectrum(10.0, [1.0], points=4096)
    res = protected_two_state_measurement(bisector_target(), spin_direction([1, 1, 0]), spin, 0.5, pointer)
    assert res.lambda_n_over_p0 == pytest.approx(50.0, abs=0)
    assert res.target_value == pytest.approx(SQRT2, abs=1e-12)
    assert abs(res.pointer_shift - SQRT2) <= 0.02 * SQRT2


def test_protection_quality_improves_along_the_ratio_sweep():
    spin = LargeSpin(10)
    pointer = GaussianPointer.for_spectrum(10.0, [1.0], points=4096)
    errors = []
    for ratio in (5.0, 15.0, 50.0):
        coupling = ratio / (10 * 10.0)
        res = protected_two_state_measurement(bisector_target(), spin_direction([1, 1, 0]), spin, coupling, pointer)
        errors.append(abs(res.pointer_shift - SQRT2))
    assert errors[0] > errors[1] > errors[2]


def test_unprotected_control_reads_the_expectation_value_instead():
    spin = LargeSpin(10)
    pointer = GaussianPointer.for_spectrum(10.0, [1.0], points=4096)
    res = protected_two_state_measurement(bisector_target(), spin_direction([1, 1, 0]), spin, 0.0, pointer)
    assert res.pointer_shift == pytest.approx(1 / SQRT2, abs=1e-6)
    assert abs(res.pointer_shift - SQRT2) > 0.4  # nowhere near the protected reading


def test_aligned_selections_reduce_to_single_state_protection():
    spin = LargeSpin(10)
    pointer = GaussianPointer.for_spectrum(10.0, [1.0], points=4096)
    up_x = spin_up([1, 0, 0])
    same = TwoStateVector(CoStateVector.from_ket(up_x), StateVector(up_x))
    res = protected_two_state_measurement(same, spin_direction([1, 1, 0]), spin, 0.5, pointer)
    assert res.pointer_shift == pytest.approx(1 / SQRT2, abs=1e-3)


def _protected_case(obs_direction=(1, 1, 0), spin_n=10, coupling=0.5, delta=10.0, points=4096, target=None):
    target = bisector_target() if target is None else target
    pointer = GaussianPointer.for_spectrum(delta, [1.0], points=points)
    return target, spin_direction(list(obs_direction)), LargeSpin(spin_n), coupling, pointer


def _aligned_target():
    up_x = spin_up([1, 0, 0])
    return TwoStateVector(CoStateVector.from_ket(up_x), StateVector(up_x))


# The benchmark's request, this module's spin-10 requests, a coarse grid with an
# asymmetric xy observable, and two observables with a nonzero diagonal, where
# no momentum pairs.
PROTECTED_CASES = {
    "bench": lambda: _protected_case(spin_n=20, coupling=1.0),
    "spin10-ratio5": lambda: _protected_case(coupling=0.05),
    "spin10-ratio15": lambda: _protected_case(coupling=0.15),
    "spin10-ratio50": lambda: _protected_case(),
    "spin10-unprotected": lambda: _protected_case(coupling=0.0),
    "spin10-aligned": lambda: _protected_case(target=_aligned_target()),
    "delta3-1024": lambda: _protected_case((1, -2, 0), delta=3.0, points=1024),
    "obs-xz": lambda: _protected_case((1, 0, 1)),
    "obs-z": lambda: _protected_case((0, 0, 1)),
}


def mirror_mismatches(cases=PROTECTED_CASES) -> dict:
    """For each case, the result fields where the library and the one-eigh-per-momentum oracle differ."""
    mismatches = {}
    for name, case in cases.items():
        got = protected_two_state_measurement(*case()).to_dict()
        want = protected_measurement_per_momentum(*case()).to_dict()
        mismatches[name] = {key: [got[key], want[key]] for key in want if got[key] != want[key]}
    return mismatches


@pytest.mark.parametrize("name", sorted(PROTECTED_CASES))
def test_the_pm_p_mirror_leaves_every_result_bit_unchanged(name):
    assert mirror_mismatches({name: PROTECTED_CASES[name]}) == {name: {}}


def test_the_mirror_signature_maps_each_bench_block_onto_its_partner_exactly():
    target, obs, spin, coupling, pointer = PROTECTED_CASES["bench"]()
    protection = _protection_matrix(spin.operators(), coupling, (PAULI_X, PAULI_Y, PAULI_Z))
    coupling_op = np.kron(np.eye(spin.dim), obs.matrix)
    mirror = np.diag(np.kron((-1.0) ** np.arange(spin.dim), [1.0, -1.0]))
    mom, mask = _significant_momentum(pointer)
    ps = set(mom.grid.values[mask].tolist())
    paired = sorted(p for p in ps if p > 0 and -p in ps)
    assert len(paired) == 17
    for p in paired:
        assert np.array_equal(protection - p * coupling_op, mirror @ (protection + p * coupling_op) @ mirror)


@pytest.mark.parametrize(
    "name, momenta, decompositions", [("bench", 35, 18), ("delta3-1024", 37, 25), ("obs-xz", 35, 35)]
)
def test_each_pm_p_pair_shares_one_decomposition(monkeypatch, name, momenta, decompositions):
    target, obs, spin, coupling, pointer = PROTECTED_CASES[name]()
    assert _significant_momentum(pointer)[1].sum() == momenta
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    protected_two_state_measurement(target, obs, spin, coupling, pointer)
    joint = (2 * spin.dim, 2 * spin.dim)
    assert calls.count(joint) == decompositions
    assert len(calls) == decompositions + 2  # and one for each protector coherent state


def test_a_protected_measurement_builds_the_spin_operators_once(monkeypatch):
    # both protector coherent states and the protection matrix take the one (Sx, Sy, Sz) triple
    target, obs, spin, coupling, pointer = PROTECTED_CASES["bench"]()
    want = protected_two_state_measurement(target, obs, spin, coupling, pointer).to_dict()
    calls = []
    operators = LargeSpin.operators

    def counting(self):
        calls.append(self.spin_n)
        return operators(self)

    monkeypatch.setattr(LargeSpin, "operators", counting)
    assert protected_two_state_measurement(target, obs, spin, coupling, pointer).to_dict() == want
    assert calls == [spin.spin_n]


def _dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# Runs mirror_mismatches under the kernel OPENBLAS_CORETYPE names, and prints
# the core OpenBLAS reports ("" where its library cannot be found) with them.
_KERNEL_CHILD = """
import ctypes, glob, json, os
import numpy as np
from test_protective import mirror_mismatches

core = ""
for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
        if hasattr(lib, name):
            getattr(lib, name).restype = ctypes.c_char_p
            core = getattr(lib, name)().decode()
print(json.dumps([core, mirror_mismatches()]))
"""


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_the_mirror_is_bit_exact_under_other_openblas_kernels():
    # the sharing rests on eigh(D h D) returning eigh(h)'s eigenvalues and D times its eigenvectors, up to
    # column signs, bit for bit; this holds it to two kernels besides the default
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    children = {
        core: subprocess.Popen(
            [sys.executable, "-c", _KERNEL_CHILD],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1"),
            stdout=subprocess.PIPE,
            text=True,
        )
        for core in ("Haswell", "SkylakeX")
    }
    outputs = {core: child.communicate()[0] for core, child in children.items()}
    for core, child in children.items():
        assert child.returncode == 0
        reported, mismatches = json.loads(outputs[core].splitlines()[-1])
        if not reported:
            pytest.skip("the OpenBLAS library does not report its core name")
        assert reported.lower() == core.lower()
        assert mismatches == {name: {} for name in PROTECTED_CASES}


def _no_decomposition(*args, **kwargs):
    raise AssertionError("eigh ran before the request was refused")


def test_a_protected_observable_that_is_not_two_by_two_is_refused_before_any_work(monkeypatch):
    # at the parent numpy raised "operands could not be broadcast together with shapes (14,14) (21,21)"
    target, _, _, _, pointer = _protected_case()
    monkeypatch.setattr(np.linalg, "eigh", _no_decomposition)
    with pytest.raises(DimensionMismatch, match="2x2"):
        protected_two_state_measurement(target, DenseOperator(np.diag([1.0, 0.0, -1.0])), LargeSpin(3), 0.5, pointer)


@pytest.mark.parametrize("coupling", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_protection_coupling_is_refused_before_any_work(monkeypatch, coupling):
    # at the parent a NaN coupling reached LAPACK: "Eigenvalues did not converge"
    args = _protected_case(coupling=coupling)
    monkeypatch.setattr(np.linalg, "eigh", _no_decomposition)
    with pytest.raises(ValidationError, match="coupling must be finite"):
        protected_two_state_measurement(*args)


def test_model_spin_protection_reproduces_the_spin_half_case():
    spin = LargeSpin(10)
    recipe = model_spin_protection(
        StateVector(spin_up([1, 0, 0])), StateVector(spin_up([0, 1, 0])), spin, 1.0
    )
    up_x, up_y = spin_up([1, 0, 0]), spin_up([0, 1, 0])
    h = recipe.effective_hamiltonian
    assert np.abs(h @ up_x - (-10.0) * up_x).max() <= 1e-9
    assert np.abs(up_y.conj() @ h - (-10.0) * up_y.conj()).max() <= 1e-9


def test_model_spin_protection_on_a_random_three_level_pair():
    rng = np.random.default_rng(5)
    pre = StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
    post = StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
    spin = LargeSpin(8)
    recipe = model_spin_protection(pre, post, spin, 0.7)
    v1 = pre.normalized().amplitudes
    v2 = post.normalized().amplitudes
    h = recipe.effective_hamiltonian
    hv = h @ v1
    eig_r = np.vdot(v1, hv)
    assert np.abs(hv - eig_r * v1).max() <= 1e-10
    wh = v2.conj() @ h
    eig_l = wh @ v2
    assert np.abs(wh - eig_l * v2.conj()).max() <= 1e-10
    # the protection Hamiltonian itself is Hermitian on the joint space
    assert is_hermitian(recipe.protection_hamiltonian.matrix)


def test_model_spin_protection_with_identical_states_points_along_z():
    spin = LargeSpin(5)
    psi = StateVector([0.6, 0.8j])
    recipe = model_spin_protection(psi, psi, spin, 1.0)
    assert np.allclose(recipe.chi_direction, [0.0, 0.0, 1.0], atol=1e-12)
    assert is_hermitian(recipe.effective_hamiltonian)
    with pytest.raises(ValidationError):
        model_spin_protection(StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), spin, 1.0)


def test_report_dictionaries_expose_the_run_diagnostics():
    spin = LargeSpin(10)
    pointer = GaussianPointer.for_spectrum(10.0, [1.0], points=4096)
    res = protected_two_state_measurement(bisector_target(), spin_direction([1, 1, 0]), spin, 0.5, pointer)
    payload = res.to_dict()
    assert set(payload) == {"shift", "target_value", "error", "lambdaN_over_P0", "post_selection_prob", "peak"}

    schedule = AdiabaticSchedule(total_time=10.0, steps=300)
    small_pointer = GaussianPointer.for_spectrum(4.0, [1.0], points=1024)
    adiabatic = adiabatic_protective_measurement(
        pauli("z"), identity(2), StateVector([1.0, 0.0]), schedule, small_pointer
    )
    adiabatic_payload = adiabatic.to_dict()
    assert "adiabaticity_leakage" in adiabatic_payload
    assert "shift" in adiabatic_payload


@pytest.mark.parametrize(
    "h0, obs, state",
    [(3, 2, 2), (2, 3, 2), (2, 2, 3)],
    ids=["hamiltonian", "observable", "state"],
)
def test_the_adiabatic_measurement_refuses_mismatched_dimensions(h0, obs, state, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _no_decomposition)
    pointer = GaussianPointer.for_spectrum(2.0, [1.0], points=512)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        adiabatic_protective_measurement(
            DenseOperator(np.diag(np.arange(1.0, h0 + 1))),
            DenseOperator(np.eye(obs)),
            StateVector(np.eye(state)[0]),
            AdiabaticSchedule(total_time=5.0, steps=150),
            pointer,
        )


def test_a_protector_description_of_another_dimension_is_refused():
    spin = LargeSpin(3)
    protector = protector_pair(LargeSpin(2), [1, 0, 0], [0, 1, 0])
    with pytest.raises(ValidationError, match="does not match the spin dimension"):
        weak_value_substituted_hamiltonian(protector, spin, 0.5)


def test_a_protected_target_that_is_not_spin_half_is_refused_before_any_work(monkeypatch):
    _, obs, spin, coupling, pointer = _protected_case()
    target = TwoStateVector(CoStateVector.from_ket([1.0, 0.0, 1.0]), StateVector([1.0, 1.0, 0.0]))
    monkeypatch.setattr(np.linalg, "eigh", _no_decomposition)
    with pytest.raises(ValidationError, match="must be a spin-1/2 description"):
        protected_two_state_measurement(target, obs, spin, coupling, pointer)


def test_a_protector_post_selection_that_vanishes_is_refused():
    # unprotected (coupling 0), the protector stays in its pre-selected coherent state along +z,
    # orthogonal to the post-selected one along -z
    target = TwoStateVector(CoStateVector.from_ket(spin_up([0, 0, -1])), StateVector(spin_up([0, 0, 1])))
    with pytest.raises(PostSelectionImpossible, match="protector post-selection amplitude vanishes"):
        protected_two_state_measurement(*_protected_case(coupling=0.0, points=512, target=target))
