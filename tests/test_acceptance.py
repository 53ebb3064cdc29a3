"""Acceptance suite: one test per top-level criterion, at stated tolerances.

Each test prints a `[criterion N] PASS/FAIL` line (run with -s to see them
live).  Criterion 5's narrow-pointer clause is implemented literally and is
an expected failure: the exact distribution for twenty spins at width 0.25
peaks near 1.33 with a secondary bump at 3.7% of the maximum, which the
independent tensor oracle confirms; the single-peak-at-sqrt(2) reading only
sets in at slightly larger widths (see the companion test).
"""

import math
import time
import warnings

import numpy as np
import pytest
from dense_oracles import kron_all
from scipy.linalg import eigh_tridiagonal

from twostate.errors import PostSelectionImpossible
from twostate.ideal import (
    abl,
    abl_degenerate_post,
    born,
    certain_outcome,
    counterfactual_decomposition_check,
    product_rule_report,
)
from twostate.linalg import (
    DenseOperator,
    Grid1D,
    gaussian_wavefunction,
    identity,
    pauli,
    projector_onto,
    spin_direction,
    spin_up,
)
from twostate.pointer import (
    GaussianPointer,
    ensemble_mean_estimator,
    n_spin_pointer_closed_form,
    pointer_distribution_postselected,
    pointer_distribution_preselected,
)
from twostate.protective import (
    AdiabaticSchedule,
    LargeSpin,
    adiabatic_protective_measurement,
    protected_two_state_measurement,
)
from twostate.scenarios import n_spin_tensor_oracle
from twostate.states import (
    CoStateVector,
    GeneralizedTwoStateVector,
    StateVector,
    TwoStateVector,
    interchange,
)
from twostate.timemachine import gaussian_shift_distortion, run_machine, success_scaling_probe
from twostate.weak import weak_value, weak_value_degenerate_post

SQRT2 = math.sqrt(2.0)

GOLDEN_DISTORTION = 1334.9922252902283725693971873725612628  # 50-digit oracle value


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {detail}")


def best_of(n_repeats: int, fn):
    best = math.inf
    value = None
    for _ in range(n_repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def three_box_tsv() -> TwoStateVector:
    ket = StateVector(np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
    bra = CoStateVector.from_ket(np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0))
    return TwoStateVector(bra, ket)


def bisector_tsv() -> TwoStateVector:
    return TwoStateVector(CoStateVector.from_ket(spin_up([0, 1, 0])), StateVector(spin_up([1, 0, 0])))


def test_criterion_01_three_box():
    tsv = three_box_tsv()
    p1, p2, p3 = (projector_onto(np.eye(3)[i]) for i in range(3))
    product = DenseOperator(p1.matrix @ p2.matrix)

    def core():
        return (
            abl(tsv, p1).probability_of(1.0),
            abl(tsv, p2).probability_of(1.0),
            certain_outcome(tsv, product),
            weak_value(tsv, p1),
            weak_value(tsv, p2),
            weak_value(tsv, p3),
        )

    core()  # warm
    (prob1, prob2, joint, w1, w2, w3), elapsed = best_of(5, core)
    ok = (
        abs(prob1 - 1.0) <= 1e-12
        and abs(prob2 - 1.0) <= 1e-12
        and joint == 0.0
        and abs(w1 - 1.0) <= 1e-12
        and abs(w2 - 1.0) <= 1e-12
        and abs(w3 + 1.0) <= 1e-12
        and elapsed < 1e-3
    )
    report(1, ok, f"three-box certainties and weak values ({elapsed * 1e6:.0f} us)")
    assert abs(prob1 - 1.0) <= 1e-12
    assert abs(prob2 - 1.0) <= 1e-12
    assert joint == 0.0
    assert abs(w1 - 1.0) <= 1e-12 and abs(w2 - 1.0) <= 1e-12 and abs(w3 + 1.0) <= 1e-12
    assert elapsed < 1e-3


def test_criterion_02_epr_pair():
    singlet = (np.kron([1, 0], [0, 1]) - np.kron([0, 1], [1, 0])) / SQRT2
    bra = CoStateVector.from_ket(np.kron(spin_up([1, 0, 0]), spin_up([0, 1, 0])))
    tsv = TwoStateVector(bra, StateVector(singlet))
    s1y = DenseOperator(np.kron(pauli("y").matrix, np.eye(2)))
    s2x = DenseOperator(np.kron(np.eye(2), pauli("x").matrix))

    def core():
        return product_rule_report(tsv, s1y, s2x)

    core()
    rep, elapsed = best_of(5, core)
    ok = (
        rep["a_certain"] == -1.0
        and rep["b_certain"] == -1.0
        and rep["ab_certain"] == -1.0
        and rep["product_rule_holds"] is False
        and elapsed < 1e-3
    )
    report(2, ok, f"EPR certainties -1/-1/-1 with product-rule violation ({elapsed * 1e6:.0f} us)")
    assert rep["a_certain"] == -1.0 and rep["b_certain"] == -1.0 and rep["ab_certain"] == -1.0
    assert rep["product_rule_holds"] is False
    assert elapsed < 1e-3


def test_criterion_03_bisector_weak_value_and_pointer():
    tsv = bisector_tsv()
    obs = spin_direction([1, 1, 0])

    t0 = time.perf_counter()
    wv = weak_value(tsv, obs)
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0], points=4096)
    post = pointer_distribution_postselected(tsv, obs, pointer)
    pre = pointer_distribution_preselected(StateVector(spin_up([1, 0, 0])), obs, pointer)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(wv - SQRT2) <= 1e-12
        and abs(post.peak_location - SQRT2) <= 0.05
        and abs(pre.mean - 1 / SQRT2) <= 0.02
        and elapsed < 1.0
    )
    report(
        3,
        ok,
        f"weak value sqrt(2), pointer peak {post.peak_location:.4f}, "
        f"preselected mean {pre.mean:.4f} ({elapsed * 1e3:.0f} ms)",
    )
    assert abs(wv - SQRT2) <= 1e-12
    assert abs(post.peak_location - SQRT2) <= 0.05
    assert abs(pre.mean - 1 / SQRT2) <= 0.02
    assert elapsed < 1.0


def test_criterion_04_ensemble_estimator():
    tsv = bisector_tsv()
    obs = spin_direction([1, 1, 0])
    pointer = GaussianPointer.for_spectrum(10.0, [1.0, -1.0], points=4096)
    t0 = time.perf_counter()
    dist = pointer_distribution_postselected(tsv, obs, pointer)
    estimate = ensemble_mean_estimator(dist, 5000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        0.10 <= estimate["stderr"] <= 0.20
        and abs(estimate["mean"] - SQRT2) <= 3 * estimate["stderr"]
        and elapsed < 1.0
    )
    report(
        4,
        ok,
        f"5000 readings: mean {estimate['mean']:.4f}, stderr {estimate['stderr']:.4f} "
        f"({elapsed * 1e3:.0f} ms)",
    )
    assert 0.10 <= estimate["stderr"] <= 0.20
    assert abs(estimate["mean"] - SQRT2) <= 3 * estimate["stderr"]
    assert elapsed < 1.0


def _n_spin_tensor_density(n: int, pointer: GaussianPointer):
    up_x, up_y = spin_up([1, 0, 0]), spin_up([0, 1, 0])
    sxi = spin_direction([1, 1, 0]).matrix
    avg = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(n):
        ops = [np.eye(2)] * n
        ops[site] = sxi
        avg += kron_all(ops)
    tsv = TwoStateVector(CoStateVector.from_ket(kron_all([up_y] * n)), StateVector(kron_all([up_x] * n)))
    return pointer_distribution_postselected(tsv, DenseOperator(avg / n), pointer)


def _local_maxima(result, rel_threshold=0.01):
    dens = result.q_density
    interior = (
        (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:]) & (dens[1:-1] > rel_threshold * dens.max())
    )
    return result.q_grid.values[1:-1][interior]


def test_criterion_05_n_spin_closed_form_vs_tensor():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 4, 6, 8):
        pointer = GaussianPointer.for_spectrum(0.25, [1.0, -1.0])
        closed = n_spin_pointer_closed_form(n, pointer)
        direct = _n_spin_tensor_density(n, pointer)
        worst = max(worst, float(np.abs(closed.q_density - direct.q_density).max()))
    closed20 = n_spin_pointer_closed_form(20, GaussianPointer.for_spectrum(0.25, [1.0, -1.0]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(
        5,
        ok,
        f"closed form matches the tensor oracle to {worst:.2e} for n in 2..8 "
        f"({elapsed * 1e3:.0f} ms); n=20 width-0.25 clause covered separately",
    )
    assert worst <= 1e-10
    assert elapsed < 5.0
    assert closed20.q_density.sum() * closed20.q_grid.spacing == pytest.approx(1.0, abs=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated literally, this clause is unattainable: the exact twenty-spin "
        "distribution at pointer width 0.25 (validated against the full "
        "tensor computation to 1e-15 at small n) has its main peak at 1.3309 "
        "and a secondary local maximum at 3.7% of the peak, so it is neither "
        "single-peaked above the 1% threshold nor within 0.05 of sqrt(2); "
        "the claim holds from width ~0.35 (see the companion test)"
    ),
)
def test_criterion_05_astated_single_peak_at_width_quarter():
    closed = n_spin_pointer_closed_form(20, GaussianPointer.for_spectrum(0.25, [1.0, -1.0]))
    maxima = _local_maxima(closed)
    ok = len(maxima) == 1 and abs(closed.peak_location - SQRT2) <= 0.05
    report(
        5,
        ok,
        f"as stated (n=20, width 0.25): {len(maxima)} maxima, peak {closed.peak_location:.4f} "
        f"(expected failure, see ledgered analysis)",
    )
    assert len(maxima) == 1
    assert abs(closed.peak_location - SQRT2) <= 0.05


def test_criterion_05_companion_exact_values_and_wider_pointer():
    closed = n_spin_pointer_closed_form(20, GaussianPointer.for_spectrum(0.25, [1.0, -1.0]))
    maxima = _local_maxima(closed)
    assert len(maxima) == 2
    assert closed.peak_location == pytest.approx(1.3309, abs=2e-3)
    wider = n_spin_pointer_closed_form(20, GaussianPointer.for_spectrum(0.35, [1.0, -1.0]))
    maxima_wider = _local_maxima(wider)
    assert len(maxima_wider) == 1
    assert abs(wider.peak_location - SQRT2) <= 0.05
    report(5, True, f"companion: width 0.35 is single-peaked at {wider.peak_location:.4f}")


def test_criterion_05_twenty_spin_closed_form_vs_tensor_oracle():
    pointer = GaussianPointer.for_spectrum(0.25, [1.0, -1.0])
    closed = n_spin_pointer_closed_form(20, pointer)
    oracle = n_spin_tensor_oracle(20, pointer)
    worst = float(np.abs(closed.q_density - oracle.q_density).max() / oracle.q_density.max())
    maxima = _local_maxima(oracle)
    secondary = np.sort(np.interp(maxima, oracle.q_grid.values, oracle.q_density))[0] / oracle.q_density.max()
    ok = worst <= 1e-11 and len(maxima) == 2
    report(
        5,
        ok,
        f"n=20 closed form matches the 2^20-amplitude oracle to {worst:.1e} of the peak; "
        f"oracle peak {oracle.peak_location:.4f}, secondary maximum at {secondary:.1%}",
    )
    assert worst <= 1e-11
    assert len(maxima) == 2
    assert oracle.peak_location == pytest.approx(1.3309, abs=2e-3)
    assert secondary == pytest.approx(0.037, abs=2e-3)


def test_criterion_06_negative_kinetic_energy():
    t0 = time.perf_counter()
    sites = 2048
    x = np.linspace(-60.0, 60.0, sites)
    dx = x[1] - x[0]
    potential = np.where(np.abs(x) <= 1.0, -5.0, 0.0)
    kin_diag = np.full(sites, 1.0 / dx**2)
    kin_off = np.full(sites - 1, -1.0 / (2 * dx**2))
    energies, vectors = eigh_tridiagonal(
        kin_diag + potential, kin_off, select="i", select_range=(0, 0)
    )
    e0 = float(energies[0])
    psi0 = vectors[:, 0]
    i_f = int(np.argmin(np.abs(x - 5.0)))
    k_psi = kin_diag * psi0
    k_psi[:-1] += kin_off * psi0[1:]
    k_psi[1:] += kin_off * psi0[:-1]
    kw = float(k_psi[i_f] / psi0[i_f])
    elapsed = time.perf_counter() - t0
    ok = e0 < 0 and abs(kw - e0) <= 1e-10 and potential[i_f] == 0.0 and elapsed < 1.0
    report(6, ok, f"K_w = {kw:.9f} vs E0 = {e0:.9f} at 2048 sites ({elapsed * 1e3:.0f} ms)")
    assert e0 < 0
    assert potential[i_f] == 0.0
    assert abs(kw - e0) <= 1e-10
    assert elapsed < 1.0


def test_criterion_07_spin_cone():
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    cases = []
    for chi in (math.pi / 16, math.pi / 8, 3 * math.pi / 16):
        gtsv = GeneralizedTwoStateVector(
            [
                (math.cos(chi), CoStateVector.from_ket(up), StateVector(up)),
                (-math.sin(chi), CoStateVector.from_ket(down), StateVector(down)),
            ]
        )
        theta = math.acos((1 - math.tan(chi)) / (1 + math.tan(chi)))
        cases.append((gtsv, theta, 4 * math.atan(math.sqrt(math.tan(chi)))))

    def observables(theta, phi):
        return spin_direction(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )

    def core():
        probs, printed = [], []
        for gtsv, theta, theta_printed in cases:
            for phi in (0.0, 2.0, 4.5):
                probs.append(abl(gtsv, observables(theta, phi)).probability_of(1.0))
            printed.append(abl(gtsv, observables(theta_printed, 0.0)).probability_of(1.0))
        return probs, printed

    core()
    (probs, printed), elapsed = best_of(3, core)
    ok = min(probs) >= 1.0 - 1e-10 and max(printed) < 1.0 - 1e-6 and elapsed < 0.010
    report(
        7,
        ok,
        f"certainty on the derived cone (min {min(probs):.12f}); printed four-arctan angle "
        f"reaches only {max(printed):.6f} ({elapsed * 1e3:.2f} ms)",
    )
    assert min(probs) >= 1.0 - 1e-10
    # the printed angle formula does not certify; the discrepancy is recorded
    assert max(printed) < 1.0 - 1e-6
    assert elapsed < 0.010


def test_criterion_08_time_machine():
    t0 = time.perf_counter()
    grid = Grid1D(-40.0, 40.0, 4096)
    fn = gaussian_wavefunction(grid, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        figure = run_machine(fn, 13, 10.0, 1.0)
    analytic = gaussian_shift_distortion(13, 10.0, 1.0, 1.0, grid)

    wide = Grid1D(-80.0, 92.0, 4096)
    wide_fn = gaussian_wavefunction(wide, 6.0)
    series = [run_machine(wide_fn, n, 10.0, 1.0).distortion for n in (8, 13, 21, 34)]

    probe = success_scaling_probe(10.0, [20, 21])
    elapsed = time.perf_counter() - t0

    golden_ok = (
        abs(figure.distortion - GOLDEN_DISTORTION) <= 1e-10 * GOLDEN_DISTORTION
        and abs(analytic - GOLDEN_DISTORTION) <= 1e-10 * GOLDEN_DISTORTION
    )
    monotone_ok = series[0] > series[1] > series[2] > series[3]
    # the probe's per-step amplitude decay is the quantity that approaches
    # 1/(2 eta - 1); the probability ratio approaches its square
    amplitude_ratio = float(np.sqrt(probe[-1]))
    ratio_ok = abs(amplitude_ratio - 1 / 19) <= 0.2 * (1 / 19)
    prob_ratio_ok = abs(float(probe[-1]) - 1 / 361) <= 0.2 * (1 / 361)
    ok = golden_ok and monotone_ok and ratio_ok and prob_ratio_ok and elapsed < 1.0
    report(
        8,
        ok,
        f"golden distortion {figure.distortion:.9f}; N-series decreasing; per-step decay "
        f"{amplitude_ratio:.6f} ~ 1/19 ({elapsed * 1e3:.0f} ms)",
    )
    assert golden_ok
    assert monotone_ok
    assert ratio_ok
    assert prob_ratio_ok
    assert elapsed < 1.0


def test_criterion_09_protective_measurements():
    t0 = time.perf_counter()
    obs = DenseOperator(pauli("z").matrix + 0.3 * pauli("x").matrix)
    pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
    errors = []
    for total_time in (10.0, 20.0, 40.0, 80.0):
        schedule = AdiabaticSchedule(total_time=total_time, steps=int(30 * total_time))
        res = adiabatic_protective_measurement(
            pauli("z"), obs, StateVector([1.0, 0.0]), schedule, pointer
        )
        errors.append(abs(res.pointer_shift - 1.0))
    ratios = [errors[i + 1] / errors[i] for i in range(3)]

    spin = LargeSpin(10)
    wide_pointer = GaussianPointer.for_spectrum(10.0, [1.0], points=4096)
    target = TwoStateVector(CoStateVector.from_ket(spin_up([0, 1, 0])), StateVector(spin_up([1, 0, 0])))
    protected = protected_two_state_measurement(target, spin_direction([1, 1, 0]), spin, 0.5, wide_pointer)
    control = protected_two_state_measurement(target, spin_direction([1, 1, 0]), spin, 0.0, wide_pointer)
    elapsed = time.perf_counter() - t0

    ratio_ok = all(r <= 0.75 for r in ratios)
    protected_ok = (
        protected.lambda_n_over_p0 == pytest.approx(50.0, abs=0)
        and abs(protected.pointer_shift - SQRT2) <= 0.02 * SQRT2
    )
    control_ok = abs(control.pointer_shift - SQRT2) > 0.02 * SQRT2
    ok = ratio_ok and protected_ok and control_ok and elapsed < 30.0
    report(
        9,
        ok,
        f"adiabatic error ratios {['%.2f' % r for r in ratios]}; protected shift "
        f"{protected.pointer_shift:.4f}, control {control.pointer_shift:.4f} ({elapsed:.1f} s)",
    )
    assert ratio_ok
    assert protected_ok
    assert control_ok
    assert elapsed < 30.0


def test_criterion_10_symmetry_suite():
    rng = np.random.default_rng(20240214)
    t0 = time.perf_counter()
    worst_abl = worst_weak = worst_gen = worst_chain = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = DenseOperator(raw + raw.conj().T)
        tsv = TwoStateVector(CoStateVector.from_ket(phi), StateVector(psi))
        flipped = interchange(tsv)

        a = abl(tsv, obs).probabilities
        b = abl(flipped, obs).probabilities
        worst_abl = max(worst_abl, float(np.abs(a - b).max()))

        wv = weak_value(tsv, obs)
        wv_flip = weak_value(flipped, obs)
        # tolerances on weak-value identities scale with the value: the ratio
        # diverges for near-orthogonal selections and float arrangements can
        # only agree to relative precision there
        worst_weak = max(worst_weak, abs(wv_flip - np.conj(wv)) / max(1.0, abs(wv)))

        psi2 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi2 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        gtsv = GeneralizedTwoStateVector(
            [
                (complex(rng.normal(), rng.normal()), CoStateVector.from_ket(phi), StateVector(psi)),
                (complex(rng.normal(), rng.normal()), CoStateVector.from_ket(phi2), StateVector(psi2)),
            ]
        )
        try:
            g1 = abl(gtsv, obs).probabilities
            g2 = abl(interchange(gtsv), obs).probabilities
            worst_gen = max(worst_gen, float(np.abs(g1 - g2).max()))
        except PostSelectionImpossible:
            pass  # vanishing generalized denominator: no distribution to compare

        sv = StateVector(psi)
        one_term = weak_value(GeneralizedTwoStateVector([(1.0, tsv.bra, tsv.ket)]), obs)
        rank_one = weak_value_degenerate_post(sv, projector_onto(phi), obs)
        full_post = weak_value_degenerate_post(sv, identity(dim), obs)
        expectation = np.vdot(sv.normalized().amplitudes, obs.matrix @ sv.normalized().amplitudes)
        abl_rank_one = abl_degenerate_post(sv, projector_onto(phi), obs).probabilities
        abl_full = abl_degenerate_post(sv, identity(dim), obs).probabilities
        scale = max(1.0, abs(wv))
        worst_chain = max(
            worst_chain,
            abs(one_term - wv) / scale,
            abs(rank_one - wv) / scale,
            abs(full_post - expectation),
            float(np.abs(abl_rank_one - a).max()),
            float(np.abs(abl_full - born(sv, obs).probabilities).max()),
        )

    counterfactual = counterfactual_decomposition_check(StateVector([1.0, 0.0]), pauli("x"), pauli("z"))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_abl <= 1e-12
        and worst_weak <= 1e-12
        and worst_gen <= 1e-12
        and worst_chain <= 1e-12
        and counterfactual.deviation_with <= 1e-12
        and counterfactual.deviation_without > 0.1
        and elapsed < 10.0
    )
    report(
        10,
        ok,
        f"1000 random descriptions: interchange dev {worst_abl:.1e}/{worst_weak:.1e}/"
        f"{worst_gen:.1e}, reduction chain {worst_chain:.1e} ({elapsed:.1f} s)",
    )
    assert worst_abl <= 1e-12
    assert worst_weak <= 1e-12
    assert worst_gen <= 1e-12
    assert worst_chain <= 1e-12
    assert counterfactual.deviation_with <= 1e-12
    assert counterfactual.deviation_without > 0.1
    assert elapsed < 10.0
