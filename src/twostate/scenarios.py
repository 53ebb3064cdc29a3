"""Canonical worked scenarios, registered for the command-line runner.

Each scenario builds its states from scratch, runs the relevant module
operations, re-asserts its defining numerical claims as named checks, and
returns JSON-able results plus any plot-ready tables (named after the
figure they reproduce).  A table is a zero-argument builder of its
`(header, columns)` arrays; the CLI calls it, and formats what it returns,
only when it writes that table.  A run that writes no CSV builds no table,
and a pointer's momentum side is transformed only when a table reads it.
Scenarios are deterministic given their seed.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import PostSelectionImpossible, ResourceLimit, ValidationError
from .ideal import (
    CERTAINTY_THRESHOLD,
    abl,
    abl_generalized,
    basis_occupation_probabilities,
    born,
    born_backward,
    product_rule_report,
)
from .linalg import (
    DIMENSION_CAP,
    DenseOperator,
    Grid1D,
    Record,
    apply_on_site,
    exact_cache,
    gaussian_wavefunction,
    hermitian_eigendecomposition,
    identity,
    pauli,
    projector_onto,
    spin_direction,
    spin_up,
    tensor_product,
)
from .pointer import (
    GaussianPointer,
    PointerResult,
    ensemble_mean_estimator,
    n_spin_pointer_closed_form,
    pointer_distribution_postselected,
    pointer_distribution_preselected,
    superposed_pointer,
)
from .states import CoStateVector, GeneralizedTwoStateVector, StateVector, TwoStateVector
from .timemachine import binomial_schedule, gaussian_input, gaussian_shift_distortion, run_machine, success_scaling_probe
from .weak import _spinors, basis_weak_values, certainty_cone, weak_value

SQRT2 = math.sqrt(2.0)
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ParamSpec(Record):
    """One scenario parameter and its domain: an int lies in [min, max], a float in (min, max).

    `coerce` refuses a value outside it before any compute runs, and the spec
    itself is refused, when built, for an unknown kind or a default outside it.
    """
    name: str
    kind: str  # int | float (finite) | bool
    default: object
    max: float = math.inf
    min: float = -math.inf

    def __post_init__(self):
        if self.kind not in ("int", "float", "bool"):
            raise ValidationError(f"unknown parameter kind {self.kind!r}")
        self.coerce(self.default)

    def coerce(self, raw):
        try:
            if isinstance(raw, bool) and self.kind != "bool":  # int(True) is 1, and JSON has true
                raise TypeError
            if self.kind == "int":
                value = int(raw, 10) if isinstance(raw, str) else int(raw)
                if not isinstance(raw, str) and float(raw) != value:
                    raise ValueError
            elif self.kind == "float":
                if not math.isfinite(value := float(raw)):  # no parameter has a meaningful NaN or infinity
                    raise ValueError
            else:
                value = raw if isinstance(raw, bool) else _BOOL_WORDS[str(raw).lower()]
        except (TypeError, ValueError, OverflowError, KeyError):  # int(inf) overflows
            raise ValidationError(f"parameter {self.name!r} expects {self.kind}, got {raw!r}") from None
        if self.kind == "int" and not self.min <= value <= self.max:
            word, bound = ("at least", self.min) if value < self.min else ("at most", self.max)
            raise ValidationError(f"parameter {self.name!r} is {word} {bound}, got {value}")
        if self.kind == "float" and not self.min < value < self.max:
            word, bound = ("above", self.min) if value <= self.min else ("below", self.max)
            raise ValidationError(f"parameter {self.name!r} must be {word} {bound}, got {value}")
        return value


SEED = ParamSpec("seed", "int", 0, min=0)  # numpy's default_rng refuses a negative seed


class ScenarioResult(Record):
    name: str
    params: dict  # the coerced parameters, seed included
    summary_line: str
    results: dict
    tables: dict  # file name -> builder of (header, columns), called only to write
    checks: list  # (name, passed) pairs

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.name,
            "params": self.params,
            "results": self.results,
            "checks": {name: bool(ok) for name, ok in self.checks},
            "passed": self.passed,
        }


class ScenarioSpec(Record):
    name: str
    summary: str
    params: tuple
    runner: object

    def run(self, overrides: dict | None = None, seed: int = 0) -> ScenarioResult:
        seed = SEED.coerce(seed)
        values = {p.name: p.default for p in self.params}
        schema = {p.name: p for p in self.params}
        for key, raw in (overrides or {}).items():
            if key not in schema:
                raise ValidationError(f"unknown parameter {key!r} for scenario {self.name!r}")
            values[key] = schema[key].coerce(raw)
        return self.runner(dict(values, seed=seed))


# ---------------------------------------------------------------------------
# box scenarios

def _run_three_box(params: dict) -> ScenarioResult:
    n_particles = params["n_particles"]
    ket = StateVector(np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
    tsv = TwoStateVector(CoStateVector.from_ket(np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)), ket)
    p1, p2 = (projector_onto(e) for e in np.eye(3)[:2])
    prob1, prob2, _ = basis_occupation_probabilities(tsv).tolist()
    both_open = abl(tsv, p1 + p2)
    wv = [complex(w) for w in basis_weak_values(tsv)]  # (P_k)_w, one array pass
    rule = product_rule_report(tsv, p1, p2)
    joint = rule["ab_certain"]  # P1 P2, the product observable the report decomposes
    # N_k sums n one-site projectors and both selections are products, so (N_k)_w = n (P_k)_w (Aharonov, Albert and
    # Vaidman, PRL 60, 1351 (1988)): exact here, as (P_k)_w is exactly 1, 1, -1
    pressure = {label: n_particles * w.real for label, w in zip(("N1", "N2", "N3"), wv)}

    checks = [
        ("box1_certain", abs(prob1 - 1.0) <= 1e-12),
        ("box2_certain", abs(prob2 - 1.0) <= 1e-12),
        ("product_certainly_zero", joint == 0.0),
        ("weak_values_1_1_m1", max(abs(wv[0] - 1), abs(wv[1] - 1), abs(wv[2] + 1)) <= 1e-12),
        ("product_rule_fails", rule["product_rule_holds"] is False),
        ("pressure_box3_negative", pressure["N3"] < 0),
    ]
    results = {
        "prob_box1": prob1,
        "prob_box2": prob2,
        "joint_product_certain": joint,
        "prob_both_boxes_empty": both_open.probability_of(0.0),
        "weak_values": {k: [v.real, v.imag] for k, v in zip(("P1", "P2", "P3"), wv)},
        "pressure_weak_values": pressure,
        "product_rule": rule,
        "n_particles": n_particles,
    }
    line = (
        f"three_box: Prob(P1=1)={prob1:.6f} Prob(P2=1)={prob2:.6f} "
        f"(P3)_w={wv[2].real:+.3f} (N3)_w={pressure['N3']:+.3f}"
    )
    return ScenarioResult("three_box", params, line, results, {}, checks)


def _run_n_box(params: dict) -> ScenarioResult:
    n = params["boxes"]
    root = math.sqrt(n - 2.0)
    ket = StateVector(np.concatenate([np.ones(n - 1), [root]]))
    bra = CoStateVector.from_ket(np.concatenate([np.ones(n - 1), [-root]]))
    tsv = TwoStateVector(bra, ket)
    *probs, prob_last = basis_occupation_probabilities(tsv).tolist()
    wv_last = complex(basis_weak_values(tsv)[-1])  # no operator, no n x n array
    # (P_n)_w = -(n-2) over an overlap of 1 summed from n terms: round-off below n**2 * eps (0.99x at worst).
    sum_tol = max(4.0 * n * n * math.ulp(1.0), 1e-9)
    checks = [
        ("first_boxes_certain", max(abs(p - 1.0) for p in probs) <= 1e-10),
        ("weak_values_sum_to_one", abs((n - 1) * 1.0 + wv_last.real - 1.0) <= sum_tol),
    ]
    results = {
        "boxes": n,
        "prob_per_box": probs,
        "prob_last_box_occupied": prob_last,
        "weak_value_last_box": [wv_last.real, wv_last.imag],
    }
    line = f"n_box: {n - 1} of {n} boxes each certain (max dev {max(abs(p - 1) for p in probs):.2e})"
    return ScenarioResult("n_box", params, line, results, {}, checks)


# ---------------------------------------------------------------------------
# EPR pair

def _run_epr(params: dict) -> ScenarioResult:
    up_x, up_y = spin_up([1, 0, 0]), spin_up([0, 1, 0])
    singlet = (tensor_product([1, 0], [0, 1]) - tensor_product([0, 1], [1, 0])) / SQRT2
    tsv = TwoStateVector(CoStateVector.from_ket(tensor_product(up_x, up_y)), StateVector(singlet))
    s1y = tensor_product(pauli("y"), identity(2))
    s2x = tensor_product(identity(2), pauli("x"))
    rule = product_rule_report(tsv, s1y, s2x)

    # guarded-partner variant: particle 1 carries only the backward state <up_x|
    backward = CoStateVector.from_ket(up_x)
    deviations = []
    for axis in "xyz":
        back = born_backward(backward, pauli(axis))
        forward = born(StateVector(up_x), pauli(axis))
        deviations.append(float(np.abs(back.probabilities - forward.probabilities).max()))

    checks = [
        ("sigma1y_certain_minus1", rule["a_certain"] == -1.0),
        ("sigma2x_certain_minus1", rule["b_certain"] == -1.0),
        ("product_certain_minus1", rule["ab_certain"] == -1.0),
        ("product_rule_violated", rule["product_rule_holds"] is False),
        ("backward_only_matches_preselected", max(deviations) <= 1e-12),
    ]
    results = {
        "product_rule": rule,
        "backward_only_max_deviation": max(deviations),
    }
    line = (
        f"epr_product_rule: s1y={rule['a_certain']:+.0f} s2x={rule['b_certain']:+.0f} "
        f"product={rule['ab_certain']:+.0f} rule_holds={rule['product_rule_holds']}"
    )
    return ScenarioResult("epr_product_rule", params, line, results, {}, checks)


# ---------------------------------------------------------------------------
# spin-1/2 bisector measurement (the weak-measurement workhorse)

_FIGURE_BY_CONFIG = {
    (False, 0.1): "fig2a",
    (False, 10.0): "fig2b",
    (True, 0.1): "fig3a",
    (True, 0.25): "fig3b",
    (True, 1.0): "fig3c",
    (True, 3.0): "fig3d",
    (True, 10.0): "fig3e",
}


@exact_cache(1)  # sigma_xi, <+y| |+x> and its weak value, under 1 KB: a sweep diagonalizes them once per process
def _spin_xi_setup() -> tuple:
    tsv = TwoStateVector(CoStateVector.from_ket(spin_up([0, 1, 0])), StateVector(spin_up([1, 0, 0])))
    obs = spin_direction([1, 1, 0])
    return obs, tsv, weak_value(tsv, obs)


def _run_spin_xi(params: dict) -> ScenarioResult:
    delta = params["delta"]
    n_samples = params["ensemble"]
    postselect = params["postselect"]
    obs, tsv, wv = _spin_xi_setup()
    pointer = GaussianPointer.for_spectrum(delta, [1.0, -1.0])

    if postselect:
        dist = pointer_distribution_postselected(tsv, obs, pointer)
        target_mean = SQRT2
    else:
        dist = pointer_distribution_preselected(tsv.ket, obs, pointer)
        target_mean = 1.0 / SQRT2

    estimate = ensemble_mean_estimator(dist, n_samples, params["seed"])

    fig = _FIGURE_BY_CONFIG.get((postselect, float(delta)), "pointer")
    tables = {
        f"{fig}.csv": lambda: (["Q", "probability"], [dist.q_grid, dist.q_density]),
        f"{fig}_momentum.csv": lambda: (["P", "probability"], [dist.p_grid, dist.p_density]),
    }

    checks = [("weak_value_sqrt2", abs(wv - SQRT2) <= 1e-12)]
    if postselect and delta >= 10.0:
        checks.append(("peak_near_weak_value", abs(dist.peak_location - SQRT2) <= 0.05))
        checks.append(("ensemble_mean_consistent", abs(estimate["mean"] - SQRT2) <= 3 * estimate["stderr"]))
    if not postselect and delta >= 10.0:
        checks.append(("mean_is_expectation", abs(dist.mean - target_mean) <= 0.02))

    results = {
        "weak_value": [wv.real, wv.imag],
        "delta": delta,
        "postselect": postselect,
        "pointer": dist.summary(),
        "ensemble": estimate,
        "figure": fig,
    }
    line = (
        f"spin_xi_weak: delta={delta} postselect={postselect} peak={dist.peak_location:.4f} "
        f"mean={dist.mean:.4f} ensemble_mean={estimate['mean']:.4f} (stderr {estimate['stderr']:.4f})"
    )
    return ScenarioResult("spin_xi_weak", params, line, results, tables, checks)


def n_spin_tensor_oracle(n: int, pointer: GaussianPointer) -> PointerResult:
    """The N-spin pointer from the 2**n product amplitudes, independent of the closed form.

    Each site of the +x ket and +y bra tensors is rotated into the sigma_xi
    eigenbasis (+1 first); the products bra * ket, summed over the entries
    with m sites at -1, are <Phi|P_m|Psi> at eigenvalue (n - 2m)/n.
    """
    if n < 1 or 2**n > DIMENSION_CAP:
        raise ResourceLimit(f"the tensor oracle takes 1 to {DIMENSION_CAP.bit_length() - 1} spins, got {n}")
    obs, tsv, _ = _spin_xi_setup()
    basis = np.hstack(hermitian_eigendecomposition(obs).blocks[::-1])
    ket, row = (reduce(np.multiply.outer, [v] * n) for v in (tsv.ket.amplitudes, tsv.bra.row))
    for site in range(n):
        ket, row = apply_on_site(basis.conj().T, ket, site), apply_on_site(basis.T, row, site)
    products, minus = (row * ket).ravel(), reduce(np.add.outer, [np.arange(2)] * n).ravel()
    amps = np.bincount(minus, products.real, n + 1) + 1j * np.bincount(minus, products.imag, n + 1)
    return superposed_pointer(amps, (n - 2 * np.arange(n + 1)) / n, pointer)


def _run_n_spin(params: dict) -> ScenarioResult:
    n = params["spins"]
    delta = params["delta"]
    pointer = GaussianPointer.for_spectrum(delta, [1.0, -1.0])
    closed = n_spin_pointer_closed_form(n, pointer)

    tensor_dev = None
    if n <= 12:  # the oracle adds about 2 ms up to 12 spins; it takes 44 ms at 16 and 0.6 s at 20
        oracle = n_spin_tensor_oracle(n, pointer)
        tensor_dev = float(np.abs(oracle.q_density - closed.q_density).max())

    dens = closed.q_density
    peak_level = dens.max()
    above = dens > 0.01 * peak_level
    interior = above[1:-1] & (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:])
    n_peaks = int(interior.sum())

    # Exact evaluation at n=20, delta=0.25 puts the main peak near 1.33 with a
    # few-percent secondary bump; the distribution only collapses onto the
    # weak value for somewhat wider pointers, so no peak-location claim is
    # asserted here beyond what the tensor oracle certifies.
    checks = []
    if tensor_dev is not None:
        checks.append(("matches_tensor_oracle", tensor_dev <= 1e-10))

    results = {
        "spins": n,
        "delta": delta,
        "pointer": closed.summary(),
        "local_maxima_above_1pct": n_peaks,
        "tensor_oracle_max_deviation": tensor_dev,
    }
    tables = {"fig4.csv": lambda: (["Q", "probability"], [closed.q_grid, closed.q_density])}
    line = (
        f"n_spin_single_system: n={n} delta={delta} peak={closed.peak_location:.4f} "
        f"local_maxima={n_peaks}"
    )
    return ScenarioResult("n_spin_single_system", params, line, results, tables, checks)


# ---------------------------------------------------------------------------
# negative kinetic energy of a tunneling particle

_COARSE_LATTICE = (161, 20)  # sites and half-domain of the pointer-level confirmation, which bounds postselect_x


def _kinetic_lattice(sites: int, half_domain: float):
    x = np.linspace(-half_domain, half_domain, sites)
    dx = x[1] - x[0]
    return x, dx, np.full(sites, 1.0 / dx**2), np.full(sites - 1, -1.0 / (2 * dx**2))


def _square_well_ground_state(sites: int, half_domain: float, depth: float, half_width: float):
    x, dx, kin_diag, kin_off = _kinetic_lattice(sites, half_domain)
    inside = np.abs(x) <= half_width
    if not inside.any():  # the lattice would hold a free particle
        raise ValidationError(f"a well of half width {half_width} holds no site of the {sites}-site lattice")
    # imported here: scipy.linalg costs a cold process more than numpy and twostate together,
    # and only this scenario needs it
    from scipy.linalg import eigh_tridiagonal

    potential = np.where(inside, -depth, 0.0)
    energies, vectors = eigh_tridiagonal(kin_diag + potential, kin_off, select="i", select_range=(0, 0))
    return x, dx, potential, kin_diag, kin_off, float(energies[0]), vectors[:, 0]


@exact_cache(1)  # no parameter changes it: built, checked and diagonalized once per process, 0.8 MB with its spectrum
def _coarse_kinetic_operator() -> DenseOperator:
    _, _, diag, off = _kinetic_lattice(*_COARSE_LATTICE)
    return DenseOperator(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _apply_tridiagonal(diag: np.ndarray, off: np.ndarray, vec: np.ndarray) -> np.ndarray:
    out = diag * vec
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def _run_negative_kinetic(params: dict) -> ScenarioResult:
    sites = params["sites"]
    depth = params["well_depth"]
    half_width = params["well_half_width"]
    x_f = params["postselect_x"]
    pointer_delta = params["pointer_delta"]
    if abs(x_f) <= half_width:
        raise ValidationError("post-selection site must lie outside the well, where U = 0")

    x, dx, potential, kin_diag, kin_off, e0, psi0 = _square_well_ground_state(
        sites, 60.0, depth, half_width
    )
    i_f = int(np.argmin(np.abs(x - x_f)))
    if potential[i_f] != 0.0:
        raise ValidationError("post-selection site must sit at exactly zero potential")
    k_psi = _apply_tridiagonal(kin_diag, kin_off, psi0)
    kw = float(k_psi[i_f] / psi0[i_f])

    # same identity evaluated inside the well picks up the local potential
    i_in = int(np.argmin(np.abs(x)))
    kw_inside = float(k_psi[i_in] / psi0[i_in])

    # pointer-level confirmation on a coarse lattice (moderate coupling)
    xs, *_, psi_s = _square_well_ground_state(*_COARSE_LATTICE, depth, half_width)
    k_op = _coarse_kinetic_operator()
    i_fs = int(np.argmin(np.abs(xs - x_f)))
    tsv = TwoStateVector(CoStateVector.from_ket(np.eye(1, xs.size, i_fs)[0]), StateVector(psi_s))
    k_spectrum = hermitian_eigendecomposition(k_op).eigenvalues  # cached: the pointer reuses it
    pointer = GaussianPointer.for_spectrum(pointer_delta, k_spectrum)
    dist = pointer_distribution_postselected(tsv, k_op, pointer)

    checks = [
        ("bound_state_exists", e0 < 0.0),
        ("kinetic_weak_value_is_ground_energy", abs(kw - e0) <= 1e-10),
        ("inside_well_shifted_by_potential", abs(kw_inside - (e0 + depth)) <= 1e-8),
        ("pointer_shift_negative", dist.mean < 0.0),
    ]
    results = {
        "ground_energy": e0,
        "kinetic_weak_value": kw,
        "kinetic_weak_value_inside_well": kw_inside,
        "postselect_x": float(x[i_f]),
        "pointer_mean": dist.mean,
        "pointer_peak": dist.peak_location,
        "pointer_delta": pointer_delta,
        "kinetic_spectral_radius": float(np.abs(k_spectrum).max()),
        "sites": sites,
    }
    line = (
        f"negative_kinetic_energy: E0={e0:.6f} K_w={kw:.6f} "
        f"pointer_mean={dist.mean:.4f} (< 0: {dist.mean < 0})"
    )
    return ScenarioResult("negative_kinetic_energy", params, line, results, {}, checks)


# ---------------------------------------------------------------------------
# spin cone of certain directions

def _spin_cone_description(chi: float) -> GeneralizedTwoStateVector:
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    return GeneralizedTwoStateVector(
        [
            (math.cos(chi), CoStateVector.from_ket(up), StateVector(up)),
            (-math.sin(chi), CoStateVector.from_ket(down), StateVector(down)),
        ]
    )


def _run_spin_cone(params: dict) -> ScenarioResult:
    chi = params["chi"]
    samples = params["samples"]
    gtsv = _spin_cone_description(chi)
    cone = certainty_cone(gtsv, samples=samples)
    cos_theta = (1.0 - math.tan(chi)) / (1.0 + math.tan(chi))
    theta_derived = 2.0 * math.atan(math.sqrt(math.tan(chi)))
    theta_printed = 4.0 * math.atan(math.sqrt(math.tan(chi)))

    def certainty(theta: float) -> float | None:
        try:
            return float(abl_generalized(gtsv, _spinors(theta, 0.0)))
        except PostSelectionImpossible:
            return None  # chi = pi/4 at the derived angle: both conditional amplitudes vanish there

    prob_derived = certainty(theta_derived)
    prob_printed = certainty(theta_printed) if theta_printed <= math.pi else None

    checks = [
        ("cone_nonempty", len(cone) > 0 or abs(chi - math.pi / 4) < 1e-12),
        ("cone_probabilities_certain", all(cone[:, 2] >= CERTAINTY_THRESHOLD)),
        ("derived_angle_matches_half_angle", len(cone) == 0 or abs(math.cos(cone[0, 0]) - cos_theta) <= 1e-9),
        ("derived_angle_certifies", prob_derived is None or prob_derived >= CERTAINTY_THRESHOLD),
    ]
    results = {
        "chi": chi,
        "cos_theta_derived": cos_theta,
        "theta_derived": theta_derived,
        "theta_printed_four_arctan": theta_printed,
        "prob_at_derived_angle": prob_derived,
        "prob_at_printed_angle": prob_printed,
        "printed_angle_agrees": None if prob_printed is None else prob_printed >= CERTAINTY_THRESHOLD,
        "directions_found": len(cone),
    }
    tables = {"cone.csv": lambda: (["theta", "phi", "probability"], cone.T)}
    certainty = "undefined" if prob_derived is None else f"{prob_derived:.12f}"
    printed = "undefined" if prob_printed is None else f"{prob_printed:.6f}"
    line = f"spin_cone: chi={chi:.4f} theta={theta_derived:.4f} certainty={certainty} printed-angle prob={printed}"
    return ScenarioResult("spin_cone", params, line, results, tables, checks)


# ---------------------------------------------------------------------------
# superposed time evolutions

def _run_time_machine(params: dict) -> ScenarioResult:
    n_terms = params["n_terms"]
    eta = params["eta"]
    delta_t = params["delta_t"]
    width = params["width"]
    binomial_schedule(n_terms, eta)  # an eta or n_terms it refuses is refused before the grid is sampled
    span = 8.0 * width
    lo = -span + min(0.0, eta * delta_t)
    hi = span + max(delta_t, eta * delta_t, 0.0)
    grid = Grid1D(lo, hi, 4096)
    run = run_machine(gaussian_input(grid, width), n_terms, eta, delta_t)
    analytic = gaussian_shift_distortion(n_terms, eta, delta_t, width, grid)
    ratios = success_scaling_probe(eta, [n_terms, n_terms + 1]) if eta > 1 else None

    def fig5():
        target = gaussian_wavefunction(grid, width, center=eta * delta_t)
        columns = [np.abs(f.values) ** 2 for f in (gaussian_wavefunction(grid, width), run.final_fn, target)]
        return ["Q", "original", "superposed", "ideally_shifted"], [grid, *columns]

    checks = [
        ("distortion_matches_analytic", abs(run.distortion - analytic) <= 1e-9 * max(analytic, 1e-30)),
        ("weights_sum_to_one", run.schedule.total == 1),
    ]
    results = {
        "n_terms": n_terms,
        "eta": eta,
        "delta_t": delta_t,
        "width": width,
        "distortion": run.distortion,
        "success_prob": run.success_prob,
        "log10_success_prob": math.log10(run.success_prob) if run.success_prob > 0 else None,
        "net_shift": eta * delta_t,
        "amplitude_decay_per_step": None if ratios is None else float(np.sqrt(ratios[-1])),
    }
    line = (
        f"time_machine: N={n_terms} eta={eta} distortion={run.distortion:.6g} "
        f"log10(success)={results['log10_success_prob']}"
    )
    return ScenarioResult("time_machine", params, line, results, {"fig5.csv": fig5}, checks)


# ---------------------------------------------------------------------------
# registry

REGISTRY: dict[str, ScenarioSpec] = {}


def _register(name: str, summary: str, params: tuple, runner) -> None:
    REGISTRY[name] = ScenarioSpec(name, summary, params, runner)


_register(
    "epr_product_rule",
    "Singlet pair with both partners post-selected: certainties without the product rule",
    (),
    _run_epr,
)
_register(
    "n_box",
    "A particle certain to be found in every one of the first N-1 boxes",
    (ParamSpec("boxes", "int", 5, min=3, max=100_000),),
    _run_n_box,
)
_register(
    "negative_kinetic_energy",
    "Bound-state particle post-selected in the forbidden region: negative kinetic readings",
    (
        ParamSpec("sites", "int", 2048, min=2),
        ParamSpec("well_depth", "float", 5.0, min=0),  # a well of depth 0 or less binds nothing
        ParamSpec("well_half_width", "float", 1.0),
        ParamSpec("postselect_x", "float", 5.0, min=-_COARSE_LATTICE[1], max=_COARSE_LATTICE[1]),
        ParamSpec("pointer_delta", "float", 8.0, min=0),
    ),
    _run_negative_kinetic,
)
_register(
    "n_spin_single_system",
    "Average spin component of N pre/post-selected spins read in a single measurement",
    (ParamSpec("spins", "int", 20, min=1), ParamSpec("delta", "float", 0.25, min=0)),
    _run_n_spin,
)
_register(
    "spin_cone",
    "Superposed description with a whole cone of certain spin directions",
    (
        ParamSpec("chi", "float", math.pi / 8, min=0, max=math.pi / 2),
        ParamSpec("samples", "int", 16, min=8, max=100_000),  # a run at the cap: 1.1 s, 68 MB peak RSS (2-core x86-64)
    ),
    _run_spin_cone,
)
_register(
    "spin_xi_weak",
    "Bisector spin component between x and y selections: the sqrt(2) pointer reading",
    (
        ParamSpec("delta", "float", 10.0, min=0),
        ParamSpec("ensemble", "int", 5000, min=1, max=10**6),
        ParamSpec("postselect", "bool", True),
    ),
    _run_spin_xi,
)
_register(
    "three_box",
    "One particle certain to be in box 1 and in box 2, with negative box-3 pressure",
    (ParamSpec("n_particles", "int", 5, min=1, max=2**53),),  # n * (P_k)_w, with (P_k)_w = +-1, is exact to 2**53
    _run_three_box,
)
_register(
    "time_machine",
    "Binomial superposition of small time shifts acting as one large shift",
    (
        ParamSpec("n_terms", "int", 13, min=1),
        ParamSpec("eta", "float", 10.0),
        ParamSpec("delta_t", "float", 1.0),
        ParamSpec("width", "float", 6.0, min=0),
    ),
    _run_time_machine,
)


def get_scenario(name: str) -> ScenarioSpec:
    if name not in REGISTRY:
        raise ValidationError(f"unknown scenario {name!r}; available: {', '.join(sorted(REGISTRY))}")
    return REGISTRY[name]
