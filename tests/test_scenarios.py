import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from twostate import ideal, linalg
from twostate.cli import _scalar_summaries, main
from twostate.errors import ResourceLimit, ValidationError
from twostate.ideal import counterfactual_decomposition_check
from twostate.linalg import hermitian_eigendecomposition, pauli, projector_onto
from twostate.pointer import GaussianPointer
from twostate.reporting import csv_table, stable_json
from twostate.scenarios import (
    REGISTRY,
    ParamSpec,
    _coarse_kinetic_operator,
    _spin_xi_setup,
    get_scenario,
    n_spin_tensor_oracle,
)
from twostate.states import CoStateVector, StateVector, TwoStateVector
from twostate.weak import weak_value

EXPECTED_SCENARIOS = [
    "epr_product_rule",
    "n_box",
    "n_spin_single_system",
    "negative_kinetic_energy",
    "spin_cone",
    "spin_xi_weak",
    "three_box",
    "time_machine",
]


def test_registry_contents():
    assert sorted(REGISTRY) == EXPECTED_SCENARIOS
    with pytest.raises(ValidationError):
        get_scenario("does_not_exist")


@pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
def test_every_scenario_passes_its_own_checks(name):
    result = get_scenario(name).run(seed=0)
    assert result.passed, [n for n, ok in result.checks if not ok]
    assert result.summary_line.startswith(name)
    # result payload serializes deterministically
    assert stable_json(result.to_dict()) == stable_json(result.to_dict())


@pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
def test_scenarios_are_deterministic_given_a_seed(name):
    a = get_scenario(name).run(seed=3)
    b = get_scenario(name).run(seed=3)
    assert stable_json(a.to_dict()) == stable_json(b.to_dict())
    assert sorted(a.tables) == sorted(b.tables)
    for filename, table in a.tables.items():
        assert csv_table(*b.tables[filename]()) == csv_table(*table())


@pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
def test_a_scenario_result_is_frozen_and_holds_the_coerced_params_with_the_seed(name):
    # run() used to overwrite the params of a mutable result after its runner returned
    spec = get_scenario(name)
    result = spec.run({p.name: str(p.default) for p in spec.params}, seed="7")
    want = dict({p.name: p.coerce(p.default) for p in spec.params}, seed=7)
    assert result.params == want and [type(v) for v in result.params.values()] == [type(v) for v in want.values()]
    assert result.name == name and type(result.tables) is dict and type(result.checks) is list
    with pytest.raises(FrozenInstanceError):
        result.params = {}


def test_three_box_default_results():
    result = get_scenario("three_box").run(seed=0)
    res = result.results
    assert res["prob_box1"] == pytest.approx(1.0, abs=1e-12)
    assert res["prob_box2"] == pytest.approx(1.0, abs=1e-12)
    assert res["joint_product_certain"] == 0.0
    assert res["weak_values"]["P3"][0] == pytest.approx(-1.0, abs=1e-12)
    assert res["pressure_weak_values"]["N3"] == pytest.approx(-5.0, abs=1e-10)
    assert res["prob_both_boxes_empty"] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_three_box_pressures_are_exactly_n_n_minus_n(n):
    # (N_k)_w = n (P_k)_w, and (P_k)_w is exactly 1, 1, -1: no round-off survives
    pressure = get_scenario("three_box").run({"n_particles": n}).results["pressure_weak_values"]
    assert pressure == {"N1": float(n), "N2": float(n), "N3": float(-n)}


def test_three_box_pressure_matches_the_kron_oracle():
    from dense_oracles import three_box_pressure

    for n in range(1, 10):  # the oracle holds 3**n amplitudes
        pressure = get_scenario("three_box").run({"n_particles": n}).results["pressure_weak_values"]
        for box, label in enumerate(("N1", "N2", "N3")):
            assert pressure[label] == pytest.approx(three_box_pressure(n, box), rel=1e-12, abs=0)


@pytest.mark.parametrize("n_particles", [0, -1])
def test_three_box_refuses_fewer_than_one_particle(n_particles):
    with pytest.raises(ValidationError, match="'n_particles' is at least 1"):
        get_scenario("three_box").run({"n_particles": n_particles})


def test_n_box_grows_with_the_box_count():
    result = get_scenario("n_box").run({"boxes": 10}, seed=0)
    assert len(result.results["prob_per_box"]) == 9
    assert max(abs(p - 1.0) for p in result.results["prob_per_box"]) <= 1e-10


def test_n_box_last_box_weak_value_is_that_of_the_dense_projector_bit_for_bit():
    for n in range(3, 201):
        root = math.sqrt(n - 2.0)
        ket = StateVector(np.concatenate([np.ones(n - 1), [root]]))
        bra = CoStateVector.from_ket(np.concatenate([np.ones(n - 1), [-root]]))
        want = weak_value(TwoStateVector(bra, ket), projector_onto(np.eye(n)[-1]))
        assert get_scenario("n_box").run({"boxes": n}, seed=0).results["weak_value_last_box"] == [want.real, want.imag]


def test_epr_reports_the_failure_pattern():
    res = get_scenario("epr_product_rule").run(seed=0).results
    assert res["product_rule"]["a_certain"] == -1.0
    assert res["product_rule"]["b_certain"] == -1.0
    assert res["product_rule"]["ab_certain"] == -1.0
    assert res["product_rule"]["product_rule_holds"] is False
    assert res["backward_only_max_deviation"] <= 1e-12


def test_spin_xi_weak_figures_and_seeding():
    post = get_scenario("spin_xi_weak").run(seed=0)
    assert post.results["figure"] == "fig3e"
    assert "fig3e.csv" in post.tables
    assert abs(post.results["pointer"]["peak"] - math.sqrt(2)) <= 0.05
    other_seed = get_scenario("spin_xi_weak").run(seed=1)
    assert other_seed.results["ensemble"]["mean"] != post.results["ensemble"]["mean"]

    pre = get_scenario("spin_xi_weak").run({"postselect": "false"}, seed=0)
    assert pre.results["figure"] == "fig2b"
    assert abs(pre.results["pointer"]["mean"] - 1 / math.sqrt(2)) <= 0.02

    strong = get_scenario("spin_xi_weak").run({"postselect": "false", "delta": 0.1}, seed=0)
    assert strong.results["figure"] == "fig2a"


def test_n_spin_scenario_cross_checks_small_systems():
    result = get_scenario("n_spin_single_system").run({"spins": 6}, seed=0)
    assert result.results["tensor_oracle_max_deviation"] <= 1e-10
    twelve = get_scenario("n_spin_single_system").run({"spins": 12}, seed=0)
    assert twelve.passed and twelve.results["tensor_oracle_max_deviation"] <= 1e-10
    assert get_scenario("n_spin_single_system").run({"spins": 13}).results["tensor_oracle_max_deviation"] is None
    default = get_scenario("n_spin_single_system").run(seed=0)
    assert default.results["tensor_oracle_max_deviation"] is None
    assert "fig4.csv" in default.tables


def test_n_spin_tensor_oracle_matches_the_dense_kron_oracle():
    from dense_oracles import n_spin_pointer

    for n in range(1, 9):
        pointer = GaussianPointer.for_spectrum(0.25, [1.0, -1.0])
        dense = n_spin_pointer(n, pointer)
        oracle = n_spin_tensor_oracle(n, pointer)
        assert np.abs(oracle.q_density - dense.q_density).max() <= 1e-12 * dense.q_density.max()


@pytest.mark.parametrize("n", [0, 21])
def test_n_spin_tensor_oracle_refuses_sizes_outside_its_cap(n):
    with pytest.raises(ResourceLimit):
        n_spin_tensor_oracle(n, GaussianPointer.for_spectrum(0.25, [1.0, -1.0]))


def test_negative_kinetic_energy_scenario_values():
    result = get_scenario("negative_kinetic_energy").run(seed=0)
    res = result.results
    assert res["ground_energy"] < 0
    assert abs(res["kinetic_weak_value"] - res["ground_energy"]) <= 1e-10
    assert res["kinetic_weak_value_inside_well"] == pytest.approx(
        res["ground_energy"] + 5.0, abs=1e-8
    )
    assert res["pointer_mean"] < 0
    with pytest.raises(ValidationError):
        get_scenario("negative_kinetic_energy").run({"postselect_x": 0.5}, seed=0)


def test_spin_cone_scenario_records_the_angle_discrepancy():
    result = get_scenario("spin_cone").run(seed=0)
    res = result.results
    assert res["prob_at_derived_angle"] >= 1.0 - 1e-10
    assert res["printed_angle_agrees"] is False
    assert res["theta_printed_four_arctan"] == pytest.approx(2 * res["theta_derived"], abs=0)
    degenerate = get_scenario("spin_cone").run({"chi": math.pi / 4}, seed=0)
    assert degenerate.results["directions_found"] == 0


def test_time_machine_scenario_consistency():
    result = get_scenario("time_machine").run(seed=0)
    res = result.results
    assert "fig5.csv" in result.tables
    assert res["net_shift"] == pytest.approx(10.0, abs=0)
    assert res["log10_success_prob"] < -25
    assert res["amplitude_decay_per_step"] == pytest.approx(1 / 19, rel=0.05, abs=0)
    # a visually faithful configuration: modest distortion at width 6
    assert res["distortion"] < 0.1


@pytest.mark.parametrize(
    "kind, default, bounds, message",
    [
        ("complex", 0, {}, "unknown parameter kind 'complex'"),
        ("int", 2, {"min": 3}, "is at least 3, got 2"),
        ("int", 7, {"max": 6}, "is at most 6, got 7"),
        ("float", 0.0, {"min": 0}, "must be above 0, got 0.0"),
        ("float", 1.0, {"max": 1.0}, "must be below 1.0, got 1.0"),
    ],
)
def test_a_parameter_spec_outside_its_own_domain_is_refused_when_built(kind, default, bounds, message):
    with pytest.raises(ValidationError, match=message):
        ParamSpec("x", kind, default, **bounds)


def test_unknown_parameter_is_rejected():
    with pytest.raises(ValidationError):
        get_scenario("three_box").run({"bogus": 1}, seed=0)
    with pytest.raises(ValidationError):
        get_scenario("n_box").run({"boxes": "many"}, seed=0)


def counterfactual_reference_case():
    """The sigma_x / sigma_z conditioning example used by the symmetry suite."""
    return counterfactual_decomposition_check(StateVector([1.0, 0.0]), pauli("x"), pauli("z"))


def test_counterfactual_reference_case_shape():
    report = counterfactual_reference_case()
    assert report.deviation_with <= 1e-12
    assert report.deviation_without == pytest.approx(0.25, abs=1e-12)


def test_spin_cone_makes_no_lapack_call(monkeypatch):
    calls = []
    lapack = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or lapack(*a, **k))
    result = get_scenario("spin_cone").run({"samples": 256}, seed=0)
    assert result.passed and result.results["directions_found"] == 256
    assert calls == []


def test_spin_cone_builds_no_operator_or_distribution_per_candidate(monkeypatch):
    built = {linalg.DenseOperator: [], ideal.OutcomeDistribution: []}
    for cls, log in built.items():
        spied = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, spied=spied, log=log: log.append(1) or spied(self))
    operators = []
    for samples in (16, 256):
        for log in built.values():
            log.clear()
        result = get_scenario("spin_cone").run({"samples": samples}, seed=0)
        assert result.passed and result.results["directions_found"] == samples
        operators.append(len(built[linalg.DenseOperator]))
        assert built[ideal.OutcomeDistribution] == []
    assert operators[0] == operators[1]  # 16 times the candidates, not one more operator


def test_n_box_runs_no_hermiticity_check(monkeypatch):
    calls = []
    check = linalg.is_hermitian  # the one Hermiticity check; every operator built goes through it
    monkeypatch.setattr(linalg, "is_hermitian", lambda *a, check=check, **k: calls.append(1) or check(*a, **k))
    assert get_scenario("n_box").run({"boxes": 120}, seed=0).passed
    assert calls == []


def test_n_box_allocates_no_box_sized_matrix():
    # one dense 1000 x 1000 complex matrix is 16 MB
    tracemalloc.start()
    try:
        result = get_scenario("n_box").run({"boxes": 1000}, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# per-process setup: each test clears the caches first, so it sees a cold process


def clear_setup_caches():
    _spin_xi_setup.cache_clear()
    _coarse_kinetic_operator.cache_clear()


@pytest.fixture
def cold_setup():
    clear_setup_caches()


@pytest.fixture
def eigh_shapes(monkeypatch):
    shapes = []
    lapack = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m, *a, **k: shapes.append(np.shape(m)) or lapack(m, *a, **k))
    return shapes


def test_a_spin_xi_sweep_diagonalizes_sigma_xi_and_its_spinors_once(cold_setup, eigh_shapes, tmp_path, capsys):
    argv = ["sweep", "spin_xi_weak", "--param-name", "delta", "--values", "0.1,0.25,1,3,10", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert eigh_shapes == [(2, 2)] * 3  # +y, +x and sigma_xi, once for all five values


def test_negative_kinetic_runs_diagonalize_the_coarse_operator_once(cold_setup, eigh_shapes):
    for pointer_delta in (8.0, 5.0):
        assert get_scenario("negative_kinetic_energy").run({"pointer_delta": pointer_delta}, seed=0).passed
    assert eigh_shapes.count((161, 161)) == 1


def test_every_array_the_setup_caches_hand_out_is_read_only(cold_setup):
    obs, tsv, _ = _spin_xi_setup()
    arrays = [tsv.bra.row, tsv.ket.amplitudes]
    for op in (obs, _coarse_kinetic_operator()):
        spectrum = hermitian_eigendecomposition(op)
        arrays += [op.matrix, spectrum.eigenvalues, *spectrum.blocks]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize(
    "scenario, name, values",
    [("spin_xi_weak", "delta", "0.1,0.25,1,3,10"), ("negative_kinetic_energy", "pointer_delta", "8,10,16")],
)
def test_each_sweep_row_equals_an_independent_run_with_cold_caches(cold_setup, tmp_path, capsys, scenario, name, values):
    argv = ["sweep", scenario, "--param-name", name, "--values", values, "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    header, *lines = (tmp_path / scenario / f"sweep_{name}.csv").read_text().strip().split("\n")
    assert len(lines) == len(values.split(","))
    for value, line in zip(values.split(","), lines):
        clear_setup_caches()
        flat = _scalar_summaries(get_scenario(scenario).run({name: value}, seed=3))
        flat.pop(name, None)
        row = dict(zip(header.split(","), line.split(",")))
        assert float(row.pop(name)) == float(value)
        assert sorted(row) == sorted(flat)
        assert {key: float(cell) for key, cell in row.items()} == flat


@pytest.mark.parametrize("sites, postselect_x", [(5, 5.0), (3, 1.5), (2049, -1.01)])
def test_a_post_selection_point_whose_nearest_site_is_inside_the_well_is_refused(sites, postselect_x):
    # |x| is past the well's half-width 1, but the lattice site nearest to it lies inside the well
    x = np.linspace(-60.0, 60.0, sites)
    assert abs(postselect_x) > 1.0 >= abs(x[np.argmin(np.abs(x - postselect_x))])
    with pytest.raises(ValidationError, match="must sit at exactly zero potential"):
        get_scenario("negative_kinetic_energy").run({"sites": sites, "postselect_x": postselect_x})
