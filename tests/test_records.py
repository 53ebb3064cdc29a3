"""The record contract: what every value record of the package does, whatever builds its methods.

Each case names a record class, its fields in declaration order with a
valid value for each, and the defaults of the fields that have one.  The
tests build each record by position, by keyword and from its defaults,
refuse a missing or an unknown field with `TypeError`, refuse assignment
and deletion on every record with `FrozenInstanceError`, compare and hash
records by their fields, and print them as `Name(field=value, ...)`.
A `__post_init__` check still refuses what it refused.
"""

from __future__ import annotations

import copy
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import protection_models
from twostate import ideal, linalg, pointer, protective, scenarios, states, timemachine, weak
from twostate.errors import ValidationError

GRID = linalg.Grid1D(-4.0, 4.0, 16)
WAVE = linalg.WaveFunction1D(GRID, np.ones(16))
UP = states.StateVector([1.0, 0.0])
DOWN_ROW = states.CoStateVector([0.0, 1.0])
SPEC = scenarios.ParamSpec("boxes", 5, linalg.Domain("int", 3))
ARRAY = np.array([0.5, 0.5])


def _run(params, seed):
    raise AssertionError("not run")


# name -> (class, {field: value} in declaration order, {field: default})
CASES = {
    "linalg.DenseOperator": (linalg.DenseOperator, {"matrix": linalg.PAULI_Z}, {}),
    "linalg.SpectralDecomposition": (
        linalg.SpectralDecomposition,
        {"eigenvalues": np.array([-1.0, 1.0]), "blocks": [np.eye(2)[:, :1], np.eye(2)[:, 1:]]},
        {},
    ),
    "linalg.Grid1D": (linalg.Grid1D, {"lo": -1.0, "hi": 1.0, "points": 16}, {}),
    "linalg.Domain": (
        linalg.Domain,
        {"kind": "float", "lo": 0.0, "hi": 10.0, "ends": "(]", "why": "a stated reason"},
        {"lo": -math.inf, "hi": math.inf, "ends": "()", "why": ""},  # an infinite end is open
    ),
    "linalg.WaveFunction1D": (
        linalg.WaveFunction1D,
        {"grid": GRID, "values": np.ones(16, dtype=complex), "representation": "momentum", "conjugate_lo": -2.0},
        {"representation": "position", "conjugate_lo": None},
    ),
    "states.StateVector": (states.StateVector, {"amplitudes": np.array([0.6, 0.8j])}, {}),
    "states.CoStateVector": (states.CoStateVector, {"row": np.array([0.0, 1.0 + 0j])}, {}),
    "states.GeneralizedTwoStateVector": (
        states.GeneralizedTwoStateVector,
        {"terms": ((1.0 + 0j, DOWN_ROW, UP), (0.5 + 0j, DOWN_ROW, UP))},
        {},
    ),
    "ideal.OutcomeDistribution": (
        ideal.OutcomeDistribution,
        {"eigenvalues": np.array([-1.0, 1.0]), "probabilities": ARRAY},
        {},
    ),
    "ideal.CounterfactualReport": (
        ideal.CounterfactualReport,
        {
            "c_eigenvalues": ARRAY,
            "final_eigenvalues": ARRAY,
            "weights_without": ARRAY,
            "weights_with": ARRAY,
            "marginal_without": ARRAY,
            "marginal_with": ARRAY,
            "born_marginal": ARRAY,
            "deviation_without": 0.25,
            "deviation_with": 0.0,
        },
        {},
    ),
    "pointer.GaussianPointer": (pointer.GaussianPointer, {"delta": 1.0, "grid": GRID}, {}),
    "pointer.PointerResult": (
        pointer.PointerResult,
        {
            "q_grid": GRID,
            "q_density": np.ones(16),
            "amplitude": np.ones(16, dtype=complex),
            "norm_squared": 8.0,
            "peak_location": 0.0,
            "mean": 0.1,
            "delta": 1.0,
            "regime": "weak",
        },
        {},
    ),
    "timemachine.MachineInput": (
        timemachine.MachineInput,
        {
            "grid": GRID,
            "conjugate_lo": None,
            "support": (-1.0, 1.0),
            "spectrum": np.ones(16, dtype=complex),
            "kept": np.arange(16),
            "power": np.ones(16),
            "k": np.zeros(16),
            "rough": False,
        },
        {},
    ),
    "timemachine.MachineRun": (
        timemachine.MachineRun,
        {"final_fn": WAVE, "distortion": 1e-3, "success_prob": 0.25},
        {},
    ),
    "scenarios.ParamSpec": (
        scenarios.ParamSpec,
        {"name": "postselect", "default": True, "domain": None},
        {"domain": None},  # a bool's
    ),
    "scenarios.ScenarioResult": (
        scenarios.ScenarioResult,
        {
            "name": "n_box",
            "params": {"boxes": 5},
            "summary_line": "n_box: ok",
            "results": {"x": 1.0},
            "tables": {"fig.csv": list},
            "checks": [("ok", True)],
        },
        {},
    ),
    "scenarios.ScenarioSpec": (
        scenarios.ScenarioSpec,
        {"name": "n_box", "summary": "boxes", "params": (SPEC,), "runner": _run},
        {},
    ),
    "protective.AdiabaticSchedule": (protective.AdiabaticSchedule, {"total_time": 50.0, "steps": 200}, {"steps": 400}),
    "protective.LargeSpin": (protective.LargeSpin, {"spin_n": 3}, {}),
    "protective.AdiabaticResult": (
        protective.AdiabaticResult,
        {
            "pointer_shift": 0.5,
            "branch_weights": ARRAY,
            "branch_shifts": ARRAY,
            "branch_targets": ARRAY,
            "leakage": 1e-4,
            "leakage_flagged": False,
            "min_gap": 1.0,
        },
        {},
    ),
    "protective.ProtectedMeasurementResult": (
        protective.ProtectedMeasurementResult,
        {
            "pointer_shift": 0.7,
            "target_value": 0.71,
            "error": 0.01,
            "lambda_n_over_p0": 20.0,
            "post_selection_prob": 0.3,
            "peak_location": 0.7,
        },
        {},
    ),
    "protection_models.ModelSpinProtection": (
        protection_models.ModelSpinProtection,
        {
            "model_sigma": (linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z),
            "protection_hamiltonian": linalg.pauli("z"),
            "effective_hamiltonian": linalg.pauli("x"),
            "protector_pre": ARRAY,
            "protector_post": ARRAY,
            "chi_direction": np.array([0.0, 0.0, 1.0]),
            "weak_vector": np.array([1.0, 0.0, 0.0]),
        },
        {},
    ),
}

# a record that __post_init__ refuses: (class, fields, error)
REFUSED = {
    "a non-Hermitian matrix": (
        linalg.DenseOperator,
        {"matrix": [[0, 1], [0, 0]]},
        ValidationError,
    ),
    "a grid of 15 points": (linalg.Grid1D, {"lo": -1.0, "hi": 1.0, "points": 15}, ValidationError),
    "a grid whose upper bound is not above the lower": (
        linalg.Grid1D,
        {"lo": 1.0, "hi": 1.0, "points": 16},
        ValidationError,
    ),
    "an unknown representation": (
        linalg.WaveFunction1D,
        {"grid": GRID, "values": np.ones(16), "representation": "spin"},
        ValidationError,
    ),
    "a zero state": (states.StateVector, {"amplitudes": [0.0, 0.0]}, ValidationError),
    "an empty co-state": (states.CoStateVector, {"row": []}, ValidationError),
    "a description of no terms": (states.GeneralizedTwoStateVector, {"terms": ()}, ValidationError),
    "probabilities summing to 2": (
        ideal.OutcomeDistribution,
        {"eigenvalues": [0.0, 1.0], "probabilities": [1.0, 1.0]},
        ValidationError,
    ),
    "a negative pointer width": (pointer.GaussianPointer, {"delta": -1.0, "grid": GRID}, ValidationError),
    "an unknown parameter kind": (
        linalg.Domain,
        {"kind": "complex"},
        ValidationError,
    ),
    "a default outside the declared domain": (
        scenarios.ParamSpec,
        {"name": "x", "default": 0, "domain": linalg.Domain("int", 1)},
        ValidationError,
    ),
    "an adiabatic schedule of 99 steps": (
        protective.AdiabaticSchedule,
        {"total_time": 50.0, "steps": 99},
        ValidationError,
    ),
    "spin 0": (protective.LargeSpin, {"spin_n": 0}, ValidationError),
}


def _build(name, **changes):
    cls, fields, _ = CASES[name]
    return cls(**dict(fields, **changes))


def test_every_record_class_of_the_package_is_a_case():
    # and of protection_models, the test helper that keeps the model-spin recipe no run takes
    modules = (linalg, states, ideal, weak, pointer, timemachine, scenarios, protective, protection_models)
    classes = {
        f"{module.__name__.rsplit('.', 1)[-1]}.{attr}": obj
        for module in modules
        for attr, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    }
    classes.pop("linalg.Record", None)  # the base the records share
    assert classes.pop("states.TwoStateVector").__mro__[1] is states.GeneralizedTwoStateVector
    assert sorted(classes) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_a_record_is_built_by_position_by_keyword_and_from_its_defaults(name):
    cls, fields, defaults = CASES[name]
    by_keyword = repr(cls(**fields))  # every field's value, arrays included
    assert repr(cls(*fields.values())) == by_keyword
    names = list(fields)
    assert repr(cls(*[fields[n] for n in names[:1]], **{n: fields[n] for n in names[1:]})) == by_keyword
    from_defaults = cls(**{field: value for field, value in fields.items() if field not in defaults})
    for field, default in defaults.items():
        assert getattr(from_defaults, field) == default


@pytest.mark.parametrize("name", CASES)
def test_a_missing_an_unknown_or_a_surplus_field_is_a_type_error(name):
    cls, fields, _ = CASES[name]
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**{field: value for field, value in fields.items() if field != first})
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})  # the first field twice


@pytest.mark.parametrize("name", CASES)
def test_a_record_refuses_assignment_and_deletion(name):
    record = _build(name)
    field, value = next(iter(CASES[name][1].items()))
    with pytest.raises(FrozenInstanceError):
        setattr(record, field, value)
    with pytest.raises(FrozenInstanceError):
        delattr(record, field)
    assert field in vars(record)


def test_a_record_class_takes_no_class_keyword():
    with pytest.raises(TypeError):

        class Mutable(linalg.Record, frozen=False):
            value: float


@pytest.mark.parametrize("name", CASES)
def test_records_of_one_class_with_equal_fields_are_equal_and_hash_equal(name):
    record = _build(name)
    twin = copy.copy(record)  # the same field objects
    assert twin is not record and twin == record and not twin != record
    assert record != object() and record != (*CASES[name][1].values(),)
    values = tuple(getattr(record, field) for field in CASES[name][1])
    try:
        hash(values)
    except TypeError:  # a field that is an array, a list or a dict
        return
    rebuilt = _build(name)
    assert rebuilt == record and hash(rebuilt) == hash(record) == hash(twin)
    assert len({record, rebuilt, twin}) == 1


def test_records_differing_in_one_field_or_in_class_are_unequal():
    assert linalg.Grid1D(-1.0, 1.0, 16) != linalg.Grid1D(-1.0, 1.0, 17)
    three, four, three_float = (linalg.Domain("int", lo) for lo in (3, 4, 3.0))
    assert scenarios.ParamSpec("boxes", 5, three) != scenarios.ParamSpec("boxes", 5, four)
    assert scenarios.ParamSpec("boxes", 5, three) == scenarios.ParamSpec("boxes", 5, three_float)
    assert states.StateVector([1.0, 0.0]) != states.CoStateVector([1.0, 0.0])
    tsv = states.TwoStateVector(DOWN_ROW, UP)
    assert tsv != states.GeneralizedTwoStateVector(tsv.terms) and tsv == copy.copy(tsv)


@pytest.mark.parametrize("name", CASES)
def test_a_record_prints_as_its_class_and_fields(name):
    record = _build(name)
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in CASES[name][1])
    assert repr(record) == f"{type(record).__qualname__}({fields})"


def test_a_record_repr_reads_like_its_constructor_call():
    assert repr(linalg.Grid1D(-1.0, 1.0, 16)) == "Grid1D(lo=-1.0, hi=1.0, points=16)"
    assert repr(protective.AdiabaticSchedule(50.0)) == "AdiabaticSchedule(total_time=50.0, steps=400)"


@pytest.mark.parametrize("case", REFUSED)
def test_post_init_still_refuses_what_it_refused(case):
    cls, fields, error = REFUSED[case]
    with pytest.raises(error):
        cls(**fields)
    with pytest.raises(error):
        cls(*fields.values())
