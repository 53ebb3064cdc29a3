"""Reach: every function in src/twostate is entered by some CLI run, or is allow-listed.

The test traces `twostate.cli.main` with `sys.setprofile` over a run of
every scenario, the non-default branches the scenarios have (a small
N-spin system that takes the tensor oracle, a pre-selected-only pointer, a
run that takes its output directory from the environment), a sweep and
`list`.  `ast` gives every function and method in the package.  The
functions no run enters must be exactly `UNREACHED`, each with the
acceptance criterion or test that keeps it: a new function that no run
reaches, or a listed one that a run now reaches, fails here until the list
says why.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import twostate
from twostate.cli import build_parser, main
from twostate.scenarios import REGISTRY, _coarse_kinetic_operator, _spin_xi_setup
from twostate.timemachine import _machine_spectrum, binomial_schedule

SRC = Path(twostate.__file__).resolve().parent

CRITERION_9 = "protective measurements: criterion 9 and the benchmark's `lib` requests"
CRITERION_10 = "criterion 10 (symmetry suite)"
DILATIONS = "the gravitational machine's shell radii: test_timemachine dilation and radius_schedule tests"

UNREACHED = {
    "ideal._require_projector": f"degenerate post-selection, {CRITERION_10}",
    "ideal.abl_degenerate_post": CRITERION_10,
    "ideal.counterfactual_decomposition_check": CRITERION_10,
    "pointer.JointState.pointer_density": "test_pointer::test_bisector_strong_measurement_is_bimodal_*",
    "pointer.joint_state_after_impulse": "test_pointer joint-state tests (product state, rigid shift, bimodal)",
    "pointer.moment_expansion_residual": "test_pointer::test_moment_expansion_residual_*",
    "pointer.momentum_shift_imaginary_part": "the Im(C_w)/D**2 momentum shift: test_pointer::test_momentum_shift_*",
    "protective.AdiabaticResult.to_dict": CRITERION_9,
    "protective.AdiabaticSchedule.__post_init__": CRITERION_9,
    "protective.AdiabaticSchedule.sampled_coupling": CRITERION_9,
    "protective.LargeSpin.__post_init__": CRITERION_9,
    "protective.LargeSpin.coherent_state": CRITERION_9,
    "protective.LargeSpin.dim": CRITERION_9,
    "protective.LargeSpin.operators": CRITERION_9,
    "protective.LargeSpin.verify_algebra": "test_protective::test_spin_algebra_holds_up_to_n_twenty",
    "protective.ProtectedMeasurementResult.to_dict": CRITERION_9,
    "protective._bloch_direction": CRITERION_9,
    "protective._eigh_exponential": CRITERION_9,
    "protective._ordered_propagators": CRITERION_9,
    "protective._position_densities": CRITERION_9,
    "protective._protection_matrix": CRITERION_9,
    "protective._significant_momentum": CRITERION_9,
    "protective._substituted_hamiltonian": CRITERION_9,
    "protective._two_level_exponential": CRITERION_9,
    "protective._two_level_product": CRITERION_9,
    "protective.adiabatic_protective_measurement": CRITERION_9,
    "protective.model_spin_protection": "test_protective::test_model_spin_protection_*",
    "protective.protected_two_state_measurement": CRITERION_9,
    "protective.weak_value_substituted_hamiltonian": "test_protective weak-value substitution tests",
    "scenarios.ParamSpec.__post_init__": "runs at import, when each parameter is declared",
    "scenarios._register": "runs at import, before any CLI call",
    "states.GeneralizedTwoStateVector.selection_amplitudes": (
        "test_properties::test_one_term_description_obeys_the_same_rules"
    ),
    "states.TwoStateVector.stacked_terms": (
        "test_weak::test_certainty_cone_checks_each_candidate_once_and_matches_the_scalar_construction"
    ),
    "states.interchange": f"time-reversal interchange, {CRITERION_10}",
    "timemachine._one_minus_sqrt_one_minus": DILATIONS,
    "timemachine._schwarzschild_radius": DILATIONS,
    "timemachine.gr_dilation": DILATIONS,
    "timemachine.radius_schedule": DILATIONS,
    "timemachine.shell_pair_dilation": DILATIONS,
    "timemachine.sr_dilation": DILATIONS,
    "weak.theorem_i_check": "test_weak::test_theorem_i_for_boxes_and_epr",
    "weak.theorem_ii_check": "test_weak::test_theorem_ii_branches",
    "weak.weak_value_degenerate_post": CRITERION_10,
}


def package_functions() -> dict:
    """{(file, first line): 'module.Qual.name'} for every def in the package; a decorator starts its def."""
    out = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


def entered_functions(argvs: list) -> set:
    """(file, first line) of every Python function entered while the CLI runs each argv."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    binomial_schedule.cache_clear()  # a schedule, spectrum, setup or parser cached by an earlier test would skip its function
    _machine_spectrum.cache_clear()
    _spin_xi_setup.cache_clear()
    _coarse_kinetic_operator.cache_clear()
    build_parser.cache_clear()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(argvs)
    return {(os.path.realpath(filename), line) for filename, line in entered}


def test_every_function_is_reached_by_the_cli_or_allow_listed(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "out")
    monkeypatch.setenv("TWOSTATE_OUT_DIR", str(tmp_path / "from-env"))
    argvs = [["run", name, "--format", "both", "--out", out] for name in sorted(REGISTRY)]
    argvs += [
        ["run", "n_spin_single_system", "--param", "spins=6", "--out", out],
        ["run", "spin_xi_weak", "--param", "postselect=false", "--out", out],
        ["run", "epr_product_rule"],
        ["sweep", "spin_xi_weak", "--param-name", "delta", "--values", "0.25,3", "--out", out],
        ["list"],
    ]
    entered = entered_functions(argvs)
    unreached = {name for key, name in package_functions().items() if key not in entered}
    assert sorted(unreached - set(UNREACHED)) == [], "functions no CLI run enters: reach them or allow-list them"
    assert sorted(set(UNREACHED) - unreached) == [], "allow-listed functions that a run enters or that are gone"
