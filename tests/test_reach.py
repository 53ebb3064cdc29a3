"""Reach: every function in src/twostate is entered by some CLI run, or is allow-listed.

The test traces `twostate.cli.main` with `sys.setprofile` over a run of
every scenario, the non-default branches the scenarios have (a small
N-spin system that takes the tensor oracle, a pre-selected-only pointer, a
run that takes its output directory from the environment), a sweep and
`list`.  `ast` gives every function and method in the package.  The
functions no run enters must be exactly `UNREACHED`, each with the
acceptance criterion or test that keeps it: a new function that no run
reaches, or a listed one that a run now reaches, fails here until the list
says why.  A reason that names a test as `test_module::test_name`, or a
group of them as `test_module::test_prefix_*`, must name test functions that
`tests/test_module.py` defines.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from pathlib import Path

import twostate
from twostate.cli import main
from twostate.linalg import CACHES
from twostate.scenarios import REGISTRY

SRC = Path(twostate.__file__).resolve().parent

CRITERION_9 = "protective measurements: criterion 9 and the benchmark's `lib` requests"
CRITERION_10 = "criterion 10 (symmetry suite)"

UNREACHED = {
    "ideal._require_projector": f"degenerate post-selection, {CRITERION_10}",
    "ideal.abl_degenerate_post": CRITERION_10,
    "ideal.counterfactual_decomposition_check": CRITERION_10,
    "linalg.Record.__delattr__": "test_records::test_a_record_refuses_assignment_and_deletion",
    "linalg.Record.__init_subclass__": "runs at import, once per record class: test_records builds every one",
    "linalg.Record.__repr__": "test_records::test_a_record_prints_as_its_class_and_fields",
    "linalg.Record.__setattr__": "test_records::test_a_record_refuses_assignment_and_deletion",
    "linalg.Domain.__post_init__": "runs at import, when each domain is declared",
    "linalg.Domain.capped": "runs at import, when a scenario narrows a library domain",
    "linalg.exact_cache": "runs at import, once per cached function",
    "linalg.SpectralDecomposition.branches": f"P_n|Psi> of {CRITERION_10} and the test_pointer joint-state tests",
    "pointer.moment_expansion_residual": "test_pointer::test_moment_expansion_residual_*",
    "protective.AdiabaticResult.to_dict": CRITERION_9,
    "protective.AdiabaticSchedule.__post_init__": CRITERION_9,
    "protective.AdiabaticSchedule.sampled_coupling": CRITERION_9,
    "protective.LargeSpin.__post_init__": CRITERION_9,
    "protective.LargeSpin.coherent_state": CRITERION_9,
    "protective.LargeSpin.dim": CRITERION_9,
    "protective.LargeSpin.operators": CRITERION_9,
    "protective.ProtectedMeasurementResult.to_dict": CRITERION_9,
    "protective._bloch_direction": CRITERION_9,
    "protective._eigh_exponential": CRITERION_9,
    "protective._ordered_propagators": CRITERION_9,
    "protective._position_densities": CRITERION_9,
    "protective._protection_matrix": CRITERION_9,
    "protective._significant_momentum": CRITERION_9,
    "protective._two_level_exponential": CRITERION_9,
    "protective._two_level_product": CRITERION_9,
    "protective.adiabatic_protective_measurement": CRITERION_9,
    "protective.protected_two_state_measurement": CRITERION_9,
    "scenarios.ParamSpec.__post_init__": "runs at import, when each parameter is declared",
    "scenarios._scenario": "runs at import, once per scenario, before any CLI call",
    "scenarios._scenario.register": "runs at import, once per scenario, before any CLI call",
    "states.interchange": f"time-reversal interchange, {CRITERION_10}",
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

    for cache in CACHES:  # an entry cached by an earlier test would skip its function
        cache.cache_clear()
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


def test_every_test_an_allow_list_reason_names_exists():
    defined = {}
    stale = []
    for name, reason in sorted(UNREACHED.items()):
        for module, test, star in re.findall(r"\b(test_\w+)::(test_\w+)(\*?)", reason):
            if module not in defined:
                path = Path(__file__).with_name(f"{module}.py")
                body = ast.parse(path.read_text(encoding="utf-8")).body if path.exists() else []
                defined[module] = [node.name for node in body if isinstance(node, ast.FunctionDef)]
            if not any(t == test or (star and t.startswith(test)) for t in defined[module]):
                stale.append(f"{name}: {module}::{test}{star}")
    assert stale == [], "allow-list reasons that name no test function"
