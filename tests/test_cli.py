import json
import math
import os
import stat
import subprocess
import sys
import warnings

import pytest

from twostate import cli
from twostate.cli import main
from twostate.errors import ValidationError
from twostate.reporting import csv_table, format_float, write_text_atomic
from twostate.scenarios import REGISTRY, ParamSpec, ScenarioResult, ScenarioSpec, get_scenario


def run_cli(*argv):
    return main(list(argv))


def test_list_shows_all_scenarios(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 8
    names = [line.split()[0] for line in out]
    assert names == sorted(names)
    assert "three_box" in names


def test_list_filter_can_match_nothing(capsys):
    assert run_cli("list", "--filter", "zzz") == 0
    assert capsys.readouterr().out == ""


def test_run_three_box_writes_results(tmp_path, capsys):
    code = run_cli("run", "three_box", "--out", str(tmp_path), "--seed", "0")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("three_box:")
    payload = json.loads((tmp_path / "three_box" / "results.json").read_text())
    assert payload["passed"] is True
    assert payload["results"]["prob_box1"] == 1
    assert payload["results"]["prob_box2"] == 1
    assert payload["results"]["weak_values"]["P3"][0] == -1


def test_run_unknown_scenario_is_a_usage_error(capsys):
    assert run_cli("run", "mystery") == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_unknown_parameter_names_the_key(tmp_path, capsys):
    code = run_cli("run", "three_box", "--param", "bogus=1", "--out", str(tmp_path))
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_run_bad_parameter_value_is_a_usage_error(tmp_path, capsys):
    code = run_cli("run", "n_box", "--param", "boxes=many", "--out", str(tmp_path))
    assert code == 2
    assert "boxes" in capsys.readouterr().err


def test_run_spin_xi_emits_the_figure_table(tmp_path, capsys):
    code = run_cli(
        "run", "spin_xi_weak", "--param", "delta=10", "--param", "postselect=true",
        "--out", str(tmp_path), "--seed", "0",
    )
    assert code == 0
    table = (tmp_path / "spin_xi_weak" / "fig3e.csv").read_text().strip().split("\n")
    assert table[0] == "Q,probability"
    best_q, best_p = 0.0, -1.0
    for line in table[1:]:
        q, p = map(float, line.split(","))
        if p > best_p:
            best_q, best_p = q, p
    assert abs(best_q - math.sqrt(2)) <= 0.05


def test_runs_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("run", "spin_xi_weak", "--out", str(out), "--seed", "7") == 0
    for name in ("results.json", "fig3e.csv", "fig3e_momentum.csv"):
        a = (out_a / "spin_xi_weak" / name).read_bytes()
        b = (out_b / "spin_xi_weak" / name).read_bytes()
        assert a == b
    assert b"\r" not in (out_a / "spin_xi_weak" / "results.json").read_bytes()


def test_format_selects_outputs(tmp_path, capsys):
    assert run_cli("run", "spin_xi_weak", "--out", str(tmp_path / "j"), "--format", "json") == 0
    assert (tmp_path / "j" / "spin_xi_weak" / "results.json").exists()
    assert not (tmp_path / "j" / "spin_xi_weak" / "fig3e.csv").exists()
    assert run_cli("run", "spin_xi_weak", "--out", str(tmp_path / "c"), "--format", "csv") == 0
    assert not (tmp_path / "c" / "spin_xi_weak" / "results.json").exists()
    assert (tmp_path / "c" / "spin_xi_weak" / "fig3e.csv").exists()


def _format_only(monkeypatch, first_column):
    """Make csv_table, wherever a twostate module binds it, raise for any table but one."""
    def guarded(header, columns):
        if header[0] != first_column:
            raise AssertionError(f"formatted a table that is not written: {header}")
        return csv_table(header, columns)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "twostate" and hasattr(module, "csv_table"):
            monkeypatch.setattr(module, "csv_table", guarded)


def test_json_runs_and_sweeps_format_no_figure_table(tmp_path, capsys, monkeypatch):
    _format_only(monkeypatch, first_column=None)
    assert run_cli("run", "spin_xi_weak", "--format", "json", "--out", str(tmp_path)) == 0
    assert os.listdir(tmp_path / "spin_xi_weak") == ["results.json"]
    # the sweep's own table goes through the one writer; the figure tables never do
    _format_only(monkeypatch, first_column="n_terms")
    assert run_cli(
        "sweep", "time_machine", "--param-name", "n_terms", "--values", "13,20", "--out", str(tmp_path)
    ) == 0
    assert os.listdir(tmp_path / "time_machine") == ["sweep_n_terms.csv"]


def _spy_on_deferred_work(monkeypatch) -> list:
    """Record each fourier_pair call, wherever a twostate module binds it, and each table builder call."""
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "twostate" and hasattr(module, "fourier_pair"):
            monkeypatch.setattr(module, "fourier_pair", spy("fourier_pair", module.fourier_pair))
    run = ScenarioSpec.run

    def spied_run(self, overrides=None, seed=0):
        result = run(self, overrides, seed)
        tables = {filename: spy(filename, build) for filename, build in result.tables.items()}
        return ScenarioResult(result.name, result.params, result.summary_line, result.results, tables, result.checks)

    monkeypatch.setattr(ScenarioSpec, "run", spied_run)
    return calls


def test_json_runs_and_sweeps_build_no_table_and_transform_no_pointer(tmp_path, capsys, monkeypatch):
    calls = _spy_on_deferred_work(monkeypatch)
    for scenario in ("spin_xi_weak", "n_spin_single_system", "negative_kinetic_energy"):
        assert run_cli("run", scenario, "--format", "json", "--out", str(tmp_path)) == 0
    # the two sweeps of the benchmark's `sweep` workload
    assert run_cli("sweep", "spin_xi_weak", "--param-name", "delta", "--values", "0.1,0.25,1,3,10",
                   "--out", str(tmp_path)) == 0
    assert run_cli("sweep", "time_machine", "--param-name", "n_terms", "--values", "13,20,40,60",
                   "--out", str(tmp_path)) == 0
    assert calls == []
    # the spies see what a CSV run does build
    assert run_cli("run", "spin_xi_weak", "--format", "csv", "--out", str(tmp_path)) == 0
    assert calls == ["fig3e.csv", "fig3e_momentum.csv", "fourier_pair"]


def test_a_table_builder_that_raises_leaves_no_file(tmp_path, capsys, monkeypatch):
    run = ScenarioSpec.run

    def refuse():
        raise ValidationError("injected refusal")

    def run_with_a_failing_table(self, overrides=None, seed=0):
        result = run(self, overrides, seed)
        result.tables["fig3e_momentum.csv"] = refuse  # sorts after results.json and fig3e.csv
        return result

    monkeypatch.setattr(ScenarioSpec, "run", run_with_a_failing_table)
    assert run_cli("run", "spin_xi_weak", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: injected refusal\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "scenario, param",
    [
        ("spin_xi_weak", "delta=1e-300"),
        ("n_spin_single_system", "delta=1e-300"),
        ("negative_kinetic_energy", "pointer_delta=1e-300"),
        ("time_machine", "width=1e-300"),
        ("time_machine", "width=1e300"),
        ("spin_xi_weak", "delta=1e300"),
    ],
)
def test_widths_whose_square_leaves_the_float_range_are_refused(scenario, param, tmp_path, capsys):
    # the Gaussian normalization (pi * D**2)**-0.25 divided by zero or overflowed here: exit 3
    assert run_cli("run", scenario, "--param", param, "--out", str(tmp_path)) == 2
    width = float(param.split("=")[1])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"width {width} lies outside" in err
    assert not any(tmp_path.iterdir())


def unwanted_modules_around_a_cli_run(argv, tmp_path):
    """[after import, exit code, after the run]: the unwanted modules and dataclasses loaded in a fresh process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
import json, sys, twostate.cli

def loaded():
    unwanted = ("scipy", "fractions", "decimal")
    modules = sorted(m for m in sys.modules if m.split(".")[0] in unwanted or m == "twostate.protective")
    classes = [
        f"{{name}}.{{attr}}"
        for name, module in list(sys.modules.items()) if name.startswith("twostate")
        for attr, obj in vars(module).items() if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")
    ]
    return modules + classes

after_import = loaded()
exit_code = twostate.cli.main(["run", *{argv!r}, "--out", {str(tmp_path)!r}])
print(json.dumps([after_import, exit_code, loaded()]))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    # nor the protective module, which no scenario runs; nor fractions and decimal, which only the time machine's
    # schedule needs; and no class of the package is a dataclass, whose methods a cold import would compile
    assert unwanted_modules_around_a_cli_run(["three_box"], tmp_path) == [[], 0, []]


def test_writing_csv_tables_leaves_scipy_fractions_and_decimal_unloaded(tmp_path):
    # the float cells' power-of-ten table is made from Python integers alone
    argv = ["spin_xi_weak", "--format", "both"]
    assert unwanted_modules_around_a_cli_run(argv, tmp_path) == [[], 0, []]
    assert sorted(os.listdir(tmp_path / "spin_xi_weak")) == ["fig3e.csv", "fig3e_momentum.csv", "results.json"]


def test_a_time_machine_run_leaves_fractions_and_decimal_unloaded(tmp_path):
    # the register's square sum comes from a float recurrence: no exact rational is built
    argv = ["time_machine", "--format", "both"]
    assert unwanted_modules_around_a_cli_run(argv, tmp_path) == [[], 0, []]
    assert sorted(os.listdir(tmp_path / "time_machine")) == ["fig5.csv", "results.json"]


def _child_cli(argv: list, timeout: float = 3.0) -> subprocess.CompletedProcess:
    """`twostate <argv>` in a fresh process, its output captured; TimeoutExpired if it still runs after `timeout` s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "twostate.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


def test_n_terms_above_its_maximum_exits_2_before_any_compute(tmp_path):
    # with no maximum, eta = 0.5 runs at any register size, its cost linear in n_terms
    proc = _child_cli(["run", "time_machine", "--param", "eta=0.5", "--param", "n_terms=1000001", "--out", str(tmp_path)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: parameter 'n_terms' is at most 1000000, got 1000001\n"
    assert not any(tmp_path.iterdir())


def test_each_main_call_in_one_process_shows_its_own_warnings(tmp_path):
    # Python shows a warning once per code location in a process unless its filters change in between
    code = f"""
import twostate.cli
for _ in range(2):
    twostate.cli.main(["run", "time_machine", "--param", "delta_t=1e4", "--out", {str(tmp_path)!r}])
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stderr.count("UserWarning: input spectrum extends beyond a quarter of the Nyquist rate") == 2


def test_a_main_call_keeps_the_callers_warning_filters(monkeypatch, capsys):
    # a RuntimeWarning the caller makes an error (as tier-1 does) is still one inside `main`: exit 3, not a warning
    def warn(params):
        warnings.warn("overflow in a runner", RuntimeWarning)

    monkeypatch.setitem(REGISTRY, "three_box", ScenarioSpec("three_box", "warns", (), warn))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("run", "three_box") == 3
    assert capsys.readouterr().err == "internal error: RuntimeWarning: overflow in a runner\n"


def test_environment_variable_sets_the_default_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TWOSTATE_OUT_DIR", str(tmp_path / "from-env"))
    assert run_cli("run", "three_box", "--seed", "0") == 0
    assert (tmp_path / "from-env" / "three_box" / "results.json").exists()


def test_config_file_supplies_params_and_flags_override(tmp_path, capsys):
    config = tmp_path / "request.json"
    config.write_text(json.dumps({"params": {"boxes": 7}, "seed": 5}))
    assert run_cli("run", "n_box", "--config", str(config), "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "n_box" / "results.json").read_text())
    assert payload["params"]["boxes"] == 7
    assert payload["params"]["seed"] == 5

    assert run_cli(
        "run", "n_box", "--config", str(config), "--param", "boxes=4", "--out", str(tmp_path)
    ) == 0
    payload = json.loads((tmp_path / "n_box" / "results.json").read_text())
    assert payload["params"]["boxes"] == 4


def test_sweep_traces_the_strong_to_weak_crossover(tmp_path, capsys):
    code = run_cli(
        "sweep", "spin_xi_weak", "--param-name", "delta",
        "--values", "0.1,0.25,1,3,10", "--out", str(tmp_path), "--seed", "0",
    )
    assert code == 0
    lines = (tmp_path / "spin_xi_weak" / "sweep_delta.csv").read_text().strip().split("\n")
    assert len(lines) == 6
    header = lines[0].split(",")
    assert header[0] == "delta"
    peak_col = header.index("pointer.peak")
    peaks = [float(line.split(",")[peak_col]) for line in lines[1:]]
    assert abs(peaks[0] - 1.0) <= 0.02  # strong coupling pins the eigenvalue
    assert abs(peaks[-1] - math.sqrt(2)) <= 0.05  # weak coupling reads the weak value


def test_sweep_single_value_matches_run(tmp_path, capsys):
    assert run_cli(
        "sweep", "n_box", "--param-name", "boxes", "--values", "6", "--out", str(tmp_path / "s"),
    ) == 0
    assert run_cli("run", "n_box", "--param", "boxes=6", "--out", str(tmp_path / "r")) == 0
    sweep_lines = (tmp_path / "s" / "n_box" / "sweep_boxes.csv").read_text().strip().split("\n")
    payload = json.loads((tmp_path / "r" / "n_box" / "results.json").read_text())
    header = sweep_lines[0].split(",")
    row = sweep_lines[1].split(",")
    col = header.index("prob_last_box_occupied")
    assert float(row[col]) == pytest.approx(payload["results"]["prob_last_box_occupied"], rel=1e-15, abs=0)


def test_sweep_columns_do_not_depend_on_the_order_of_the_values(tmp_path, capsys):
    # time_machine reports amplitude_decay_per_step only where the amplitudes decay (eta = 2, not 0.5)
    rows = {}
    for order in ("0.5,2", "2,0.5"):
        out = tmp_path / order
        assert run_cli("sweep", "time_machine", "--param-name", "eta", "--values", order, "--out", str(out)) == 0
        header, *lines = (out / "time_machine" / "sweep_eta.csv").read_text().strip().split("\n")
        rows[order] = {line.split(",")[0]: dict(zip(header.split(","), line.split(","))) for line in lines}
    assert rows["0.5,2"] == rows["2,0.5"]
    assert float(rows["0.5,2"]["2"]["amplitude_decay_per_step"]) == pytest.approx(0.32797096795125835, rel=1e-15, abs=0)
    assert rows["0.5,2"]["0.5"]["amplitude_decay_per_step"] == "None"


def test_a_sweep_value_outside_the_domain_is_refused_before_the_first_run(tmp_path, capsys):
    argv = ["sweep", "n_box", "--param-name", "boxes", "--values", "3,4,100001", "--out", str(tmp_path)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parameter 'boxes' is at most 100000, got 100001\n"
    assert not any(tmp_path.iterdir())


def test_a_sweep_refuses_a_fixed_override_of_its_swept_parameter(tmp_path, capsys):
    argv = ["sweep", "spin_xi_weak", "--param-name", "delta", "--values", "1,3", "--param", "delta=5",
            "--out", str(tmp_path)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parameter 'delta' is swept; it cannot also be fixed with --param\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, key",
    [
        (["run", "n_box", "--param", "boxes=4", "--param", "boxes=9"], "boxes"),
        (["run", "n_box", "--param", "boxes=4", "--param", " boxes = 4"], "boxes"),  # equal values, spaced key
        (["sweep", "spin_xi_weak", "--param-name", "delta", "--values", "10",
          "--param", "ensemble=10", "--param", "ensemble=20"], "ensemble"),
    ],
)
def test_a_parameter_given_twice_with_param_is_refused(argv, key, tmp_path, capsys):
    # the last value used to win silently: boxes=9 ran 9 boxes, and the sweep ran an ensemble of 20
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter {key!r} is given more than once with --param\n"
    assert not any(tmp_path.iterdir())


def test_list_shows_each_declared_domain(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    assert "boxes:int=5 [3, 100000]" in out
    assert f"chi:float={math.pi / 8} (0, {math.pi / 2})" in out


def test_sweep_rejects_unknown_or_non_numeric_parameters(tmp_path, capsys):
    assert run_cli("sweep", "spin_xi_weak", "--param-name", "nope", "--values", "1,2") == 2
    assert run_cli("sweep", "spin_xi_weak", "--param-name", "postselect", "--values", "1,2") == 2


def test_float_formatting_is_round_trippable():
    for value in (0.1, 1 / 3, math.sqrt(2), 1e-300, -2.5e17):
        assert float(format_float(value)) == value


def test_unknown_flag_is_a_usage_error(capsys):
    assert run_cli("list", "--bogus") == 2
    assert run_cli("run") == 2  # missing scenario name


@pytest.mark.parametrize(
    "param", ["n_terms=120", "n_terms=250", "n_terms=400", "eta=nan", "delta_t=-1", "n_terms=0", "width=-1"]
)
def test_time_machine_inputs_it_cannot_compute_are_refused(param, tmp_path, capsys):
    assert run_cli("run", "time_machine", "--param", param, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if param.startswith("width"):
        assert "width" in err  # not the empty grid a negative width would make
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "content",
    [None, "[1, 2]", '{"params": [1]}', '{"seed": 5.5}', '{"seed": "five"}', '{"params": {"boxes": Infinity}}'],
    ids=["directory", "array", "params-array", "fractional-seed", "text-seed", "infinite-int"],
)
def test_config_files_that_are_not_requests_are_refused(content, tmp_path, capsys):
    config = tmp_path / "request.json"
    if content is None:
        config.mkdir()
    else:
        config.write_text(content)
    assert run_cli("run", "n_box", "--config", str(config), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, request_json, refused",
    [
        ("n_spin_single_system", '{"params": {"spins": true}}', "parameter 'spins' expects int, got True"),
        ("spin_xi_weak", '{"params": {"delta": true}}', "parameter 'delta' expects float, got True"),
        ("n_box", '{"params": {"boxes": false}}', "parameter 'boxes' expects int, got False"),
        ("n_box", '{"seed": true}', "parameter 'seed' expects int, got True"),
    ],
    ids=["int-param", "float-param", "false-int-param", "seed"],
)
def test_a_json_boolean_is_refused_as_a_number(scenario, request_json, refused, tmp_path, capsys):
    config = tmp_path / "request.json"
    config.write_text(request_json)
    assert run_cli("run", scenario, "--config", str(config), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {refused}\n"
    assert not (tmp_path / "out").exists()

    config.write_text('{"params": {"postselect": false}}')  # a bool parameter still takes one
    assert run_cli("run", "spin_xi_weak", "--config", str(config), "--format", "json", "--out", str(tmp_path)) == 0


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--seed", "-1"], None),
        (["--config", "request.json"], b'{"seed": -1}'),
        (["--config", "request.json"], b'\xff\xfe{"params": {}}'),
    ],
    ids=["negative-seed-flag", "negative-seed-in-config", "config-not-utf8"],
)
def test_seeds_and_config_bytes_it_cannot_use_are_refused(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "request.json").write_bytes(config)
    assert run_cli("run", "spin_xi_weak", *argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_particles", ["0", "-1"])
def test_three_box_without_particles_is_a_usage_error(n_particles, tmp_path, capsys):
    assert run_cli("run", "three_box", "--param", f"n_particles={n_particles}", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == f"error: parameter 'n_particles' is at least 1, got {n_particles}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sites", ["1", "0", "-5"])
def test_negative_kinetic_energy_below_two_sites_is_a_usage_error(sites, tmp_path, capsys):
    assert run_cli("run", "negative_kinetic_energy", "--param", f"sites={sites}", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: parameter 'sites' is at least 2, got {sites}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "params, message",
    [
        # this one exited 0, its pointer post-selected at the coarse lattice's edge, 20, as if postselect_x were 19
        (["well_depth=0.05", "postselect_x=30"], "parameter 'postselect_x' must be below 20, got 30.0"),
        (["postselect_x=100"], "parameter 'postselect_x' must be below 20, got 100.0"),
        # these exited 1 on bound_state_exists: the lattice held a free particle
        (["well_half_width=0.01"], "a well of half width 0.01 holds no site of the 2048-site lattice"),
        (["well_half_width=1e-300"], "a well of half width 1e-300 holds no site of the 2048-site lattice"),
        (["well_half_width=-1", "postselect_x=0"], "a well of half width -1.0 holds no site of the 2048-site lattice"),
        # these exited 1 on bound_state_exists and pointer_shift_negative: a well of depth 0 or less binds nothing
        (["well_depth=0"], "parameter 'well_depth' must be above 0, got 0.0"),
        (["well_depth=-5"], "parameter 'well_depth' must be above 0, got -5.0"),
    ],
    ids=[
        "postselect-30",
        "postselect-100",
        "half-width-0.01",
        "half-width-1e-300",
        "half-width-negative",
        "depth-0",
        "depth-negative",
    ],
)
def test_negative_kinetic_energy_refuses_what_its_lattices_cannot_hold(params, message, tmp_path, monkeypatch, capsys):
    import scipy.linalg

    def solves(*args, **kwargs):
        raise AssertionError("the refused request reached the solve")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", solves)
    argv = [x for p in params for x in ("--param", p)]
    assert run_cli("run", "negative_kinetic_energy", *argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [["run", "three_box"], ["sweep", "n_box", "--param-name", "boxes", "--values", "3,4"]],
    ids=["run", "sweep"],
)
def test_an_unexpected_exception_is_an_internal_error(argv, tmp_path, monkeypatch, capsys):
    # exit 1 would claim a physics self-check failed
    def faulty(self, overrides=None, seed=0):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(ScenarioSpec, "run", faulty)
    assert run_cli(*argv, "--out", str(tmp_path)) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: injected fault\n"


@pytest.mark.parametrize("param", ["well_depth=nan", "well_depth=inf", "well_depth=-inf", "well_half_width=nan"])
def test_non_finite_float_parameters_are_refused(param, tmp_path, capsys):
    assert run_cli("run", "negative_kinetic_energy", "--param", param, "--out", str(tmp_path)) == 2
    name, value = param.split("=")
    assert capsys.readouterr().err == f"error: parameter {name!r} expects float, got {value!r}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "scenario, param, message",
    [
        ("n_spin_single_system", "delta=1e-9", "pointer width 1e-09 is below 2 grid spacings, 0.000977"),
        ("spin_xi_weak", "delta=3e-4", "pointer width 0.0003 is below 2 grid spacings, 0.000979"),
        # narrower still, the selected amplitude underflows first, and that refusal keeps its message
        ("spin_xi_weak", "delta=1e-9", "projected pointer amplitude vanishes on the grid"),
        ("negative_kinetic_energy", "pointer_delta=1e-9", "projected pointer amplitude vanishes on the grid"),
    ],
    ids=["n_spin-1e-9", "spin_xi-3e-4", "spin_xi-1e-9-vanishes", "negative_kinetic-1e-9-vanishes"],
)
def test_pointers_the_grid_cannot_resolve_are_refused(scenario, param, message, tmp_path, capsys):
    assert run_cli("run", scenario, "--param", param, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_a_hundred_spins_are_not_refused_as_a_vanishing_amplitude(tmp_path):
    # the pointer's squared norm is about 1e-30 by nature here, below the 1e-20 post-selection floor
    assert run_cli("run", "n_spin_single_system", "--param", "spins=100", "--out", str(tmp_path)) == 0


@pytest.mark.parametrize(
    "argv",
    [["run", "epr_product_rule"], ["sweep", "n_box", "--param-name", "boxes", "--values", "3,4"]],
    ids=["run", "sweep"],
)
def test_outputs_that_cannot_be_written_are_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "a-regular-file"
    out.write_text("")
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "scenario, name, cap",
    [
        ("spin_xi_weak", "ensemble", 10**6),
        ("n_box", "boxes", 100_000),
        ("spin_cone", "samples", 100_000),
        # lower bounds, and the exclusive bounds of floats
        ("three_box", "n_particles", 1),
        ("n_box", "boxes", 3),
        ("negative_kinetic_energy", "sites", 2),
        ("spin_cone", "samples", 8),
        ("n_spin_single_system", "spins", 1),
        ("spin_xi_weak", "ensemble", 1),
        ("time_machine", "n_terms", 1),
        ("spin_cone", "chi", 0),
        ("spin_cone", "chi", math.pi / 2),
        ("spin_xi_weak", "delta", 0),
        ("n_spin_single_system", "delta", 0),
        ("negative_kinetic_energy", "pointer_delta", 0),
        ("negative_kinetic_energy", "well_depth", 0),
        ("time_machine", "width", 0),
        # the post-selection point lies on the coarse pointer lattice, which spans +-20
        ("negative_kinetic_energy", "postselect_x", -20),
        ("negative_kinetic_energy", "postselect_x", 20),
    ],
)
def test_sizes_above_their_cap_are_refused_before_any_compute(scenario, name, cap, tmp_path, monkeypatch, capsys):
    def computes(params, seed):
        raise AssertionError("a value outside the domain reached the scenario")

    spec = get_scenario(scenario)
    monkeypatch.setitem(REGISTRY, scenario, ScenarioSpec(spec.name, spec.summary, spec.params, computes))
    param = {p.name: p for p in spec.params}[name]
    upper = cap == param.max
    if param.kind == "int":  # an int's bounds are inclusive
        assert param.coerce(str(cap)) == cap
        outside = (cap + 1, 10**12) if upper else (cap - 1, -(10**12))
        words = "is at most" if upper else "is at least"
    else:  # a float's are exclusive
        inside = math.nextafter(cap, -math.inf if upper else math.inf)
        assert param.coerce(repr(inside)) == inside
        outside = (float(cap), math.nextafter(cap, math.inf if upper else -math.inf), 1e300 if upper else -1e300)
        words = "must be below" if upper else "must be above"
    for value in outside:
        assert run_cli("run", scenario, "--param", f"{name}={value!r}", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: parameter {name!r} {words} {cap}, got {value}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("boxes", [2360, 10_000, 20_000])
def test_n_box_weak_value_sum_is_checked_at_its_own_round_off(boxes, tmp_path, capsys):
    # (n-1) + Re(P_n)_w - 1 rounds off as n**2 * eps: 1.8e-8 at 10,000 boxes, above a flat 1e-9
    assert run_cli("run", "n_box", "--param", f"boxes={boxes}", "--format", "json", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "n_box" / "results.json").read_text())
    assert payload["passed"] is True
    assert payload["checks"]["weak_values_sum_to_one"] is True


def _checked_stand_in(monkeypatch) -> None:
    """Register `checked`, whose check `x_is_not_2` fails for x = 2 only; it writes results.json and one table."""

    def runner(params):
        checks = [("always_holds", True), ("x_is_not_2", params["x"] != 2)]
        tables = {"x.csv": lambda: (["x"], [[params["x"]]])}
        return ScenarioResult("checked", params, f"checked: x={params['x']}", {"x": params["x"]}, tables, checks)

    spec = ScenarioSpec("checked", "a stand-in with a failing check", (ParamSpec("x", "int", 2),), runner)
    monkeypatch.setitem(REGISTRY, "checked", spec)


def test_a_failed_check_exits_1_names_the_check_and_still_writes_the_files(tmp_path, monkeypatch, capsys):
    _checked_stand_in(monkeypatch)
    assert run_cli("run", "checked", "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == "numerical checks failed: x_is_not_2\n"
    assert sorted(p.name for p in (tmp_path / "checked").iterdir()) == ["results.json", "x.csv"]
    payload = json.loads((tmp_path / "checked" / "results.json").read_text())
    assert payload["passed"] is False and payload["checks"] == {"always_holds": True, "x_is_not_2": False}
    assert run_cli("run", "checked", "--param", "x=3", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""


def test_a_sweep_exits_1_when_any_value_fails_its_checks(tmp_path, monkeypatch, capsys):
    _checked_stand_in(monkeypatch)
    assert run_cli("sweep", "checked", "--param-name", "x", "--values", "1,3", "--out", str(tmp_path)) == 0
    assert run_cli("sweep", "checked", "--param-name", "x", "--values", "1,2,3", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == ""
    assert (tmp_path / "checked" / "sweep_x.csv").read_text() == "x\n1\n2\n3\n"


def test_a_param_override_without_an_equals_sign_is_a_usage_error(tmp_path, capsys):
    assert run_cli("run", "three_box", "--param", "n_particles", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: parameter override 'n_particles' must look like key=value\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("values", ["", ",", " , ,"])
def test_a_sweep_without_values_is_a_usage_error(values, tmp_path, capsys):
    assert run_cli("sweep", "n_box", "--param-name", "boxes", "--values", values, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: no sweep values supplied\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_every_file_a_run_writes_has_the_mode_a_plain_open_gives(umask, tmp_path, capsys):
    previous = os.umask(umask)
    try:
        assert run_cli("run", "spin_xi_weak", "--format", "both", "--out", str(tmp_path)) == 0
    finally:
        os.umask(previous)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "spin_xi_weak").iterdir()}
    assert "results.json" in modes and len(modes) > 1 and not any(name.startswith(".tmp-") for name in modes)
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


def test_a_write_that_fails_midway_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(str(tmp_path / "results.json"), "{}\n\ud800")  # a lone surrogate has no UTF-8 form
    assert list(tmp_path.iterdir()) == []


def test_a_write_whose_rename_fails_leaves_no_temporary_file_and_exits_2(tmp_path, capsys):
    # os.replace cannot put a file over a directory: the temporary file is removed and the OSError raised
    target = tmp_path / "three_box" / "results.json"
    target.mkdir(parents=True)
    with pytest.raises(OSError):
        write_text_atomic(str(target), "{}\n")
    assert [p.name for p in (tmp_path / "three_box").iterdir()] == ["results.json"]
    assert run_cli("run", "three_box", "--format", "json", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in (tmp_path / "three_box").iterdir()] == ["results.json"] and target.is_dir()
