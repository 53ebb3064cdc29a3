"""Tests of the benchmark harness itself (not of twostate)."""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Request, Runner, load_reference  # noqa: E402


def request(workload: str, key: str) -> Request:
    return next(r for r in WORKLOADS[workload] if r.key == key)


def checked_runner(workload: str, tmp_path) -> Runner:
    return Runner(workload, ROOT, str(tmp_path), reference=load_reference(workload))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_request_matches_its_reference(workload, tmp_path):
    runner = checked_runner(workload, tmp_path)
    for req in WORKLOADS[workload]:
        if req.kind == "cold":  # same files as a fresh process, without the start-up cost
            req = Request("cli", req.key, req.argv, req.fmt)
        outcome = runner.execute(req, seed=12345)
        assert outcome.error is None, outcome.error


def test_tampered_output_counts_toward_error_rate(tmp_path, monkeypatch):
    from twostate import cli

    original = cli.write_text_atomic
    monkeypatch.setattr(cli, "write_text_atomic", lambda path, text: original(path, text.replace("1", "2")))
    runner = checked_runner("pointer_tables", tmp_path)
    outcomes = [runner.execute(request("pointer_tables", "run n_spin_single_system"), seed=1)]
    monkeypatch.setattr(cli, "write_text_atomic", original)
    outcomes.append(runner.execute(request("pointer_tables", "run n_spin_single_system"), seed=1))
    summary = worker._summary(outcomes)
    assert len(summary["latencies"]) == 2
    assert summary["failed"] == 1
    assert "!=" in summary["errors"][0]


def test_raising_request_counts_as_failed_not_dropped(tmp_path, monkeypatch):
    from twostate import protective
    from twostate.scenarios import ScenarioSpec

    def boom(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(ScenarioSpec, "run", boom)
    monkeypatch.setattr(protective, "protected_two_state_measurement", boom)
    runner = checked_runner("dense_eigen", tmp_path)
    outcomes = [
        runner.execute(request("dense_eigen", "run epr_product_rule"), seed=1),
        runner.execute(request("dense_eigen", "protected_two_state_measurement spin=20"), seed=1),
    ]
    summary = worker._summary(outcomes)
    assert len(summary["latencies"]) == 2 and summary["failed"] == 2
    assert all("injected fault" in error for error in summary["errors"])
    assert all(latency > 0 for latency in summary["latencies"])


def test_layer_self_times_sum_to_traced_wall_time(tmp_path):
    runner = checked_runner("dense_eigen", tmp_path)
    keys = ("run three_box", "run spin_cone samples=256", "run epr_product_rule", "protected_two_state_measurement spin=20")
    for key in keys:  # warm up untraced
        runner.execute(request("dense_eigen", key), seed=1)
    tracer = Tracer(str(tmp_path))
    tracer.install()
    runner.tracer = tracer
    try:
        outcomes = [runner.execute(request("dense_eigen", key), seed=1) for key in keys]
    finally:
        runner.tracer = None
        tracer.uninstall()
    assert all(o.error is None for o in outcomes)
    self_s, calls, _ = tracer.layer_times()
    wall = sum(o.latency for o in outcomes) - runner.request_pauses
    assert sum(self_s.values()) == pytest.approx(wall, rel=0.03)
    assert calls["harness"] == len(keys)
    assert max(self_s, key=self_s.get) in ("linalg", "protective")
    assert tracer.absent() == []
    metrics = tracer.metrics(len(keys))
    assert metrics["linalg.eig_repeat_ratio"][0] > 0  # three_box re-decomposes its projectors
    assert metrics["weak.cone_certified_ratio"][0] == 1.0


def test_uninstall_restores_the_program():
    from twostate import ideal, linalg, scenarios

    tracer = Tracer()
    tracer.install()
    assert ideal.hermitian_eigendecomposition is not linalg.hermitian_eigendecomposition
    tracer.uninstall()
    assert ideal.hermitian_eigendecomposition is linalg.hermitian_eigendecomposition
    assert "__wrapped__" not in vars(scenarios.ScenarioSpec.run)


def test_a_name_the_program_no_longer_has_is_reported_absent(monkeypatch):
    from twostate import scenarios

    monkeypatch.delattr(scenarios, "run_machine")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent() == ["timemachine.run_machine"]


def test_percentile_rule_leaves_ten_samples_above_p90():
    for n in (run.MIN_REQUESTS, 101, 137, 1000):
        values = [float(i) for i in range(n)]
        assert run.samples_above(values, 90) >= 10
    assert run.samples_above([float(i) for i in range(run.MIN_REQUESTS - 1)], 90) < 10
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_median_moves_smoothly_across_a_gap_between_request_kinds():
    fast, slow = [30.0] * 50, [40.0] * 50
    assert run.median(fast + slow) == pytest.approx(35.0)
    # one fast sample turning slow moves the median a little, not across the gap
    assert run.median(fast[1:] + slow + [40.0]) == pytest.approx(35.0, abs=1.0)
    assert run.median([1.0, 2.0, 3.0]) == pytest.approx(2.0)


def test_importtime_report_is_split_by_package():
    report = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       400 |        500 |     numpy",
            "import time:        50 |        550 |   twostate.linalg",
            "import time:        20 |         20 |         numpy.random",
            "import time:       300 |        320 |       scipy",
            "import time:        30 |        350 |     scipy.linalg",
            "import time:        10 |        360 |   twostate.scenarios",
            "import time:         5 |        915 | twostate.cli",
        ]
    )
    assert run.parse_importtime(report) == {
        "import.total_ms": 0.915,
        "import.numpy_ms": 0.5,
        "import.scipy_ms": 0.35,
        "import.twostate_ms": 0.065,
    }
