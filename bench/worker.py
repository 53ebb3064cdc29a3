"""One benchmark worker: a fresh interpreter that sets up, then measures.

Set-up is ``import twostate.cli`` plus one untimed warm-up pass over the
workload; the worker prints ``ready`` when it is done, so the parent can time
set-up from the spawn.  Mode ``measure`` runs the closed loop, one caller,
for whole passes until both the given length and the minimum request count
are reached; after each request it runs the calibration kernel (see
calibration.py), outside the timed window.  Mode ``trace`` runs half the
length untraced, half traced, then the scaling curves.  The worker prints
its findings as one ``result <json>`` line.

Usage: python3 bench/worker.py <workload> <seed> <seconds> <min requests> <measure|trace> <work dir>
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import statistics
import sys
import time

from calibration import NOMINAL_S, SETUP_CALIBRATION_RUNS, Calibration
from workloads import ROOT, LibraryCalls, Runner, load_reference, passes

# Measuring stops here even short of the minimum request count, to end within the run limit.
MAX_MEASURE_SECONDS = 40.0
CURVE_REPEATS = 3


def run_loop(runner: Runner, stream, seconds: float, min_requests: int, calibration: Calibration) -> list:
    """Closed loop over whole passes; returns the outcomes with their speed scales.

    A request's scale comes from the calibration runs just before and just
    after it, so it follows the machine's speed from one request to the next.
    """
    outcomes, before = [], []
    start = time.perf_counter()
    while True:
        for req, seed in next(stream):
            outcome = runner.execute(req, seed)
            after = calibration.after_request(outcome.latency)
            outcome.scale = NOMINAL_S / statistics.median(before + after)
            outcomes.append(outcome)
            before = after
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(outcomes) >= min_requests) or elapsed >= MAX_MEASURE_SECONDS:
            return outcomes


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cold_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _median_ms(fn, repeats: int = CURVE_REPEATS) -> tuple:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3, result


def scaling_curves() -> tuple:
    """Ungated scaling curves (ms, median of repeats) and any failed checks."""
    from twostate.scenarios import get_scenario

    curves, errors = {}, []
    for boxes in (20, 40, 80, 160):
        ms, result = _median_ms(lambda: get_scenario("n_box").run({"boxes": boxes}))
        curves[f"curve.n_box_ms.{boxes}"] = ms
        if not result.passed:
            errors.append(f"n_box boxes={boxes}: checks failed")
    library = LibraryCalls()
    for steps in (300, 1200, 2400):
        fn, args, checks = library.call(f"adiabatic_protective_measurement steps={steps}")
        ms, result = _median_ms(lambda: fn(*args))
        curves[f"curve.adiabatic_ms.{steps}"] = ms
        if not all(ok for _, ok in checks(result)):
            errors.append(f"adiabatic steps={steps}: checks failed")
    for n_terms in (13, 50, 100):
        ms, result = _median_ms(lambda: get_scenario("time_machine").run({"n_terms": n_terms}))
        curves[f"curve.time_machine_ms.{n_terms}"] = ms
        if not result.passed:
            errors.append(f"time_machine n_terms={n_terms}: checks failed")
    return curves, errors


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):  # the config layout varies across versions
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": blas_threads(),
    }


def _summary(outcomes: list) -> dict:
    return {
        "latencies": [o.latency for o in outcomes],
        "scaled": [o.latency * o.scale for o in outcomes],
        "failed": sum(o.error is not None for o in outcomes),
        "errors": [o.error for o in outcomes if o.error is not None][:5],
    }


def main(argv: list) -> int:
    workload, seed, seconds, min_requests, mode, work_dir = argv[0], argv[1], float(argv[2]), int(argv[3]), argv[4], argv[5]
    import twostate.cli  # noqa: F401  (set-up: the import is part of what is timed)

    runner = Runner(workload, ROOT, work_dir)
    stream = passes(workload, seed)
    for req, req_seed in next(stream):
        runner.execute(req, req_seed)
    print("ready", flush=True)
    calibration = Calibration()
    print(f"calibration {calibration.sample(SETUP_CALIBRATION_RUNS)!r}", flush=True)
    runner.reference = load_reference(workload)
    if mode == "measure":
        result = _summary(run_loop(runner, stream, seconds, min_requests, calibration))
    else:
        from tracing import Tracer

        untraced = run_loop(runner, stream, seconds / 2, min_requests, calibration)
        tracer = Tracer(work_dir)
        tracer.install()
        runner.tracer = tracer
        try:
            traced = run_loop(runner, stream, seconds / 2, min_requests, calibration)
        finally:
            runner.tracer = None
            tracer.uninstall()
        curves, curve_errors = scaling_curves()
        self_s, _, _ = tracer.layer_times()
        tracer.dump(os.path.join(os.path.dirname(work_dir), f"spans-{workload}.json"))
        result = _summary(untraced + traced)
        result["curve_errors"] = curve_errors
        result["layers"] = {k: list(v) for k, v in tracer.metrics(len(traced)).items()}
        result["curves"] = curves
        result["untraced_scaled"] = [o.latency * o.scale for o in untraced]
        result["traced_scaled"] = [o.latency * o.scale for o in traced]
        result["traced_self_s"] = sum(self_s.values())
        result["traced_wall_s"] = sum(o.latency for o in traced) - runner.request_pauses
        result["absent"] = tracer.absent()
    result["peak_rss_mb"] = peak_rss_mb(workload)
    result["env"] = environment()
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
