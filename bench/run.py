"""The twostate benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program under test is the checkout's
``src/twostate``, driven from outside: ``twostate.cli.main`` in-process,
``python -m twostate.cli`` as fresh processes, and the ``twostate.protective``
calls that no scenario reaches.  Workloads, requests and the output check are
in ``workloads.py``; see ``BENCHMARK.json`` for why each workload exists.

With ``--trace 0`` the run starts ``WORKERS`` fresh workers one after the
other.  Each sets up (spawn, import, one untimed warm-up pass), which gives
``setup_s`` as the median, then measures a share of the run over a closed loop
with one caller; the end-to-end metrics pool their requests.
With ``--trace 1`` one worker measures half the run untraced and half traced
and reports per-layer metrics, ``trace.overhead``, ``import.*`` from
``-X importtime`` and the scaling curves; the spans are left in
``.bench_work/spans-<workload>.json``.  BLAS runs single-threaded in every
process.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibration import NOMINAL_S, SETUP_CALIBRATION_RUNS, Calibration
from workloads import BENCH_DIR, PINNED_ENV, ROOT, WORKLOADS, child_env

# A run measures in this many fresh workers, a share of the run each, and
# reports the median (for two, the mean) of their set-up times; pooling the
# workers' samples also averages out what differs from one process to the
# next.  More workers would push the 92 runs of a full benchmark past its time
# budget: a cold_cli set-up alone runs eight fresh processes.
WORKERS = 2
# Ten samples above the nearest-rank 90th percentile need at least 100 samples.
MIN_REQUESTS = 100
IMPORT_REPEATS = 3
WORKER_TIMEOUT = 170.0


class WorkerFailed(RuntimeError):
    pass


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all order statistics.

    A workload mixes request kinds of very different cost, and with eight
    kinds in a pass the 50% point falls exactly between two of them.  A
    single order statistic there jumps across that gap from run to run; the
    weighted mean moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(weights @ x)


def samples_above(values: list, q: float) -> int:
    cut = percentile(values, q)
    return sum(v > cut for v in values)


def run_worker(workload: str, seed: str, seconds: float, min_requests: int, mode: str, work_dir: str, env: dict) -> tuple:
    """(set-up seconds, speed-scaled set-up seconds, result) of one fresh worker process.

    The set-up is scaled by the mean of two calibrations: one here just
    before the spawn and one in the worker just after its set-up.
    """
    before = Calibration().sample(SETUP_CALIBRATION_RUNS)
    args = [workload, seed, str(seconds), str(min_requests), mode, work_dir]
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    ready, calibration, result = None, None, None
    try:
        for line in proc.stdout:
            if line == "ready\n" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("calibration "):
                calibration = float(line.split()[1])
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
        rc = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready is None or calibration is None or result is None:
        raise WorkerFailed(f"worker {mode} exited with {rc}")
    return ready, ready * NOMINAL_S / ((before + calibration) / 2), result


def parse_importtime(text: str) -> dict:
    """import.* metrics (ms) from the -X importtime report of `import twostate.cli`.

    numpy and scipy are the cumulative times of their outermost modules; the
    numpy modules that scipy pulls in count for scipy.  twostate is the self
    time of the package's own modules; total is the whole import.
    """
    nodes = []  # post-order: (depth, name, self_us, cumulative_us)
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        nodes.append((depth, name.strip(), int(head.split(":")[1]), int(cumulative)))
    totals = {"total": 0, "numpy": 0, "scipy": 0, "twostate": 0}
    stack: list = []
    for depth, name, self_us, cumulative_us in reversed(nodes):  # parents before children
        del stack[depth:]
        top = name.split(".")[0]
        if depth == 0 and top == "twostate":
            totals["total"] += cumulative_us
        if top in ("numpy", "scipy") and not any(a.split(".")[0] in ("numpy", "scipy") for a in stack):
            totals[top] += cumulative_us
        if top == "twostate":
            totals["twostate"] += self_us
        stack.append(name)
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}


def import_metrics(env: dict) -> dict:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twostate.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {k: (statistics.median(r[k] for r in runs), "ms") for k in runs[0]}


def end_to_end(workload: str, seed: int, seconds: float, work_dir: str, env: dict) -> tuple:
    raw_setups, setups, results = [], [], []
    for i in range(WORKERS):
        done = sum(len(r["latencies"]) for r in results)
        share = math.ceil(max(MIN_REQUESTS - done, 0) / (WORKERS - i))
        raw, scaled, part = run_worker(workload, f"{seed}.{i}", seconds / WORKERS, share, "measure", work_dir, env)
        raw_setups.append(raw)
        setups.append(scaled)
        results.append(part)
    result = {
        "latencies": [x for r in results for x in r["latencies"]],
        "scaled": [x for r in results for x in r["scaled"]],
        "failed": sum(r["failed"] for r in results),
        "errors": [e for r in results for e in r["errors"]][:5],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "env": results[-1]["env"],
    }
    lat, raw = result["scaled"], result["latencies"]
    completed = len(lat) - result["failed"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (completed / sum(lat), "1/s"),
        "latency_ms_p50": (median(lat) * 1e3, "ms"),
        "latency_ms_p90": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "error_rate": (result["failed"] / len(lat), "ratio"),
        "samples": (len(lat), "requests"),
        "samples_above_p90": (samples_above(lat, 90), "requests"),
        "raw setup_s runs": (", ".join(f"{s:.3f}" for s in raw_setups), "s"),
        "raw requests_per_s": (completed / sum(raw), "1/s"),
        "raw latency_ms_p50": (median(raw) * 1e3, "ms"),
        "raw latency_ms_p90": (percentile(raw, 90) * 1e3, "ms"),
        "mean speed scale": (statistics.fmean(s / r for s, r in zip(lat, raw)), ""),
    }
    return result, metrics, notes


def traced(workload: str, seed: int, seconds: float, work_dir: str, env: dict) -> tuple:
    _, _, result = run_worker(workload, str(seed), seconds, 1, "trace", work_dir, env)
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    metrics.update(import_metrics(env))
    untraced_rps = len(result["untraced_scaled"]) / sum(result["untraced_scaled"])
    traced_rps = len(result["traced_scaled"]) / sum(result["traced_scaled"])
    metrics["trace.overhead"] = (1.0 - traced_rps / untraced_rps, "ratio")
    metrics.update({k: (v, "ms") for k, v in result["curves"].items()})
    notes = {
        "traced_requests": (len(result["traced_scaled"]), "requests"),
        "self_time_sum_s": (result["traced_self_s"], "s"),
        "traced_wall_s": (result["traced_wall_s"], "s"),
        "absent": (", ".join(result["absent"]) or "none", ""),
    }
    return result, metrics, notes


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twostate", "cli.py")):
        print(f"error: no twostate sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = child_env(ROOT)
    os.environ.update(PINNED_ENV)  # this process calibrates too
    run = traced if args.trace else end_to_end
    try:
        result, metrics, notes = run(args.workload, args.seed, args.seconds, work_dir, env)
    except (WorkerFailed, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = len(result["latencies"]), result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(result["env"], sort_keys=True))
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"  {name:<34} {value:>14} {unit}" if isinstance(value, str) else f"  {name:<34} {value:>14.6g} {unit}")
    for error in result["errors"] + result.get("curve_errors", []):
        print(f"  failed: {error}")
    print(json.dumps({
        "correct": failed == 0 and not result.get("curve_errors"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
