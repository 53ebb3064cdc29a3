"""Workloads of the twostate benchmark: their requests, how each request is
executed, and how its output is checked against the recorded reference.

A request is one CLI invocation (in-process through ``twostate.cli.main`` or
as a fresh ``python -m twostate.cli`` process) or one library call into
``twostate.protective``.  A pass runs every request of a workload once; the
workload seed orders each pass and sets each request's ``--seed``.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)  # the checkout whose src/twostate is measured
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# Relative tolerance and absolute floor of the output check.
RTOL = 1e-9
ATOL = 1e-12

# Output fields that depend on the request seed.  The scenario's own checks
# (exit code 0, "passed": true) hold them instead of the reference.
SEED_DEPENDENT_PREFIXES = ("params.seed", "results.ensemble.", "ensemble.")


@dataclass(frozen=True)
class Request:
    kind: str  # "cli" in-process, "cold" fresh process, "lib" library call
    key: str  # the request without its seed; names its reference entry
    argv: tuple = ()
    fmt: str = ""  # --format of a "run" request


def _run(kind: str, scenario: str, *params: str, fmt: str) -> Request:
    argv = ("run", scenario) + tuple(x for p in params for x in ("--param", p)) + ("--format", fmt)
    return Request(kind, " ".join(("run", scenario) + params), argv, fmt)


def _sweep(scenario: str, name: str, values: str) -> Request:
    argv = ("sweep", scenario, "--param-name", name, "--values", values)
    return Request("cli", " ".join(argv), argv)


SCENARIOS = (
    "epr_product_rule",
    "n_box",
    "negative_kinetic_energy",
    "n_spin_single_system",
    "spin_cone",
    "spin_xi_weak",
    "three_box",
    "time_machine",
)

# n_spin_single_system above 20 spins and time_machine at n_terms >= 120 are
# left out: the program's output there is known wrong or crashes, so it
# cannot serve as a reference.
WORKLOADS = {
    "dense_eigen": (
        _run("cli", "three_box", fmt="json"),
        _run("cli", "n_box", "boxes=40", fmt="json"),
        _run("cli", "n_box", "boxes=120", fmt="json"),
        _run("cli", "negative_kinetic_energy", fmt="json"),
        _run("cli", "spin_cone", "samples=256", fmt="json"),
        _run("cli", "epr_product_rule", fmt="json"),
        Request("lib", "adiabatic_protective_measurement steps=1200"),
        Request("lib", "protected_two_state_measurement spin=20"),
    ),
    "pointer_tables": (
        _run("cli", "spin_xi_weak", fmt="both"),
        _run("cli", "spin_xi_weak", "delta=0.25", fmt="both"),
        _run("cli", "spin_xi_weak", "postselect=false", fmt="both"),
        _run("cli", "n_spin_single_system", fmt="both"),
        _run("cli", "time_machine", fmt="both"),
        _run("cli", "time_machine", "n_terms=60", fmt="both"),
    ),
    "sweep": (
        _sweep("spin_xi_weak", "delta", "0.1,0.25,1,3,10"),
        _sweep("time_machine", "n_terms", "13,20,40,60"),
    ),
    "cold_cli": tuple(_run("cold", s, fmt="both") for s in SCENARIOS),
}


def passes(workload: str, seed: str):
    """Endless passes over a workload: (request, request seed) in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    requests = list(WORKLOADS[workload])
    while True:
        order = requests[:]
        rng.shuffle(order)
        yield [(req, rng.randrange(2**31)) for req in order]


# ---------------------------------------------------------------------------
# library calls


class LibraryCalls:
    """Inputs of the protective-measurement calls, built once per process."""

    def __init__(self):
        import numpy as np
        from twostate.linalg import PAULI_X, PAULI_Z, DenseOperator, pauli, spin_direction, spin_up
        from twostate.pointer import GaussianPointer
        from twostate.protective import LargeSpin
        from twostate.states import CoStateVector, StateVector, TwoStateVector

        self.h0 = pauli("z")
        self.adiabatic_obs = DenseOperator(PAULI_Z + 0.3 * PAULI_X)
        self.adiabatic_state = StateVector(np.array([1.0, 0.0]))
        self.adiabatic_pointer = GaussianPointer.for_spectrum(4.0, [1.3], points=1024)
        self.target = TwoStateVector(CoStateVector.from_ket(spin_up([0, 1, 0])), StateVector(spin_up([1, 0, 0])))
        self.bisector = spin_direction([1, 1, 0])
        self.spin = LargeSpin(20)
        self.protected_pointer = GaussianPointer.for_spectrum(10.0, [1.0], points=4096)
        self.schedules = {}
        self.blocks = {}

    def schedule(self, steps: int):
        from twostate.protective import AdiabaticSchedule

        if steps not in self.schedules:
            self.schedules[steps] = AdiabaticSchedule(total_time=40.0, steps=steps)
        return self.schedules[steps]

    def call(self, key: str):
        """(function, args, checks) of a library request; checks maps a result to [(name, ok)]."""
        from twostate import protective

        name, _, arg = key.partition(" ")
        if name == "adiabatic_protective_measurement":
            steps = int(arg.split("=")[1])
            args = (self.h0, self.adiabatic_obs, self.adiabatic_state, self.schedule(steps), self.adiabatic_pointer)
            return protective.adiabatic_protective_measurement, args, _adiabatic_checks
        if name == "protected_two_state_measurement":
            args = (self.target, self.bisector, self.spin, 1.0, self.protected_pointer)
            return protective.protected_two_state_measurement, args, _protected_checks
        raise KeyError(key)

    def eigh_blocks(self, key: str) -> int:
        """Per-momentum-block eigendecompositions a library request performs (computed)."""
        if key not in self.blocks:
            self.blocks[key] = self._eigh_blocks(key)
        return self.blocks[key]

    def _eigh_blocks(self, key: str) -> int:
        import numpy as np
        from twostate import protective
        from twostate.linalg import fourier_pair

        name, _, arg = key.partition(" ")
        pointer = self.adiabatic_pointer if name.startswith("adiabatic") else self.protected_pointer
        mom = fourier_pair(pointer.initial_wavefunction())
        level = getattr(protective, "MOMENTUM_SIGNIFICANCE", 1e-10)
        blocks = int((np.abs(mom.values) > level * np.abs(mom.values).max()).sum())
        return blocks * int(arg.split("=")[1]) if name.startswith("adiabatic") else blocks


def _adiabatic_checks(result) -> list:
    return [
        ("shift_reads_expectation", abs(result.pointer_shift - 1.0) <= 0.02),
        ("adiabatic", not result.leakage_flagged),
    ]


def _protected_checks(result) -> list:
    return [("shift_reads_weak_value", abs(result.pointer_shift - math.sqrt(2.0)) <= 0.02 * math.sqrt(2.0))]


# ---------------------------------------------------------------------------
# canonical outputs and their comparison


def flatten(node, prefix: str = "", out: dict | None = None) -> dict:
    out = {} if out is None else out
    if isinstance(node, dict):
        for key in sorted(node):
            flatten(node[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            flatten(value, f"{prefix}.{i}", out)
    elif hasattr(node, "tolist"):
        flatten(node.tolist(), prefix, out)
    else:
        out[prefix] = node
    return out


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [_cell(row[i]) for row in rows] for i, name in enumerate(header)}


def canonical_files(paths: list, out_dir: str) -> dict:
    """Relative file name -> parsed content of the files a request wrote."""
    files = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        name = os.path.relpath(path, out_dir)
        if name.endswith(".json"):
            files[name] = {"kind": "json", "values": flatten(json.loads(text))}
        else:
            files[name] = {"kind": "csv", "columns": parse_csv(text)}
    return files


def _seed_dependent(name: str) -> bool:
    return name.startswith(SEED_DEPENDENT_PREFIXES)


def _close(ref, got) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(ref, (int, float)):
        return ref == got
    if not isinstance(got, (int, float)):
        return False
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return abs(got - ref) <= max(RTOL * abs(ref), ATOL)


def compare(reference: dict, got: dict) -> list:
    """Mismatches between a reference and an output, as short descriptions."""
    problems = []
    for name in sorted(set(reference) | set(got)):
        if name not in got:
            problems.append(f"{name}: missing")
            continue
        if name not in reference:
            problems.append(f"{name}: unexpected")
            continue
        ref, out = reference[name], got[name]
        if ref["kind"] == "csv":
            pairs = [(k, ref["columns"].get(k), out["columns"].get(k)) for k in set(ref["columns"]) | set(out["columns"])]
            for col, a, b in sorted(pairs, key=lambda p: p[0]):
                if _seed_dependent(col):
                    continue
                if a is None or b is None or len(a) != len(b):
                    problems.append(f"{name}:{col}: shape differs")
                    continue
                bad = [i for i, (x, y) in enumerate(zip(a, b)) if not _close(x, y)]
                if bad:
                    problems.append(f"{name}:{col}[{bad[0]}]: {b[bad[0]]!r} != {a[bad[0]]!r}")
        else:
            ref_v, out_v = ref["values"], out["values"]
            for key in sorted(set(ref_v) | set(out_v)):
                if _seed_dependent(key):
                    continue
                if key not in ref_v or key not in out_v:
                    problems.append(f"{name}:{key}: present on one side only")
                elif not _close(ref_v[key], out_v[key]):
                    problems.append(f"{name}:{key}: {out_v[key]!r} != {ref_v[key]!r}")
    return problems


def expected_files(reference: dict, req: Request) -> dict:
    """The part of a reference entry that a request's --format writes."""
    if req.fmt == "json":
        return {k: v for k, v in reference.items() if k.endswith("results.json")}
    if req.fmt == "csv":
        return {k: v for k, v in reference.items() if not k.endswith("results.json")}
    return reference


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# execution


@dataclass
class Outcome:
    latency: float  # seconds
    error: str | None  # None when the request succeeded and its output checked out
    output: dict | None = None  # canonical output, kept only when asked for
    scale: float = 1.0  # machine-speed scale from the calibration runs around the request


# BLAS runs single-threaded: on two cores a default-threaded BLAS call
# occasionally takes tens of times its median.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env(root: str) -> dict:
    """Environment of every benchmark process: checkout sources first, BLAS pinned."""
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Executes the requests of one workload and checks their outputs."""

    def __init__(self, workload: str, root: str, work_dir: str, reference: dict | None = None, tracer=None):
        self.workload = workload
        self.root = root
        self.out_dir = os.path.join(work_dir, "out")
        self.reference = reference
        self.tracer = tracer
        self.env = child_env(root)
        self.library = LibraryCalls() if any(r.kind == "lib" for r in WORKLOADS[workload]) else None
        self.request_pauses = 0.0  # tracer bookkeeping inside request windows, in seconds

    def execute(self, req: Request, seed: int, keep_output: bool = False) -> Outcome:
        if req.kind == "lib":
            return self._library(req, keep_output)
        argv = list(req.argv) + ["--seed", str(seed), "--out", self.out_dir]
        try:
            if req.kind == "cli":
                latency, (rc, stdout, stderr) = self._timed(self._in_process, argv)
            else:
                latency, (rc, stdout, stderr) = self._timed(self._fresh_process, argv)
        except _Raised as raised:  # a raising request counts as failed
            return Outcome(raised.latency, f"{req.key}: raised {raised.exc!r}")
        if rc != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            return Outcome(latency, f"{req.key}: exit {rc}: {last[0]}")
        written = [line[len("  wrote "):] for line in stdout.splitlines() if line.startswith("  wrote ")]
        try:
            output = canonical_files(written, self.out_dir)
        except (OSError, ValueError, IndexError) as exc:
            return Outcome(latency, f"{req.key}: unreadable output: {exc!r}")
        return self._checked(req, latency, output, keep_output)

    def _timed(self, fn, *args):
        """(latency, result) of fn(*args); traced runs open the request's root span inside the window."""
        tracer = self.tracer
        paused = 0.0 if tracer is None else tracer.paused
        start = time.perf_counter()
        try:
            result = fn(*args) if tracer is None else tracer.request(fn, *args)
        except Exception as exc:
            raise _Raised(time.perf_counter() - start, exc) from exc
        finally:
            if tracer is not None:
                self.request_pauses += tracer.paused - paused
        return time.perf_counter() - start, result

    def _checked(self, req: Request, latency: float, output: dict, keep_output: bool) -> Outcome:
        if self.reference is None:
            return Outcome(latency, None, output if keep_output else None)
        if req.key not in self.reference:
            return Outcome(latency, f"{req.key}: no reference recorded")
        problems = compare(expected_files(self.reference[req.key], req), output)
        error = f"{req.key}: {problems[0]} ({len(problems)} mismatches)" if problems else None
        return Outcome(latency, error, output if keep_output else None)

    def _in_process(self, argv: list):
        from twostate import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                rc = self.tracer.call("cli", "main", cli.main, argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    def _fresh_process(self, argv: list):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "twostate.cli"] + argv
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, text=True)
        else:
            spans = self.tracer.child_spans_path()
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cold_child.py"), spans] + argv
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, text=True)
            self.tracer.merge_child(spans)
        return proc.returncode, proc.stdout, proc.stderr

    def _library(self, req: Request, keep_output: bool) -> Outcome:
        fn, args, checks = self.library.call(req.key)
        try:
            if self.tracer is None:
                latency, result = self._timed(fn, *args)
            else:
                layer = fn.__module__.rsplit(".", 1)[-1]
                latency, result = self._timed(self.tracer.call, layer, fn.__name__, fn, *args)
        except _Raised as raised:  # a raising request counts as failed
            return Outcome(raised.latency, f"{req.key}: raised {raised.exc!r}")
        if self.tracer is not None:
            self.tracer.count_outside_spans("protective.eigh_blocks", lambda: self.library.eigh_blocks(req.key))
        failing = [name for name, ok in checks(result) if not ok]
        if failing:
            return Outcome(latency, f"{req.key}: checks failed: {', '.join(failing)}")
        output = {"result": {"kind": "lib", "values": flatten(result.to_dict())}}
        return self._checked(req, latency, output, keep_output)


class _Raised(Exception):
    def __init__(self, latency: float, exc: Exception):
        super().__init__(repr(exc))
        self.latency = latency
        self.exc = exc
