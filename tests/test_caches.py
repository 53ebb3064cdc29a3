"""The process caches: one decorator, `linalg.exact_cache`, keys, freezes and registers every one of them.

A cache keyed by `==` would hand -0.0 the entry of 0.0, and 13.0 or True the entry of 13; a cached array that a
caller could write would change every later caller's answer.  The last test runs the benchmark's requests in
shuffled passes in one process, where what one request leaves in a cache is what the next one reads.
"""

from __future__ import annotations

import ast
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import twostate
import twostate.cli  # noqa: F401  (imports every module that defines a cache)
from twostate import linalg
from twostate.linalg import CACHES, Grid1D, WaveFunction1D, exact_cache

SRC = Path(twostate.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"

TEN_CACHES = [
    "twostate.cli.build_parser",
    "twostate.linalg._fourier_factors",
    "twostate.pointer._sorted_draws",
    "twostate.reporting._cell_layout",
    "twostate.reporting._grid_words",
    "twostate.scenarios._coarse_kinetic_operator",
    "twostate.scenarios._spin_xi_setup",
    "twostate.timemachine._gaussian_power",
    "twostate.timemachine.binomial_schedule",
    "twostate.timemachine.gaussian_input",
]


def _cache_references(path: Path) -> list:
    """Lines of `path` that name functools' `cache` or `lru_cache`, outside the body of `linalg.exact_cache`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = set()
    if path.name == "linalg.py":
        exempt = {id(node) for top in tree.body if getattr(top, "name", "") == "exact_cache" for node in ast.walk(top)}
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names if alias.name in ("cache", "lru_cache")}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "functools"}
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Name) and node.id in names:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                lines.append(node.lineno)
    return lines


def test_no_module_caches_but_through_exact_cache():
    # `cached_property` caches on an instance, which goes with it, and stays free
    found = {path.name: lines for path in sorted(SRC.glob("*.py")) if (lines := _cache_references(path))}
    assert found == {}


def test_the_ten_process_caches_are_registered_plain_functions():
    assert sorted(f"{cache.__module__}.{cache.__qualname__}" for cache in CACHES) == TEN_CACHES
    for cache in CACHES:
        # the benchmark's tracer wraps only plain functions
        assert isinstance(cache, types.FunctionType) and isinstance(cache.__wrapped__, types.FunctionType)
        assert callable(cache.cache_info) and callable(cache.cache_clear)


@pytest.fixture
def registry(monkeypatch):
    """A fresh `CACHES` for the caches a test makes, so the package's registry keeps its ten."""
    fresh = []
    monkeypatch.setattr(linalg, "CACHES", fresh)
    return fresh


def test_exact_cache_registers_and_keeps_the_function(registry):
    def square(x: float) -> float:
        """x squared."""
        return x * x

    cached = exact_cache(4)(square)
    assert registry == [cached] and cached.__wrapped__ is square
    assert (cached.__name__, cached.__doc__, cached.__module__) == ("square", "x squared.", __name__)
    assert cached(3.0) == 9.0 and cached(3.0) == 9.0
    assert cached.cache_info()[:4] == (1, 1, 4, 1)  # hits, misses, maxsize, currsize
    cached.cache_clear()
    assert cached.cache_info()[:4] == (0, 0, 4, 0)


# arguments that `==` takes for one another, each beside its twin: a signed zero, a last bit, a type
TWINS = [
    (0.0,),
    (-0.0,),
    (1.0,),
    (math.nextafter(1.0, 2.0),),
    (13,),
    (13.0,),
    (True,),
    (1,),
    (np.int64(13),),
    (None, 1.0),
    (Grid1D(-1.0, 0.0, 16),),
    (Grid1D(-1.0, -0.0, 16),),
    (Grid1D(-1, 0, 16),),
    (Grid1D(-1.0, math.nextafter(0.0, 1.0), 16),),
]


def test_each_argument_is_keyed_by_its_type_and_bits(registry):
    calls = []

    @exact_cache(len(TWINS))
    def record(*args):
        calls.append(args)
        return len(calls)

    answers = [record(*args) for args in TWINS]
    assert answers == list(range(1, len(TWINS) + 1))  # no twin answered from another's entry
    assert [record(*args) for args in TWINS] == answers  # and each answers from its own
    assert record.cache_info()[:2] == (len(TWINS), len(TWINS))
    assert [type(args[0]) for args in calls] == [type(args[0]) for args in TWINS]


@pytest.mark.parametrize("argument", ["13", [1.0], np.array([1.0]), 1 + 0j])
def test_an_argument_with_no_exact_key_is_refused_and_nothing_is_cached(argument, registry):
    cached = exact_cache(4)(lambda x: x)
    with pytest.raises(TypeError, match="exact_cache keys no argument"):
        cached(argument)
    assert cached.cache_info().currsize == 0


def test_a_call_that_raises_caches_nothing(registry):
    @exact_cache(4)
    def refuse(x: float):
        raise ValueError(f"refused {x}")

    for _ in range(2):
        with pytest.raises(ValueError, match="refused 2.0"):
            refuse(2.0)
    assert refuse.cache_info().currsize == 0


def test_every_array_a_result_holds_through_tuples_and_records_is_read_only(registry):
    @exact_cache(1)
    def build():
        grid = Grid1D(0.0, 1.0, 16)
        return np.zeros(3), (np.zeros(2), (np.zeros(1),)), WaveFunction1D(grid, np.ones(16)), 7

    flat, (inner, (innermost,)), wavefunction, seven = build()
    for array in (flat, inner, innermost, wavefunction.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert build()[2] is wavefunction and seven == 7


def test_the_benchmark_requests_in_shuffled_passes_in_one_process_match_their_references(tmp_path):
    # Tier-1 runs each request once, in a fixed order; here five shuffled passes of three workloads, at fresh seeds,
    # share one process and its caches, as a benchmark worker's do
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import ROOT, WORKLOADS, Runner, load_reference, passes
    finally:
        sys.path.remove(str(BENCH))
    for cache in CACHES:
        cache.cache_clear()
    workloads = ("sweep", "pointer_tables", "dense_eigen")
    runners = [Runner(w, ROOT, str(tmp_path / w), reference=load_reference(w)) for w in workloads]
    streams = [passes(w, "one-process") for w in workloads]
    errors, requests = [], 0
    for _ in range(5):
        for runner, stream in zip(runners, streams):
            for req, seed in next(stream):
                if req.kind in ("cli", "lib"):  # the in-process requests; `cold` ones start a process of their own
                    errors.append(runner.execute(req, seed).error)
                    requests += 1
    assert requests == 5 * sum(len(WORKLOADS[w]) for w in workloads)
    assert [e for e in errors if e is not None] == []
