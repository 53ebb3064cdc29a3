"""Record the golden CLI outputs that tests/test_golden.py compares against.

Each case runs ``twostate run <scenario> --format both`` in-process and
stores every file it writes (results.json and the figure tables) as text in
``tests/golden/<case>.json.gz``.

Run it only on the commit *before* a change whose outputs must not move, then
make the change and let the test compare:

    PYTHONPATH=src python tests/golden/record.py [case ...]

Naming cases records only those, so a new case can be added without
touching the goldens already recorded.  Re-recording on the changed code
would make the goldens agree with whatever that code computes, which pins
nothing.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# case name -> (scenario, parameter overrides); every scenario at its defaults
# plus the three largest inputs the benchmark drives.
CASES = {
    "epr_product_rule": ("epr_product_rule", {}),
    "n_box": ("n_box", {}),
    "n_box-boxes=120": ("n_box", {"boxes": "120"}),
    "n_spin_single_system": ("n_spin_single_system", {}),
    "negative_kinetic_energy": ("negative_kinetic_energy", {}),
    "spin_cone": ("spin_cone", {}),
    "spin_cone-samples=256": ("spin_cone", {"samples": "256"}),
    "spin_xi_weak": ("spin_xi_weak", {}),
    "three_box": ("three_box", {}),
    "time_machine": ("time_machine", {}),
    "time_machine-n_terms=60": ("time_machine", {"n_terms": "60"}),
}


def golden_path(case: str) -> str:
    return os.path.join(HERE, f"{case}.json.gz")


def run_case(case: str, fmt: str = "both") -> dict:
    """Every file the CLI writes for one case under ``--format fmt``, keyed by its name."""
    from twostate.cli import main

    scenario, params = CASES[case]
    argv = ["run", scenario, "--format", fmt, "--seed", "0"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", out])
        if code != 0:
            raise RuntimeError(f"{case}: twostate run exited {code}")
        base = os.path.join(out, scenario)
        files = {}
        # a csv-only run of a scenario without tables writes no directory
        for name in sorted(os.listdir(base) if os.path.isdir(base) else ()):
            with open(os.path.join(base, name), encoding="utf-8") as handle:
                files[name] = handle.read()
    return files


def main(cases: list[str]) -> int:
    for case in cases or CASES:
        payload = json.dumps({"case": case, "files": run_case(case)}, sort_keys=True)
        # mtime=0 keeps the archive bytes a function of the outputs alone
        with open(golden_path(case), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(payload.encode("utf-8"))
        print(f"wrote {golden_path(case)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
