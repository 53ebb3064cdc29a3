"""Check that two checkouts of twostate produce byte-identical outputs.

    python tests/golden/compare_outputs.py <parent-checkout> <change-checkout>

For each checkout, a fresh process with ``PYTHONPATH=<checkout>/src`` runs,
at seeds 0 and 7:

- every golden case of ``tests/golden/record.py`` (``twostate run ...
  --format both``);
- ``twostate run spin_cone --param samples=256 --format both`` at each
  chi of ``CONE_CHIS``, which reach the certainty cone's ABL contraction
  beyond the default chi: a thin and a wide cone, the empty cone at pi/4,
  and two cones past it;
- each request of ``EXTRA_RUNS`` with ``--format both``: ``n_box``'s
  one-pass weak value at its fewest boxes, a mid count and its most, and
  ``three_box`` at ten particles, twice its default;
- each sweep of ``EXTRA_SWEEPS``: ``time_machine`` over eta 0.5 and 2,
  whose summary holds a ``None`` cell (no decay probe at eta <= 1) beside
  floats;
- every CLI request of the benchmark workloads in ``bench/workloads.py``,
  in-process through ``twostate.cli.main``;
- both library calls of the benchmark, whose ``to_dict()`` is written as
  JSON with full float precision;
- ``twostate list`` and each request of ``REFUSED``, which the CLI refuses
  with one line on standard error.

Every stdout and every written file of one checkout must equal the other's
byte for byte; the script lists each difference and exits 1 if there is
any.  Under each differing file it prints every changed JSON field, CSV
column (at its cell of largest relative change) or other text line, with
the old value, the new value and the relative change.  Requests, cases and
library inputs come from this script's own checkout, so both sides run the
same list.  Standard error is compared for ``list`` and the refused
requests only: elsewhere it holds warnings, which name source lines that
move with any edit.  Both checkouts write under the same directory name, so
a message that holds an absolute output path reads the same on both.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "bench")]

SEEDS = ("0", "7")
CONE_CHIS = ("0.05", "0.7", repr(math.pi / 4), "1.2", "1.5")
EXTRA_RUNS = (("n_box", "boxes=3"), ("n_box", "boxes=2360"), ("n_box", "boxes=100000"), ("three_box", "n_particles=10"))
EXTRA_SWEEPS = (("time_machine", "eta", "0.5,2"),)
# Requests the CLI refuses, with exit 2 and one `error:` line.  Each takes the --seed and --out of every run;
# the --out of out-under-file is a regular file, made before it runs.
REFUSED = (
    ("unknown-scenario", ("run", "no_such_scenario")),
    ("param-without-equals", ("run", "n_box", "--param", "boxes")),
    ("boxes-not-an-int", ("run", "n_box", "--param", "boxes=2.5")),
    ("repeated-key", ("run", "n_box", "--param", "boxes=4", "--param", "boxes=5")),
    ("boxes-below-domain", ("run", "n_box", "--param", "boxes=2")),
    ("missing-config", ("run", "n_box", "--config", "no-such-config.json")),
    ("boolean-sweep", ("sweep", "spin_xi_weak", "--param-name", "postselect", "--values", "true,false")),
    ("out-under-file", ("run", "n_box")),
    ("well-without-a-site", ("run", "negative_kinetic_energy", "--param", "well_half_width=1e-300")),
    (
        "postselect-off-the-pointer-lattice",
        ("run", "negative_kinetic_energy", "--param", "well_depth=0.05", "--param", "postselect_x=30"),
    ),
    ("well-depth-zero", ("run", "negative_kinetic_energy", "--param", "well_depth=0")),
    ("well-depth-negative", ("run", "negative_kinetic_energy", "--param", "well_depth=-5")),
    ("cone-samples-above-domain", ("run", "spin_cone", "--param", "samples=1000000")),
)


def _requests() -> list:
    """(output directory name, CLI argv or library key) of every request."""
    from record import CASES
    from workloads import WORKLOADS

    out = []
    for case, (scenario, params) in CASES.items():
        argv = ["run", scenario, "--format", "both"]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        out.append((f"golden/{case}", argv))
    for chi in CONE_CHIS:
        argv = ["run", "spin_cone", "--param", f"chi={chi}", "--param", "samples=256", "--format", "both"]
        out.append((f"cone/chi={chi}", argv))
    for scenario, param in EXTRA_RUNS:
        out.append((f"extra/{scenario}-{param}", ["run", scenario, "--param", param, "--format", "both"]))
    for scenario, name, values in EXTRA_SWEEPS:
        out.append((f"extra/sweep-{scenario}-{name}", ["sweep", scenario, "--param-name", name, "--values", values]))
    for workload, requests in WORKLOADS.items():
        for req in requests:
            name = f"{workload}/{req.key.replace(' ', '_')}"
            out.append((name, req.key if req.kind == "lib" else list(req.argv)))
    out.append(("stderr/list", ["list"]))
    out += [(f"stderr/refused/{name}", list(argv)) for name, argv in REFUSED]
    return out


def emit(out_root: str) -> None:
    """Run every request with the twostate on sys.path, writing under out_root."""
    from twostate.cli import main
    from workloads import LibraryCalls

    library = LibraryCalls()
    os.chdir(out_root)  # relative --out paths keep the printed paths equal
    for name, request in _requests():
        for seed in SEEDS:
            target = os.path.join(name, f"seed{seed}")
            os.makedirs(target)
            if isinstance(request, str):
                fn, args, _ = library.call(request)
                text = json.dumps(fn(*args).to_dict(), sort_keys=True)
            else:
                out = os.path.join(target, "out")
                if name == "stderr/refused/out-under-file":
                    open(out, "w").close()
                argv = request if request == ["list"] else request + ["--seed", seed, "--out", out]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                text = f"{stdout.getvalue()}exit {code}\n"
                if name.startswith("stderr/"):
                    text += f"stderr:\n{stderr.getvalue()}"
            with open(os.path.join(target, "stdout.txt"), "w", encoding="utf-8") as handle:
                handle.write(text)


def _files(root: str) -> dict:
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def _leaves(node, path: str = "") -> dict:
    """Parsed JSON flattened to {dotted path: scalar}."""
    if isinstance(node, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(_leaves(value, key))
    return out


def _relative(old, new) -> float | None:
    """(new - old) / |old| for two numbers or numeric strings, else None."""
    if isinstance(old, bool) or isinstance(new, bool):
        return None
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return 0.0 if a == b else (b - a) / abs(a) if a else float("inf")


def _change(label: str, old, new) -> str:
    rel = _relative(old, new)
    return f"  {label}: {old!r} -> {new!r}" + ("" if rel is None else f" (relative change {rel:.3g})")


def changes(name: str, old: bytes, new: bytes) -> list:
    """One line per changed JSON field, CSV column or text line of a file present on both sides."""
    a, b = old.decode("utf-8"), new.decode("utf-8")
    try:
        fa, fb = _leaves(json.loads(a)), _leaves(json.loads(b))
    except ValueError:
        fa = fb = None
    if fa is not None:
        return [_change(k, fa.get(k), fb.get(k)) for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)]
    ra, rb = a.splitlines(), b.splitlines()
    if not name.endswith(".csv") or not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        pairs = zip(ra + [None] * (len(rb) - len(ra)), rb + [None] * (len(ra) - len(rb)))
        return [_change(f"line {i + 1}", x, y) for i, (x, y) in enumerate(pairs) if x != y]
    out = []
    ca, cb = ([row.split(",") for row in rows[1:]] for rows in (ra, rb))
    for j, column in enumerate(ra[0].split(",")):
        cells = [(i, x[j], y[j]) for i, (x, y) in enumerate(zip(ca, cb)) if x[j] != y[j]]
        if cells:
            i, x, y = max(cells, key=lambda c: abs(r) if (r := _relative(c[1], c[2])) is not None else float("inf"))
            out.append(_change(f"column {column} ({len(cells)} of {len(ca)} rows; row {i + 1})", x, y))
    return out


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    from workloads import child_env

    with tempfile.TemporaryDirectory() as scratch:
        outputs = []
        out_root = os.path.join(scratch, "out")
        for tree in argv:
            os.makedirs(out_root)
            cmd = [sys.executable, os.path.abspath(__file__), "--emit", out_root]
            subprocess.run(cmd, env=child_env(os.path.abspath(tree)), check=True)
            outputs.append(_files(out_root))
            shutil.rmtree(out_root)
    old, new = outputs
    differ = sorted(name for name in set(old) | set(new) if old.get(name) != new.get(name))
    for name in differ:
        side = "only in parent" if name not in new else "only in change" if name not in old else "differs"
        print(f"{name}: {side}")
        if side == "differs":
            print("\n".join(changes(name, old[name], new[name])))
    print(f"{len(set(old) | set(new)) - len(differ)} files identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
