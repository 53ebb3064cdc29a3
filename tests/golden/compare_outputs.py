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
  one-pass weak value at its fewest boxes, a mid count and its most,
  ``three_box`` at ten particles, twice its default, and ``time_machine``
  at register sizes and etas no golden pins (eta 0.3 at 200 terms, -2 at
  40 and 0.5 at 2000), whose success probability reads the register's
  square sum;
- each sweep of ``EXTRA_SWEEPS``: ``time_machine`` over eta 0.5 and 2,
  whose summary holds a ``None`` cell (no decay probe at eta <= 1) beside
  floats, and over n_terms 100 and 119, the decay probe's largest sizes
  at the default eta 10;
- every CLI request of the benchmark workloads in ``bench/workloads.py``,
  in-process through ``twostate.cli.main``;
- both library calls of the benchmark, whose ``to_dict()`` is written as
  JSON with full float precision;
- ``twostate list`` and each request of ``REFUSED``, which the CLI refuses
  with one line on standard error.

The same process then runs the whole list a second time, in reverse order
and at the same seeds, in a fresh directory of the same name.  An output
that depends on what an earlier request left in a process cache then
differs from its first pass, even where parent and change agree.

Every stdout and every written file of one checkout must equal the other's
byte for byte, and each second pass its own first pass; the script lists
each difference and exits 1 if there is any.  Under each differing file it
prints every changed JSON field, CSV column (at its cell of largest
relative change) or other text line, with the old value, the new value and
the relative change.  Requests, cases and
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
EXTRA_RUNS = (
    ("n_box", "boxes=3"),
    ("n_box", "boxes=2360"),
    ("n_box", "boxes=100000"),
    ("three_box", "n_particles=10"),
    ("time_machine", "eta=0.3", "n_terms=200"),
    ("time_machine", "eta=-2", "n_terms=40"),
    ("time_machine", "eta=0.5", "n_terms=2000"),
)
EXTRA_SWEEPS = (("time_machine", "eta", "0.5,2"), ("time_machine", "n_terms", "100,119"))
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
    ("particles-above-domain", ("run", "three_box", "--param", f"n_particles={2**53 + 1}")),
    ("eta-beyond-the-schedule", ("run", "time_machine", "--param", "eta=1e300")),
    ("negative-eta-beyond-the-schedule", ("run", "time_machine", "--param", "eta=-1e300")),
    # n_terms is checked first; width=0, outside its domain too, ends the request where nothing bounds n_terms
    ("n-terms-above-domain", ("run", "time_machine", "--param", "n_terms=1000001", "--param", "width=0")),
    # past the float range of binom(N, N/2): an OverflowError (exit 3) until spins had a maximum
    ("spins-above-domain", ("run", "n_spin_single_system", "--param", "spins=1030")),
    # one site past the stencil's rounding bound, eps/dx**2 <= 1e-11
    ("sites-above-domain", ("run", "negative_kinetic_energy", "--param", "sites=25468")),
    # inside the (0, inf) once listed, outside the widths whose square is a normal float
    ("width-whose-square-underflows", ("run", "time_machine", "--param", "width=1e-200")),
    ("negative-delta-t", ("run", "time_machine", "--param", "delta_t=-1")),
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
    for scenario, *params in EXTRA_RUNS:
        argv = ["run", scenario, *(x for param in params for x in ("--param", param)), "--format", "both"]
        out.append((f"extra/{scenario}-{'-'.join(params)}", argv))
    for scenario, name, values in EXTRA_SWEEPS:
        out.append((f"extra/sweep-{scenario}-{name}", ["sweep", scenario, "--param-name", name, "--values", values]))
    for workload, requests in WORKLOADS.items():
        for req in requests:
            name = f"{workload}/{req.key.replace(' ', '_')}"
            out.append((name, req.key if req.kind == "lib" else list(req.argv)))
    out.append(("stderr/list", ["list"]))
    out += [(f"stderr/refused/{name}", list(argv)) for name, argv in REFUSED]
    return out


def emit(out_root: str, first_root: str) -> None:
    """Run every request with the twostate on sys.path under out_root, moved to first_root; then again, reversed."""
    from twostate.cli import main
    from workloads import LibraryCalls

    library = LibraryCalls()
    runs = [(name, request, seed) for name, request in _requests() for seed in SEEDS]
    for again, order in enumerate((runs, runs[::-1])):
        if again:
            os.chdir(os.path.dirname(out_root))
            os.rename(out_root, first_root)
            os.makedirs(out_root)
        os.chdir(out_root)  # relative --out paths keep the printed paths equal
        for name, request, seed in order:
            _emit_one(library, main, name, request, seed)


def _emit_one(library, main, name: str, request, seed: str) -> None:
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


def _report(old: dict, new: dict, sides: tuple) -> list:
    """Print each file that differs between two output trees, with its changes; return their names."""
    differ = sorted(name for name in set(old) | set(new) if old.get(name) != new.get(name))
    for name in differ:
        side = f"only in {sides[0]}" if name not in new else f"only in {sides[1]}" if name not in old else "differs"
        print(f"{name}: {side}")
        if side == "differs":
            print("\n".join(changes(name, old[name], new[name])))
    return differ


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--emit":
        emit(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    from workloads import child_env

    with tempfile.TemporaryDirectory() as scratch:
        outputs, unstable = [], 0
        out_root, first_root = os.path.join(scratch, "out"), os.path.join(scratch, "first")
        for label, tree in zip(("parent", "change"), argv):
            os.makedirs(out_root)
            cmd = [sys.executable, os.path.abspath(__file__), "--emit", out_root, first_root]
            subprocess.run(cmd, env=child_env(os.path.abspath(tree)), check=True)
            first, again = _files(first_root), _files(out_root)
            print(f"{label}: second pass against the first")
            unstable += len(_report(first, again, ("first pass", "second pass")))
            outputs.append(first)
            shutil.rmtree(out_root)
            shutil.rmtree(first_root)
    old, new = outputs
    print("parent against change")
    differ = _report(old, new, ("parent", "change"))
    print(f"{len(set(old) | set(new)) - len(differ)} files identical, {len(differ)} differ")
    print(f"{unstable} files of the second passes differ from their first pass")
    return 1 if differ or unstable else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
