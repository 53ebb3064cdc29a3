"""Command-line front end: list scenarios, run one, or sweep a parameter.

Exit codes: 0 on success, 1 when a scenario's numerical self-checks fail,
2 on usage errors (unknown scenario, malformed or unknown parameters or seed,
a value outside its declared domain, a missing or malformed config file)
and on outputs that cannot be written, reported as one `error:` line,
3 on any other exception, reported as one `internal error:` line.  `main`
alone maps exceptions to these codes.
Identical requests (including the seed) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import TwoStateError, ValidationError
from .linalg import exact_cache
from .reporting import csv_table, stable_json, write_text_atomic
from .scenarios import REGISTRY, ScenarioResult, get_scenario

OUT_DIR_ENV = "TWOSTATE_OUT_DIR"

USAGE_ERROR = 2
CHECK_FAILURE = 1
INTERNAL_ERROR = 3


def _parse_param_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for key, equals, value in (pair.partition("=") for pair in pairs):
        if not equals:
            raise ValidationError(f"parameter override {key!r} must look like key=value")
        if key.strip() in overrides:
            raise ValidationError(f"parameter {key.strip()!r} is given more than once with --param")
        overrides[key.strip()] = value.strip()
    return overrides


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, os.path.join(os.getcwd(), "twostate-out"))


def cmd_list(args) -> int:
    specs = [REGISTRY[name] for name in sorted(REGISTRY) if not args.filter or args.filter in name]
    rows = [(spec.name, ", ".join(map(str, spec.params)) or "-", spec.summary) for spec in specs]
    width, pwidth = (max((len(row[i]) for row in rows), default=0) for i in (0, 1))
    for name, schema, summary in rows:
        print(f"{name:<{width}}  {schema:<{pwidth}}  {summary}")
    return 0


def _write_outputs(result: ScenarioResult, out_dir: str, fmt: str) -> list[str]:
    """Write the requested files; every text is built first, so a builder that raises leaves none behind."""
    texts = {}
    if fmt in ("json", "both"):
        texts["results.json"] = stable_json(result.to_dict())
    if fmt in ("csv", "both"):
        texts.update((filename, csv_table(*build())) for filename, build in sorted(result.tables.items()))
    written = [os.path.join(out_dir, result.name, filename) for filename in texts]
    for path, text in zip(written, texts.values()):
        write_text_atomic(path, text)
    return written


def cmd_run(args) -> int:
    spec = get_scenario(args.scenario)
    overrides = _parse_param_overrides(args.param or [])
    seed = 0 if args.seed is None else args.seed
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            file_request = json.load(handle)
        file_params = file_request.get("params", {}) if isinstance(file_request, dict) else None
        if not isinstance(file_params, dict):
            raise ValidationError(f"config {args.config!r} must hold a JSON object, and its 'params' an object")
        overrides = {**file_params, **overrides}  # flags win over the file
        if args.seed is None:
            seed = file_request.get("seed", 0)  # run coerces it
    result = spec.run(overrides, seed=seed)
    written = _write_outputs(result, args.out or _default_out_dir(), args.format)
    print(result.summary_line)
    for path in written:
        print(f"  wrote {path}")
    if not result.passed:
        failing = [name for name, ok in result.checks if not ok]
        print(f"numerical checks failed: {', '.join(failing)}", file=sys.stderr)
        return CHECK_FAILURE
    return 0


def _scalar_summaries(result: ScenarioResult) -> dict:
    flat = {}

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}.{key}" if prefix else key, node[key])
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[prefix] = node

    walk("", result.results)
    return flat


def cmd_sweep(args) -> int:
    spec = get_scenario(args.scenario)
    schema = {p.name: p for p in spec.params}
    if args.param_name not in schema:
        raise ValidationError(f"scenario {args.scenario!r} has no parameter {args.param_name!r}")
    param = schema[args.param_name]
    if param.kind not in ("int", "float"):
        raise ValidationError(f"parameter {args.param_name!r} is not numeric")
    # every value is checked against the domain before the first run computes
    values = [param.coerce(v.strip()) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValidationError("no sweep values supplied")
    fixed = _parse_param_overrides(args.param or [])
    if args.param_name in fixed:
        raise ValidationError(f"parameter {args.param_name!r} is swept; it cannot also be fixed with --param")
    seed = 0 if args.seed is None else args.seed
    summaries = []
    all_passed = True
    for value in values:
        result = spec.run({**fixed, args.param_name: value}, seed=seed)
        all_passed = all_passed and result.passed
        flat = _scalar_summaries(result)
        flat.pop(args.param_name, None)  # already the leading column
        summaries.append(flat)
        print(result.summary_line)
    path = os.path.join(args.out or _default_out_dir(), spec.name, f"sweep_{args.param_name}.csv")
    keys = sorted(set().union(*summaries))  # a value any run reports gets a column
    columns = [values] + [[flat.get(key) for flat in summaries] for key in keys]
    write_text_atomic(path, csv_table([args.param_name] + keys, columns))
    print(f"  wrote {path}")
    return 0 if all_passed else CHECK_FAILURE


@exact_cache(1)  # building the parser takes argparse about 0.9 ms; one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostate",
        description="Pre- and post-selected quantum scenarios: conditional probabilities, "
        "weak values, pointer simulations, and superposed time evolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios and their parameters")
    p_list.add_argument("--filter", default=None, help="substring filter on scenario names")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one scenario and write results")
    p_run.add_argument("scenario")
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE", help="override a parameter")
    p_run.add_argument("--config", default=None, help="JSON file with {params: {...}, seed: ...}")
    p_run.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./twostate-out)")
    p_run.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across several values of one parameter")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param-name", required=True, dest="param_name", help="numeric parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--param", action="append", metavar="KEY=VALUE", help="fixed overrides")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():  # keeps the caller's filters, and forgets which warnings an earlier call showed
            return args.func(args)
    except (TwoStateError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # not a failed self-check, so not exit 1
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
