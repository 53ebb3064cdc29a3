"""Traced stand-in for ``python -m twostate.cli``, used by the traced run of
``cold_cli``: times the import of ``twostate.cli``, then runs the CLI with
the tracer installed and writes the spans to the file named first.

Usage: python3 bench/cold_child.py <spans.json> <twostate arguments...>
"""

import importlib
import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.call("import", "twostate.cli", importlib.import_module, "twostate.cli")
    tracer.install()
    try:
        return tracer.call("cli", "main", cli.main, argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
