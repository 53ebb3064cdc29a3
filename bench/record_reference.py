"""Record the reference outputs that the benchmark checks every request against.

    python3 bench/record_reference.py

Runs each distinct request of every workload once, in-process, at request
seed 0, and writes ``bench/reference/<workload>.json.gz``.  Fields that depend
on the seed are recorded but not compared.  Re-record only from a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

from workloads import PINNED_ENV, REFERENCE_DIR, ROOT, WORKLOADS, Request, Runner, reference_path


def main() -> int:
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work_dir = os.path.join(ROOT, ".bench_work", "record")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    try:
        for workload, requests in WORKLOADS.items():
            runner = Runner(workload, ROOT, work_dir)
            entries = {}
            for req in requests:
                if req.kind == "cold":  # a fresh process writes the same files
                    req = Request("cli", req.key, req.argv, req.fmt)
                outcome = runner.execute(req, 0, keep_output=True)
                if outcome.error is not None:
                    print(f"error: {outcome.error}", file=sys.stderr)
                    return 1
                entries[req.key] = outcome.output
            with open(reference_path(workload), "wb") as raw:
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as handle:
                    handle.write(json.dumps(entries, sort_keys=True).encode("utf-8"))
            print(f"wrote {os.path.relpath(reference_path(workload), ROOT)}: {len(entries)} requests")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
