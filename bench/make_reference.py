"""Regenerate bench/reference.json: the default seed's results, both sizes.

Run from the repository root, only when the workload inputs change:

    python3 bench/make_reference.py

Every op must pass its invariant checks before its fields are stored.
A change to the program must never be made to pass by regenerating.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import runner
import workloads

OUT = Path("bench") / "reference.json"


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import bell_lab.cli as cli

    reference: dict = {}
    for workload in workloads.WORKLOADS:
        for size in ("tiny", "full"):
            workdir = Path(".bench_work") / "reference" / workload
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            entries = {}
            for op in workloads.plan(workload, workloads.DEFAULT_SEED, size, workdir):
                code, stdout, _ = runner.run_op(cli, op, None)
                entries[op["key"]] = workloads.check(workload, op, code, stdout, None)
                print(f"{workload} {size} {op['key']}: ok", file=sys.stderr)
            reference.setdefault(workload, {})[size] = entries
            shutil.rmtree(workdir)
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
