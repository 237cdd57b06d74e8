"""The benchmark's stored results, checked in-process on every test run.

Each workload of ``bench/workloads.py`` is planned at the default seed for
both sizes, every op runs through ``bell_lab.cli.main`` in this process,
and ``workloads.check`` compares its result with ``bench/reference.json``.
So a drift in hill-climb, search, certify or ledger bytes fails here, not
only in a benchmark run.  Inputs and outputs go under ``tmp_path``;
``bench/`` is only read.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from bell_lab import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
STORED = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_ops_match_the_stored_reference(workload, size, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the simulate workload names its model by a relative path
    reference = workloads.reference_for(workload, workloads.DEFAULT_SEED, size, STORED)
    ops = workloads.plan(workload, workloads.DEFAULT_SEED, size, tmp_path)
    assert reference is not None
    assert sorted(op["key"] for op in ops) == sorted(reference)
    for op in ops:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(op["argv"])
        workloads.check(workload, op, code, stdout.getvalue(), reference)
