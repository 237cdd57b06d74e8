"""Self-test of the benchmark: every workload at a tiny size, same code path.

Run from the repository root (about a minute):

    python3 bench/selftest.py

Checks, for each workload, untraced and traced:
  * the last stdout line is the result object, with exactly the metrics
    BENCHMARK.json declares, each with its unit;
  * every metric, the ungated raw times included, is also printed by name
    with its unit, and fail_ratio is 0;
  * a corrupted reference makes every op fail (fail_ratio 1);
and that in a directory holding only BENCHMARK.json and bench/ the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_work" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--size", "tiny", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout.splitlines()


def result(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    return doc


def check_workload(workload: str, declared: dict) -> None:
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = bench("--workload", workload, "--trace", trace)
        assert code == 0, f"{workload} trace {trace}: exit {code}"
        doc = result(lines)
        expected = {m["name"]: m["unit"] for m in declared[group]}
        got = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert got == expected, f"{workload} trace {trace}: metrics {got} != {expected}"
        assert doc["failed"] == 0 and doc["correct"], f"{workload} trace {trace}: failures"
        text = lines[:-1]
        printed = {**expected, **(run.RAW if trace == "0" else {})}
        for name, unit in printed.items():
            assert any(line.split()[:1] == [name] and f" {unit}" in line for line in text), name
        fail_line = next(line for line in text if line.split()[:1] == ["fail_ratio"])
        assert float(fail_line.split()[1]) == 0, fail_line
        print(f"ok  {workload:<18} trace {trace}: {len(expected)} metrics, "
              f"{doc['attempted']} ops, fail_ratio 0")


def check_corrupted_reference(workload: str) -> None:
    stored = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
    for entry in stored[workload]["tiny"].values():
        for key in entry:
            entry[key] = "corrupted"
    path = SCRATCH / f"reference-{workload}.json"
    path.write_text(json.dumps(stored), encoding="utf-8")
    code, lines = bench("--workload", workload, "--reference", str(path))
    doc = result(lines)
    assert code == 0 and doc["failed"] == doc["attempted"] and not doc["correct"], doc
    print(f"ok  {workload:<18} corrupted reference: fail_ratio 1 ({doc['failed']} of {doc['attempted']})")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "certify-large", cwd=bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print(f"ok  bare directory: exit {code}, no result printed")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        check_workload(workload, declared)
        check_corrupted_reference(workload)
    check_bare_directory()
    shutil.rmtree(SCRATCH)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
