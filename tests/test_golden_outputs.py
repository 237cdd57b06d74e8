"""CLI output bytes pinned across commits, verbatim.

Each case runs ``bell_lab.cli.main`` in this process on a fixed argv and
compares its record with the one kept under ``golden/<case>/``: the file
``exit`` holds the exit code, ``stdout`` and ``stderr`` the streams, and
``files/`` every file the run wrote, byte for byte, except that a
``ledger.csv`` (84-89 KB per case) is kept only as the SHA-256 in
``files/ledger.csv.sha256``.  A failing case shows a unified diff of its
first output that differs.  Before the records, the cases were pinned
by SHA-256 alone in ``golden_outputs.json``, generated at commit 1118feb
and added to or regenerated at 67e2cf2, 0f12edd and 91c5ed8.  When the
records were first written, each record file's SHA-256 was checked
against that file as of commit 099fe99, and the file was retired: no
byte changed on the way.  The records are written by running this module as
a script from the repository root:

    PYTHONPATH=src python tests/test_golden_outputs.py

which rewrites ``golden/`` from the checked-out code and prints each
case whose record changed, was added or was removed.  A change that
alters output bytes on purpose rewrites the records, and its diff shows
the new bytes; it says which cases changed and why.

Two tests run cases in a fresh interpreter instead: every ``check`` and
``search`` case with numpy blocked, which must give the same records,
and one case of each subcommand in turn, which shows numpy first loaded
by ``certify``.
"""

import contextlib
import csv
import difflib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bell_lab.cli import main
from tests_support import PRESET_DIR, PRESETS

GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "{out}"  # replaced by a fresh output directory per run
DIGEST_ONLY = {"ledger.csv"}  # kept as files/<name>.sha256


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in PRESETS:
        model = str(PRESET_DIR / f"{name}.json")
        for fmt in ("text", "json"):
            cases[f"check-{name}-{fmt}"] = ["check", "--model", model, "--format", fmt]
        for fmt in ("json", "text", "csv"):
            cases[f"certify-{name}-{fmt}"] = ["certify", "--model", model, "--format", fmt]
    noisy = str(PRESET_DIR / "noisy_readout.json")
    cases["certify-noisy_readout-limit1"] = ["certify", "--model", noisy, "--limit", "1"]
    cases["search-default"] = ["search"]
    for mode in ("hill-climb", "random"):
        cases[f"search-{mode}"] = [
            "search", "--mode", mode, "--seed", "0", "--budget", "200",
            "--cardinalities", "2,2,2,2,2,2",
        ]
    cases["search-random-budget1"] = [
        "search", "--mode", "random", "--budget", "1", "--seed", "5",
        "--cardinalities", "2,2,2,2,2,2",
    ]
    cases["search-hill-climb-csv"] = [
        "search", "--mode", "hill-climb", "--budget", "500", "--seed", "7",
        "--cardinalities", "3,2,3,2,2,3", "--format", "csv",
    ]
    cases["search-random-text"] = [
        "search", "--mode", "random", "--budget", "300", "--seed", "11",
        "--cardinalities", "2,2,1,1,1,1", "--format", "text",
    ]
    simulate = ["simulate", "--histogram", "--n", "5000", "--seed", "0", "--out", OUT]
    for name in ("noisy_readout", "random_seed7"):
        cases[f"simulate-{name}"] = [*simulate, "--model", str(PRESET_DIR / f"{name}.json")]
    cases["simulate-quantum"] = [*simulate, "--quantum", "0,1.5708,0.7854,2.3562"]
    text = ["simulate", "--n", "5000", "--seed", "3", "--format", "text", "--out", OUT]
    cases["simulate-noisy_readout-text"] = [*text, "--model", noisy]
    cases["simulate-quantum-text"] = [*text, "--quantum", "0,0.7854,0.3927,1.1781"]
    cases["simulate-n1"] = ["simulate", "--n", "1", "--out", OUT, "--model", noisy]
    return cases


CASES = _cases()


def run_case(argv: list[str], out_dir: Path) -> dict[str, str]:
    """The run's record: its text by path under ``golden/<case>/``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(out_dir) if arg == OUT else arg for arg in argv])
    record = {"exit": f"{code}\n", "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for path in sorted(out_dir.iterdir()):
        if path.name in DIGEST_ONLY:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            record[f"files/{path.name}.sha256"] = f"{digest}\n"
        else:
            record[f"files/{path.name}"] = path.read_bytes().decode("utf-8")
    return record


def read_record(case: str) -> dict[str, str]:
    root = GOLDEN / case
    return {
        path.relative_to(root).as_posix(): path.read_bytes().decode("utf-8")
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def write_record(case: str, record: dict[str, str]) -> None:
    shutil.rmtree(GOLDEN / case, ignore_errors=True)
    for name, text in record.items():
        path = GOLDEN / case / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))


def first_difference(expected: dict[str, str], actual: dict[str, str]) -> str:
    """A unified diff, at most 20 lines, of the first output that differs."""
    for name in [*actual, *(name for name in expected if name not in actual)]:
        if expected.get(name) != actual.get(name):
            diff = difflib.unified_diff(
                expected.get(name, "").splitlines(keepends=True),
                actual.get(name, "").splitlines(keepends=True),
                f"golden/{name}" if name in expected else "/dev/null",
                f"run/{name}" if name in actual else "/dev/null",
            )
            return "".join(list(diff)[:20])
    return ""


def test_golden_file_covers_exactly_the_cases():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_the_golden_digests(name, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    record = run_case(CASES[name], out_dir)
    golden = read_record(name)
    if record != golden:
        pytest.fail(first_difference(golden, record), pytrace=False)


# Runs the named cases in a fresh interpreter, numpy blocked when argv[3] is
# "block", and prints each case's record and whether numpy was then loaded.
FRESH_PROCESS = """
import json, sys, tempfile
from pathlib import Path
if sys.argv[3] == "block":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.path[:0] = sys.argv[1:3]
import bell_lab
from test_golden_outputs import CASES, run_case
results = {}
for name in sys.argv[4:]:
    with tempfile.TemporaryDirectory() as tmp:
        results[name] = [run_case(CASES[name], Path(tmp)), sys.modules.get("numpy") is not None]
print(json.dumps(results))
"""


def run_fresh(names: list[str], block_numpy: bool) -> dict:
    tests = Path(__file__).resolve().parent
    argv = [str(tests.parent / "src"), str(tests), "block" if block_numpy else "allow", *names]
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, *argv], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


NUMPY_FREE_CASES = sorted(name for name in CASES if name.startswith(("check-", "search-")))


def test_check_and_search_run_with_numpy_blocked():
    assert len(NUMPY_FREE_CASES) == 16
    assert {"search-default", "search-random", "search-hill-climb"} <= set(NUMPY_FREE_CASES)
    results = run_fresh(NUMPY_FREE_CASES, block_numpy=True)
    assert {name: record for name, (record, _) in results.items()} == {
        name: read_record(name) for name in NUMPY_FREE_CASES
    }


def test_numpy_loads_only_for_certify_and_simulate():
    # In order, in one interpreter: numpy is first imported by the certify case.
    names = ["check-noisy_readout-json", "search-hill-climb",
             "certify-noisy_readout-json", "simulate-noisy_readout"]
    results = run_fresh(names, block_numpy=False)
    assert [results[name] for name in names] == [
        [read_record(name), loaded] for name, loaded in zip(names, [False, False, True, True])
    ]


CSV_CASES = sorted(name for name, argv in CASES.items() if argv[-2:] == ["--format", "csv"])


def _stdout(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue()


def _dotted(doc: dict, path=()):
    """(dotted key, value) for every non-dict value of a nested document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _dotted(value, (*path, key))
        else:
            yield ".".join((*path, key)), value


def test_csv_cases_cover_every_csv_format_case():
    assert len(CSV_CASES) == 6


@pytest.mark.parametrize("name", CSV_CASES)
def test_csv_rows_parse_to_the_json_document(name):
    argv = CASES[name]
    rows = list(csv.reader(io.StringIO(_stdout(argv), newline="")))
    assert rows and all(len(row) == 2 for row in rows)
    expected = dict(_dotted(json.loads(_stdout([*argv[:-1], "json"]))))
    assert len(rows) == len(expected)
    for key, field in rows:
        value = expected[key]
        if isinstance(value, (list, str)):
            assert json.loads(field) == value, key
        else:
            assert field == str(value), key


if __name__ == "__main__":
    old = {path.name for path in GOLDEN.iterdir()} if GOLDEN.exists() else set()
    for case in sorted(old - CASES.keys()):
        shutil.rmtree(GOLDEN / case)
        print(f"removed: {case}")
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(argv, Path(tmp))
        if case not in old:
            print(f"added: {case}")
        elif read_record(case) != record:
            print(f"changed: {case}")
        else:
            continue
        write_record(case, record)
    print(f"{len(CASES)} cases recorded in {GOLDEN}")
