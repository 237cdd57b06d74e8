"""CLI output bytes pinned across commits by digest.

Each case runs ``bell_lab.cli.main`` in this process on a fixed argv and
compares its exit code and the SHA-256 of its stdout, its stderr and every
file it writes with ``golden_outputs.json``.  The digests were generated at
commit 1118feb, before the model and correlation types became plain data;
the two ``--format text`` simulate cases and ``simulate-n1`` were added at
commit 67e2cf2, before contexts became positions; the three
``search-random-budget1``, ``search-hill-climb-csv`` and
``search-random-text`` cases were added at commit 0f12edd, before random
sampling and hill climbing became one walk; the six ``--format csv``
cases were regenerated after commit 91c5ed8, when their rows started to
go through ``csv.writer``.  Each time the file was written by running this
module as a script from the repository root:

    PYTHONPATH=src python tests/test_golden_outputs.py

which rewrites ``golden_outputs.json`` from the checked-out code and
prints each case whose digests changed, were added or were removed.  A
change that alters output bytes on purpose regenerates the file and says
which cases changed and why.

Two tests run cases in a fresh interpreter instead: every ``check`` and
``search`` case with numpy blocked, which must give the same digests, and
one case of each subcommand in turn, which shows numpy first loaded by
``certify``.
"""

import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bell_lab.cli import main
from tests_support import PRESET_DIR, PRESETS

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
OUT = "{out}"  # replaced by a fresh output directory per run


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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], out_dir: Path) -> dict:
    """Exit code and digests of stdout, stderr and each file under `out_dir`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(out_dir) if arg == OUT else arg for arg in argv])
    return {
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode("utf-8")),
        "stderr": _sha(stderr.getvalue().encode("utf-8")),
        "files": {
            path.name: _sha(path.read_bytes()) for path in sorted(out_dir.iterdir())
        },
    }


def test_golden_file_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_the_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run_case(CASES[name], out_dir) == golden


# Runs the named cases in a fresh interpreter, numpy blocked when argv[3] is
# "block", and prints each case's digests and whether numpy was then loaded.
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
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    results = run_fresh(NUMPY_FREE_CASES, block_numpy=True)
    assert {name: digests for name, (digests, _) in results.items()} == {
        name: golden[name] for name in NUMPY_FREE_CASES
    }


def test_numpy_loads_only_for_certify_and_simulate():
    # In order, in one interpreter: numpy is first imported by the certify case.
    names = ["check-noisy_readout-json", "search-hill-climb",
             "certify-noisy_readout-json", "simulate-noisy_readout"]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    results = run_fresh(names, block_numpy=False)
    assert [results[name] for name in names] == [
        [golden[name], loaded] for name, loaded in zip(names, [False, False, True, True])
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
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    digests = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = run_case(argv, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for case in sorted(old.keys() | digests.keys()):
        if case not in digests:
            print(f"removed: {case}")
        elif case not in old:
            print(f"added: {case}")
        elif old[case] != digests[case]:
            print(f"changed: {case}")
    print(f"wrote {len(digests)} cases to {GOLDEN}")
